package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// meanOf returns the mean of xs (0 for none).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100):
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples,
// rounded so that float error in p/100·n never adds a rank.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tailLadder are the percentiles a tail latency may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that still
// leaves at least 10 of n samples strictly beyond it, and false when n is
// too small for any (fewer than 20 samples).
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// noteLatency reports the median and tail of a latency sample (in
// seconds) as report lines, with the percentile and sample count.
func noteLatency(r *result, prefix string, secs []float64) {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1e3
	}
	n := len(ms)
	r.note(prefix+"_p50_ms", median(ms), "ms", fmt.Sprintf("n=%d", n))
	if p, ok := tailPercentile(n); ok {
		r.note(prefix+"_tail_ms", percentile(ms, p), "ms", fmt.Sprintf("p%g, n=%d, %d beyond", p, n, n-rank(p, n)))
	} else {
		r.report = append(r.report, fmt.Sprintf("  %-24s %14s %-6s  n=%d leaves no percentile with 10 samples beyond", prefix+"_tail_ms", "-", "ms", n))
	}
}

// interval is a half-open time interval [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// covered returns the total length of the union of ivs — the part of a
// parent span that child spans cover, counting overlapping children (calls
// on parallel goroutines) once. It sorts ivs in place.
func covered(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, curStart, curEnd int64
	open := false
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		if !open || iv.start > curEnd {
			if open {
				total += curEnd - curStart
			}
			curStart, curEnd, open = iv.start, iv.end, true
			continue
		}
		if iv.end > curEnd {
			curEnd = iv.end
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// twSockets reads the TCP TIME_WAIT socket count from /proc/net/sockstat.
func twSockets() (int, error) {
	data, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "TCP:" {
			continue
		}
		for i := 1; i+1 < len(fields); i += 2 {
			if fields[i] == "tw" {
				return strconv.Atoi(fields[i+1])
			}
		}
	}
	return 0, fmt.Errorf("no TCP tw count in /proc/net/sockstat")
}

// goStats is a snapshot of the Go runtime counters the go.* metrics are
// deltas of.
type goStats struct {
	gcCycles, allocBytes, allocObjects uint64
	pauseSeconds                       float64
}

var goSampleNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/pauses/total/gc:seconds",
}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var g goStats
	if samples[0].Value.Kind() == metrics.KindUint64 {
		g.gcCycles = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		g.allocObjects = samples[2].Value.Uint64()
	}
	if samples[3].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauseSeconds = histogramSum(samples[3].Value.Float64Histogram())
	}
	return g
}

// histogramSum estimates the sum of a runtime/metrics histogram's samples
// from bucket midpoints (the finite edge for the open-ended buckets).
func histogramSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var mid float64
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		sum += float64(c) * mid
	}
	return sum
}

// setGoDelta sets the go.* metrics: the runtime counters accumulated
// between before and after, per delivered simulation result.
func setGoDelta(r *result, before, after goStats, results int) {
	per := 1.0
	if results > 0 {
		per = float64(results)
	}
	r.set("go.gc_cycles", float64(after.gcCycles-before.gcCycles)/per)
	r.set("go.gc_pause_ms", (after.pauseSeconds-before.pauseSeconds)*1e3/per)
	r.set("go.alloc_mb", float64(after.allocBytes-before.allocBytes)/(1<<20)/per)
	r.set("go.allocs", float64(after.allocObjects-before.allocObjects)/per)
}

// noteGoDelta reports the go.* counters of an untraced run as report
// lines, so GC drift shows without the tracing wrappers' own allocations.
func noteGoDelta(r *result, before, after goStats, results int) {
	var tmp result
	setGoDelta(&tmp, before, after, results)
	for _, d := range perLayer {
		if v, ok := tmp.values[d.name]; ok {
			r.note(d.name, v, d.unit, "per result, untraced")
		}
	}
}
