// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the simulator's public entry points (sim.Run,
// runner.ExecuteContext, the sweep service over loopback HTTP, live.Run
// over loopback TCP), checks every output against an independent
// reference outside the timed region, and prints the workload's metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Lines before the last are a human-readable report. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 162, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, runs_per_s,
// sim_events_per_s, peak_rss_mb). With --trace 1 the workload runs every
// operation twice, untraced and then traced through wrappers around each
// layer's public interface; the traced twin must hash-equal the untraced
// one, the metrics are the per-layer ones, and the spans are written to
// <workdir>/spans/<workload>-<seed>.jsonl. Any failed output check makes
// the command exit 1 after printing its result; README.md documents the
// workloads and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports untraced; BENCHMARK.json
// lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"sim_events_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every workload reports traced, named by module.
// A layer a workload bypasses reports 0. Counts and times are means per
// simulation result unless the name says otherwise (see README.md).
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.active_steps", "count"},
	{"sim.heap_ops_per_event", "ratio"},
	{"sim.init_ms", "ms"},
	{"sim.loop_ms", "ms"},
	{"sim.finalize_ms", "ms"},
	{"sim.self_ms", "ms"},
	{"sim.self_ns_per_event", "ns"},
	{"sim.shard_imbalance", "ratio"},
	{"gossip.step_calls", "count"},
	{"gossip.step_ms", "ms"},
	{"gossip.step_ns", "ns"},
	{"gossip.commit_ms", "ms"},
	{"gossip.knows_calls", "count"},
	{"gossip.knows_ms", "ms"},
	{"core.observe_calls", "count"},
	{"core.observe_ms", "ms"},
	{"core.interventions", "count"},
	{"runner.busy_ratio", "ratio"},
	{"runner.tail_ms", "ms"},
	{"runner.failed", "count"},
	{"service.submit_ms", "ms"},
	{"service.acquire_ms", "ms"},
	{"service.complete_ms", "ms"},
	{"service.exec_ms", "ms"},
	{"service.overhead_ratio", "ratio"},
	{"service.stream_lag_ms", "ms"},
	{"service.hit_submit_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.dedup_hits", "count"},
	{"service.requeued", "count"},
	{"service.idle_polls", "count"},
	{"live.frames", "count"},
	{"live.bytes_per_frame", "B"},
	{"live.links", "count"},
	{"live.links_per_frame", "ratio"},
	{"live.send_ms", "ms"},
	{"live.send_p50_us", "us"},
	{"live.steps", "count"},
	{"live.ms_per_step", "ms"},
	{"live.tw_sockets", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.allocs", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// workload is one named benchmark input set. setup builds everything the
// workload needs before its first timed operation and returns the
// teardown; run sets itself up the same way, measures and checks.
type workload struct {
	name  string
	setup func(b *bench) (teardown func(), err error)
	run   func(b *bench) error
}

var workloads = []workload{
	{"paper-sweep", paperSetup, runPaperSweep},
	{"engine-scale", engineSetup, runEngineScale},
	{"service-sweep", serviceSetup, runServiceSweep},
	{"live-tcp", liveSetup, runLiveTCP},
}

// bench is the state of one invocation: its flags, the result being
// assembled, and the span recorder when tracing.
type bench struct {
	seed    uint64
	seconds float64
	workdir string
	rec     *recorder // nil when untraced
	res     result
}

func (b *bench) traced() bool { return b.rec != nil }

// result is what one invocation reports.
type result struct {
	attempted, failed int
	failures          []string // first few failure descriptions
	values            map[string]float64
	report            []string // human-readable lines printed before the JSON
}

// fail records n failed operations with a reason.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric value.
func (r *result) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

// note adds a report line for a value that is not part of the JSON
// metric set (latencies, fail_ratio, runtime counters of an untraced run).
func (r *result) note(name string, v float64, unit, detail string) {
	line := fmt.Sprintf("  %-24s %14.4f %-6s", name, v, unit)
	if detail != "" {
		line += "  " + detail
	}
	r.report = append(r.report, line)
}

// output is the JSON object printed as the last line.
type output struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish builds the JSON object for the metric set of the mode. A missing
// end-to-end metric is a benchmark bug; per-layer metrics of a bypassed
// layer read 0.
func (r *result) finish(traced bool) (output, error) {
	out := output{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricOutput{},
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricOutput{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measured time per invocation")
		trace   = flag.Int("trace", 0, "1 runs every operation untraced and traced and reports per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for the service cache and span files")
		probe   = flag.Int64("setup-probe", 0, "internal: set the workload up, print the nanoseconds since this Unix time in nanoseconds, and exit")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	b := &bench{seed: *seed, seconds: *seconds, workdir: *workdir}
	if *trace == 1 {
		b.rec = newRecorder()
	}
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if *probe != 0 {
		teardown, err := wl.setup(b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: set-up: %v\n", wl.name, err)
			return 2
		}
		fmt.Println(time.Now().UnixNano() - *probe)
		teardown()
		return 0
	}
	start := time.Now()
	if !b.traced() {
		setup, err := measureSetup(wl, b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: set-up: %v\n", wl.name, err)
			return 2
		}
		b.res.set("setup_s", setup)
	}
	if err := wl.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 2
	}
	if b.traced() {
		path := filepath.Join(b.workdir, "spans", fmt.Sprintf("%s-%d.jsonl", wl.name, b.seed))
		if err := b.rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		b.res.report = append(b.res.report, fmt.Sprintf("  spans written to %s (%d spans)", path, len(b.rec.spans)))
	}
	out, err := b.res.finish(b.traced())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 2
	}
	printReport(wl, b, out, time.Since(start))
	js, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(js))
	return exitCode(b.res)
}

// exitCode is 1 when any output check failed, 0 otherwise.
func exitCode(r result) int {
	if r.failed > 0 || r.attempted == 0 {
		return 1
	}
	return 0
}

func printReport(wl *workload, b *bench, out output, total time.Duration) {
	mode := "untraced"
	if b.traced() {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g %s (%.1fs total)\n", wl.name, b.seed, b.seconds, mode, total.Seconds())
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Printf("  %-24s %14.4f %s\n", n, m.Value, m.Unit)
	}
	ratio := 0.0
	if b.res.attempted > 0 {
		ratio = float64(b.res.failed) / float64(b.res.attempted)
	}
	fmt.Printf("  %-24s %14.4f %-6s  %d of %d operations\n", "fail_ratio", ratio, "ratio", b.res.failed, b.res.attempted)
	for _, line := range b.res.report {
		fmt.Println(line)
	}
	for _, f := range b.res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", f)
	}
}

// setupTimes is how many processes measureSetup starts.
const setupTimes = 9

// measureSetup is setup_s: it starts this program setupTimes times in
// --setup-probe mode and returns the median time from starting a process
// to that process having the workload set up, in seconds. Each probe
// tears its set-up down and exits before the next starts.
func measureSetup(wl *workload, b *bench) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupTimes; i++ {
		cmd := exec.Command(exe, "--workload", wl.name, "--seed", strconv.FormatUint(b.seed, 10),
			"--workdir", b.workdir, "--setup-probe", strconv.FormatInt(time.Now().UnixNano(), 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("set-up probe printed %q", out)
		}
		times = append(times, float64(ns)/1e9)
	}
	return median(times), nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
