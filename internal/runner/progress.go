package runner

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Progress turns the Options.OnRun feed into a live, single-line status
// display: completed/failed/flaky counts, the computation rate, and an ETA
// that discounts cache-served runs (a resumed sweep replays stored runs
// near-instantly; counting them into the rate would make the ETA
// wildly optimistic). Snapshots are also available programmatically for
// expvar-style exporters.
//
// Wire it up with:
//
//	p := runner.NewProgress(os.Stderr, "fig3a")
//	opts.OnRun = p.OnRun
//	defer p.Finish()
//
// OnRun is safe for concurrent use from the runner's workers; printing is
// throttled to one line per Interval so a 10k-run sweep does not turn the
// terminal into the bottleneck.
type Progress struct {
	// W receives the status line; nil disables printing (snapshots still
	// work, for exporters that render elsewhere).
	W io.Writer
	// Label prefixes the line, usually the experiment or batch name.
	Label string
	// Interval is the minimum time between printed lines (default 200ms).
	// The final update (Done == Total) always prints.
	Interval time.Duration

	mu    sync.Mutex
	start time.Time
	last  time.Time // last print
	u     RunUpdate // most recent update
}

// NewProgress returns a Progress printing to w with the given label.
func NewProgress(w io.Writer, label string) *Progress {
	return &Progress{W: w, Label: label}
}

// OnRun records one finished run and, rate-limited, reprints the status
// line. Pass the method value as Options.OnRun.
func (p *Progress) OnRun(u RunUpdate) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if p.start.IsZero() {
		p.start = now
	}
	if u.Done > p.u.Done {
		p.u = u
	}
	if p.W == nil {
		return
	}
	interval := p.Interval
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	if u.Done < u.Total && now.Sub(p.last) < interval {
		return
	}
	p.last = now
	fmt.Fprintf(p.W, "\r%s\033[K", p.line(p.snapshotLocked(now)))
}

// Finish clears the status line; call it once the batch is done so the
// next regular output starts on a clean line.
func (p *Progress) Finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.W != nil && !p.start.IsZero() {
		fmt.Fprint(p.W, "\r\033[K")
	}
}

// Snapshot is a point-in-time view of the batch, in exportable form.
type Snapshot struct {
	Label string `json:"label"`
	// Done, Total, Failed, Flaky, Cached mirror the latest RunUpdate.
	Done   int `json:"done"`
	Total  int `json:"total"`
	Failed int `json:"failed,omitempty"`
	Flaky  int `json:"flaky,omitempty"`
	Cached int `json:"cached,omitempty"`
	// Elapsed is the wall time since the first update.
	Elapsed time.Duration `json:"elapsed_ns"`
	// RunsPerSec is the computation rate over runs that actually executed
	// (cache-served ones excluded), 0 until one completes.
	RunsPerSec float64 `json:"runs_per_sec"`
	// ETA estimates the remaining wall time from RunsPerSec; valid only
	// when ETAValid is set (a rate exists).
	ETA      time.Duration `json:"eta_ns"`
	ETAValid bool          `json:"eta_valid"`
}

// Snapshot returns the current state. Safe to call concurrently with
// OnRun, e.g. from an expvar.Func.
func (p *Progress) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked(time.Now())
}

func (p *Progress) snapshotLocked(now time.Time) Snapshot {
	s := Snapshot{
		Label:  p.Label,
		Done:   p.u.Done,
		Total:  p.u.Total,
		Failed: p.u.Failed,
		Flaky:  p.u.Flaky,
		Cached: p.u.Cached,
	}
	if !p.start.IsZero() {
		s.Elapsed = now.Sub(p.start)
	}
	computed := s.Done - s.Cached
	if computed > 0 && s.Elapsed > 0 {
		s.RunsPerSec = float64(computed) / s.Elapsed.Seconds()
		if remaining := s.Total - s.Done; remaining >= 0 && s.RunsPerSec > 0 {
			s.ETA = time.Duration(float64(remaining) / s.RunsPerSec * float64(time.Second))
			s.ETAValid = true
		}
	}
	return s
}

// line renders a snapshot as the one-line terminal status.
func (p *Progress) line(s Snapshot) string {
	var b strings.Builder
	if s.Label != "" {
		fmt.Fprintf(&b, "%s: ", s.Label)
	}
	fmt.Fprintf(&b, "%d/%d runs", s.Done, s.Total)
	var extras []string
	if s.Failed > 0 {
		extras = append(extras, fmt.Sprintf("%d failed", s.Failed))
	}
	if s.Flaky > 0 {
		extras = append(extras, fmt.Sprintf("%d flaky", s.Flaky))
	}
	if s.Cached > 0 {
		extras = append(extras, fmt.Sprintf("%d from cache", s.Cached))
	}
	if len(extras) > 0 {
		fmt.Fprintf(&b, " (%s)", strings.Join(extras, ", "))
	}
	if s.RunsPerSec > 0 {
		fmt.Fprintf(&b, "  %.1f runs/s", s.RunsPerSec)
	}
	if s.ETAValid && s.Done < s.Total {
		fmt.Fprintf(&b, "  ETA %s", formatETA(s.ETA))
	}
	return b.String()
}

// formatETA rounds the estimate to a humane precision: sub-minute ETAs to
// the second, longer ones to the minute.
func formatETA(d time.Duration) string {
	if d < time.Minute {
		return d.Round(time.Second).String()
	}
	return d.Round(time.Minute).String()
}
