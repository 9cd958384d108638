package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// span is one recorded interval at a layer boundary. Hot leaf calls
// (protocol steps, Knows, adversary observations) are folded into one
// aggregated span per kind and run: Calls counts the calls, BusyNs sums
// their durations, and Start/End enclose them.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	BusyNs int64  `json:"busy_ns,omitempty"`
}

// recorder keeps spans in memory until the run ends, plus the per-run
// call accumulators of the simulation wrappers not yet folded into spans.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	runs  []*runAcc
	advs  []*advAcc
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the recorder clock: monotonic nanoseconds since the recorder
// started.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add stores s and returns its ID.
func (r *recorder) add(s span) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	return s.ID
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// leaf accumulates one kind of call: how many, their summed duration, the
// first start and the last end.
type leaf struct{ calls, ns, first, last int64 }

func (l *leaf) add(start, end int64) {
	if l.calls == 0 || start < l.first {
		l.first = start
	}
	if end > l.last {
		l.last = end
	}
	l.calls++
	l.ns += end - start
}

func (l *leaf) merge(o leaf) {
	if o.calls == 0 {
		return
	}
	if l.calls == 0 || o.first < l.first {
		l.first = o.first
	}
	if o.last > l.last {
		l.last = o.last
	}
	l.calls += o.calls
	l.ns += o.ns
}

// procStats is one process's call accumulator. Each process is stepped by
// one goroutine at a time, so it needs no lock.
type procStats struct {
	step, commit, forget, knows leaf
	stepIv                      []interval // sharded runs only: for the union
}

// runAcc collects the protocol calls of one simulation run.
type runAcc struct {
	begin    int64 // Protocol.New call
	parallel bool  // sharded run: Step calls overlap
	procs    []procStats
}

// advAcc collects the adversary calls of one simulation run.
type advAcc struct{ init, observe leaf }

// tracedProtocol wraps a sim.Protocol so every process it builds reports
// its Step, Commit, Forget and Knows calls. parallel must be set for runs
// with Config.Workers > 1, whose Step calls overlap.
type tracedProtocol struct {
	inner    sim.Protocol
	rec      *recorder
	parallel bool
}

func (p tracedProtocol) Name() string { return p.inner.Name() }

func (p tracedProtocol) New(envs []sim.Env) []sim.Process {
	acc := &runAcc{begin: p.rec.now(), parallel: p.parallel, procs: make([]procStats, len(envs))}
	p.rec.mu.Lock()
	p.rec.runs = append(p.rec.runs, acc)
	p.rec.mu.Unlock()
	procs := p.inner.New(envs)
	wrapped := make([]tracedProc, len(procs))
	for i, inner := range procs {
		wrapped[i] = tracedProc{inner: inner, st: &acc.procs[i], rec: p.rec, parallel: p.parallel}
		tp := &wrapped[i]
		c, isC := inner.(sim.Committer)
		f, isF := inner.(sim.Forgetter)
		switch {
		case isC && isF:
			procs[i] = tracedCommitForgetter{tp, c, f}
		case isC:
			procs[i] = tracedCommitter{tp, c}
		case isF:
			procs[i] = tracedForgetter{tp, f}
		default:
			procs[i] = tp
		}
	}
	return procs
}

// tracedProc forwards every sim.Process call, timing Step and Knows.
// Asleep is forwarded untimed: it is a field read in every protocol, and
// timing it would cost more than the call.
type tracedProc struct {
	inner    sim.Process
	st       *procStats
	rec      *recorder
	parallel bool
}

func (p *tracedProc) Step(now sim.Step, delivered []sim.Message, out *sim.Outbox) {
	t0 := p.rec.now()
	p.inner.Step(now, delivered, out)
	t1 := p.rec.now()
	p.st.step.add(t0, t1)
	if p.parallel {
		p.st.stepIv = append(p.st.stepIv, interval{t0, t1})
	}
}

func (p *tracedProc) Asleep() bool { return p.inner.Asleep() }

func (p *tracedProc) Knows(g sim.ProcID) bool {
	t0 := p.rec.now()
	v := p.inner.Knows(g)
	p.st.knows.add(t0, p.rec.now())
	return v
}

func (p *tracedProc) commit(c sim.Committer, now sim.Step) {
	t0 := p.rec.now()
	c.Commit(now)
	p.st.commit.add(t0, p.rec.now())
}

func (p *tracedProc) forget(f sim.Forgetter) {
	t0 := p.rec.now()
	f.Forget()
	p.st.forget.add(t0, p.rec.now())
}

// The three variants below carry the optional sim.Committer and
// sim.Forgetter extensions exactly when the wrapped process has them, so
// the engine's type checks see what they would see unwrapped.
type tracedCommitter struct {
	*tracedProc
	c sim.Committer
}

func (p tracedCommitter) Commit(now sim.Step) { p.commit(p.c, now) }

type tracedForgetter struct {
	*tracedProc
	f sim.Forgetter
}

func (p tracedForgetter) Forget() { p.forget(p.f) }

type tracedCommitForgetter struct {
	*tracedProc
	c sim.Committer
	f sim.Forgetter
}

func (p tracedCommitForgetter) Commit(now sim.Step) { p.commit(p.c, now) }
func (p tracedCommitForgetter) Forget()             { p.forget(p.f) }

// tracedAdversary wraps a sim.Adversary so every instance it builds
// reports its Init and Observe calls.
type tracedAdversary struct {
	inner sim.Adversary
	rec   *recorder
}

func (a tracedAdversary) Name() string { return a.inner.Name() }

func (a tracedAdversary) New(n, f int, rng *xrand.RNG) sim.AdversaryInstance {
	acc := &advAcc{}
	a.rec.mu.Lock()
	a.rec.advs = append(a.rec.advs, acc)
	a.rec.mu.Unlock()
	return &tracedInstance{inner: a.inner.New(n, f, rng), acc: acc, rec: a.rec}
}

type tracedInstance struct {
	inner sim.AdversaryInstance
	acc   *advAcc
	rec   *recorder
}

func (t *tracedInstance) Init(view sim.View, ctl sim.Control) {
	t0 := t.rec.now()
	t.inner.Init(view, ctl)
	t.acc.init.add(t0, t.rec.now())
}

func (t *tracedInstance) Observe(now sim.Step, events []sim.SendRecord, view sim.View, ctl sim.Control) {
	t0 := t.rec.now()
	t.inner.Observe(now, events, view, ctl)
	t.acc.observe.add(t0, t.rec.now())
}

func (t *tracedInstance) Label() string { return t.inner.Label() }

// traceConfig returns cfg with its protocol and adversary wrapped.
func (r *recorder) traceConfig(cfg sim.Config) sim.Config {
	cfg.Protocol = tracedProtocol{inner: cfg.Protocol, rec: r, parallel: cfg.Workers > 1}
	if cfg.Adversary != nil {
		cfg.Adversary = tracedAdversary{inner: cfg.Adversary, rec: r}
	}
	return cfg
}

// callTotals are the folded protocol and adversary calls of a batch of
// simulation runs.
type callTotals struct {
	runs                    int
	step, commit, forget    leaf
	knows, observe, advInit leaf
	stepCovered             int64 // union of Step intervals (sum when serial)
}

// covered is the part of the runs' wall time spent inside protocol and
// adversary code. Only Step calls of a sharded run overlap each other;
// every other call runs in a serial phase.
func (c callTotals) covered() int64 {
	return c.stepCovered + c.commit.ns + c.forget.ns + c.knows.ns + c.observe.ns + c.advInit.ns
}

func (c *callTotals) add(o callTotals) {
	c.runs += o.runs
	c.step.merge(o.step)
	c.commit.merge(o.commit)
	c.forget.merge(o.forget)
	c.knows.merge(o.knows)
	c.observe.merge(o.observe)
	c.advInit.merge(o.advInit)
	c.stepCovered += o.stepCovered
}

// fold turns the accumulators of every run begun since the last fold into
// spans under parent (a "sim.run" span per run with aggregated children)
// and returns their totals.
func (r *recorder) fold(parent, op int64) callTotals {
	r.mu.Lock()
	runs, advs := r.runs, r.advs
	r.runs, r.advs = nil, nil
	r.mu.Unlock()
	var total callTotals
	for _, acc := range runs {
		var t callTotals
		t.runs = 1
		var ivs []interval
		for i := range acc.procs {
			ps := &acc.procs[i]
			t.step.merge(ps.step)
			t.commit.merge(ps.commit)
			t.forget.merge(ps.forget)
			t.knows.merge(ps.knows)
			ivs = append(ivs, ps.stepIv...)
		}
		t.stepCovered = t.step.ns
		if acc.parallel {
			t.stepCovered = covered(ivs)
		}
		end := acc.begin
		for _, l := range []leaf{t.step, t.commit, t.forget, t.knows} {
			if l.last > end {
				end = l.last
			}
		}
		run := r.add(span{Parent: parent, Op: op, Name: "sim.run", Start: acc.begin, End: end})
		r.addLeaves(run, op, namedLeaf{"gossip.step", t.step}, namedLeaf{"gossip.commit", t.commit},
			namedLeaf{"gossip.forget", t.forget}, namedLeaf{"gossip.knows", t.knows})
		total.add(t)
	}
	for _, acc := range advs {
		r.addLeaves(parent, op, namedLeaf{"core.init", acc.init}, namedLeaf{"core.observe", acc.observe})
		total.observe.merge(acc.observe)
		total.advInit.merge(acc.init)
	}
	return total
}

// namedLeaf is an aggregated leaf span to record.
type namedLeaf struct {
	name string
	l    leaf
}

// addLeaves records one aggregated span per leaf that saw calls.
func (r *recorder) addLeaves(parent, op int64, leaves ...namedLeaf) {
	for _, nl := range leaves {
		if nl.l.calls > 0 {
			r.add(span{Parent: parent, Op: op, Name: nl.name, Start: nl.l.first, End: nl.l.last, Calls: nl.l.calls, BusyNs: nl.l.ns})
		}
	}
}
