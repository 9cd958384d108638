package main

import (
	"sync"
	"time"

	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/simtest"
	"github.com/ugf-sim/ugf/internal/spec"
)

// checkWorkers is how many goroutines run output checks; the benchmark
// uses at most two computing threads throughout.
const checkWorkers = 2

// parallelCheck runs check(i) for every i in [0, n) on checkWorkers
// goroutines and returns the failure message of each failed item, in
// index order; check returns "" for a passing item.
func parallelCheck(n int, check func(i int) string) []string {
	msgs := make([]string, n)
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < checkWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				msgs[i] = check(i)
			}
		}()
	}
	wg.Wait()
	var failed []string
	for _, m := range msgs {
		if m != "" {
			failed = append(failed, m)
		}
	}
	return failed
}

// record adds n checked operations to the result, with their failures.
func (r *result) record(n int, failures []string) {
	r.attempted += n
	for _, f := range failures {
		r.fail(1, "%s", f)
	}
}

// diffAgainst compares got with the reference outcome ref builds for cfg
// and describes the first difference, or returns "" when they agree up to
// simtest.Normalize.
func diffAgainst(got sim.Outcome, cfg sim.Config, ref func(sim.Config) (sim.Outcome, error)) string {
	want, err := ref(cfg)
	if err != nil {
		return "reference: " + err.Error()
	}
	if d := simtest.DiffOutcomes(got, want); len(d) > 0 {
		return "differs from reference: " + d[0]
	}
	return ""
}

// simLayer accumulates the sim, gossip and core metrics of a workload's
// traced simulation runs.
type simLayer struct {
	runs                                        int
	events, activeSteps, heapOps, interventions int64
	init, loop, finalize                        time.Duration
	imbalance                                   []float64
	calls                                       callTotals
}

func (s *simLayer) addOutcome(o sim.Outcome) {
	st := o.Stats
	s.runs++
	s.events += st.Events
	s.activeSteps += st.ActiveSteps
	s.heapOps += st.HeapPushes + st.HeapPops
	s.interventions += st.Crashes + st.DeltaRewrites + st.DelayRewrites
	s.init += st.Wall.Init
	s.loop += st.Wall.Run
	s.finalize += st.Wall.Finalize
	if st.Wall.ShardImbalance > 0 {
		s.imbalance = append(s.imbalance, st.Wall.ShardImbalance)
	}
}

// set writes the sim.*, gossip.* and core.* metrics as means per run.
func (s *simLayer) set(r *result) {
	if s.runs == 0 {
		return
	}
	n := float64(s.runs)
	perRunMs := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	perCall := func(l leaf) float64 {
		if l.calls == 0 {
			return 0
		}
		return float64(l.ns) / float64(l.calls)
	}
	self := (s.init + s.loop + s.finalize).Nanoseconds() - s.calls.covered()
	r.set("sim.events", float64(s.events)/n)
	r.set("sim.active_steps", float64(s.activeSteps)/n)
	if s.events > 0 {
		r.set("sim.heap_ops_per_event", float64(s.heapOps)/float64(s.events))
		r.set("sim.self_ns_per_event", float64(self)/float64(s.events))
	}
	r.set("sim.init_ms", perRunMs(s.init.Nanoseconds()))
	r.set("sim.loop_ms", perRunMs(s.loop.Nanoseconds()))
	r.set("sim.finalize_ms", perRunMs(s.finalize.Nanoseconds()))
	r.set("sim.self_ms", perRunMs(self))
	r.set("sim.shard_imbalance", median(s.imbalance))
	r.set("gossip.step_calls", float64(s.calls.step.calls)/n)
	r.set("gossip.step_ms", perRunMs(s.calls.step.ns))
	r.set("gossip.step_ns", perCall(s.calls.step))
	r.set("gossip.commit_ms", perRunMs(s.calls.commit.ns))
	r.set("gossip.knows_calls", float64(s.calls.knows.calls)/n)
	r.set("gossip.knows_ms", perRunMs(s.calls.knows.ns))
	r.set("core.observe_calls", float64(s.calls.observe.calls)/n)
	r.set("core.observe_ms", perRunMs(s.calls.observe.ns))
	r.set("core.interventions", float64(s.interventions)/n)
}

// twinMismatch describes a traced outcome that differs from its untraced
// twin under spec.OutcomeHash, or returns "" when they agree: the tracing
// wrappers must change nothing simulated.
func twinMismatch(name string, untraced, traced sim.Outcome) string {
	if spec.OutcomeHash(untraced) != spec.OutcomeHash(traced) {
		return name + ": traced outcome differs from its untraced twin"
	}
	return ""
}
