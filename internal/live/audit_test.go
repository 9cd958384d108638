package live_test

import (
	"strings"
	"testing"

	"github.com/ugf-sim/ugf/internal/live"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/simtest/check"
)

// auditedRun executes one live run with the trace auditor attached and a
// recorder alongside, returning the outcome and the raw event stream.
func auditedRun(t *testing.T, cfg live.Config) (sim.Outcome, []sim.TraceEvent, []string) {
	t.Helper()
	snk := check.New()
	if cfg.Topology != nil {
		snk.UseTopology(cfg.Topology, cfg.N)
	}
	var rec sim.Recorder
	cfg.Trace = sim.FuncSink(func(ev sim.TraceEvent) {
		snk.Event(ev)
		rec.Event(ev)
	})
	o, err := live.Run(cfg)
	if err != nil {
		t.Fatalf("live.Run: %v", err)
	}
	return o, rec.Events, snk.Finish(o)
}

// TestLiveTracePassesAuditor routes live event streams through the same
// Section II-A trace validator the simulator's runs are held to: phase
// order inside a step, send/arrival/drop matching per link, crash
// silence, end-marker/Outcome reconciliation. Every adversary must keep
// the stream consistent.
func TestLiveTracePassesAuditor(t *testing.T) {
	type row struct {
		name string
		cfg  live.Config
	}
	pp := proto(t, "push-pull")
	cases := []row{
		{"plain", live.Config{N: 40, Protocol: pp, Seed: 5}},
		{"faults", live.Config{
			N: 40, Protocol: pp, Seed: 5,
			Faults: &sim.FaultPlan{Seed: 8, Drop: 0.12, Duplicate: 0.06, Corrupt: 0.06},
		}},
	}
	for _, a := range attacks(t) {
		cfg, err := live.FromSimConfig(a.cfg)
		if err != nil {
			t.Fatalf("%s: FromSimConfig: %v", a.name, err)
		}
		cases = append(cases, row{a.name, cfg})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, events, violations := auditedRun(t, tc.cfg)
			if len(violations) != 0 {
				t.Fatalf("auditor violations:\n  %s", strings.Join(violations, "\n  "))
			}
			if len(events) == 0 || events[len(events)-1].Kind != sim.TraceEnd {
				t.Fatal("stream missing its end marker")
			}
			if o.HorizonHit {
				t.Fatalf("run was cut off: %+v", o)
			}
		})
	}
}

// replay feeds a doctored event stream back into a fresh auditor.
func replay(events []sim.TraceEvent) *check.Sink {
	snk := check.New()
	for _, ev := range events {
		snk.Event(ev)
	}
	return snk
}

// The broken-stream tests below doctor a genuine live stream into the
// failure shapes only a real network can produce, proving the auditor
// would catch them rather than vacuously passing.

// TestAuditorCatchesReorderedArrival models a racy runtime that lets a
// frame slip into a node mid-step: an arrival re-ordered after a send of
// the same global step violates the deliveries-before-local-steps phase
// order.
func TestAuditorCatchesReorderedArrival(t *testing.T) {
	_, events, violations := auditedRun(t, live.Config{N: 24, Protocol: proto(t, "push-pull"), Seed: 9})
	if len(violations) != 0 {
		t.Fatalf("clean run not clean: %v", violations)
	}
	// Find a step with both arrivals and sends, and move its first
	// arrival after its last send (same step, so only phase order breaks).
	doctored := append([]sim.TraceEvent(nil), events...)
	moved := false
	for i, ev := range doctored {
		if ev.Kind != sim.TraceArrive {
			continue
		}
		last := -1
		for j := i + 1; j < len(doctored) && doctored[j].Step == ev.Step; j++ {
			if doctored[j].Kind == sim.TraceSend {
				last = j
			}
		}
		if last < 0 {
			continue
		}
		copy(doctored[i:last], doctored[i+1:last+1])
		doctored[last] = ev
		moved = true
		break
	}
	if !moved {
		t.Fatal("no step with an arrival before a send in the stream")
	}
	v := replay(doctored).Violations()
	if len(v) == 0 {
		t.Fatal("auditor accepted an arrival re-ordered after a send")
	}
	if !strings.Contains(strings.Join(v, "\n"), "after a send in the same step") {
		t.Errorf("unexpected violation shape: %v", v)
	}
}

// TestAuditorCatchesPhantomArrival models a transport delivering a frame
// on a link that never carried a send — a misrouted or fabricated frame.
func TestAuditorCatchesPhantomArrival(t *testing.T) {
	_, events, violations := auditedRun(t, live.Config{N: 24, Protocol: proto(t, "push-pull"), Seed: 9})
	if len(violations) != 0 {
		t.Fatalf("clean run not clean: %v", violations)
	}
	// Splice a fabricated arrival right before the end marker, on a
	// (from, to) pair chosen to have no outstanding send by picking the
	// reverse direction of the first send ever... instead, simply use a
	// self-link, which no protocol uses.
	doctored := append([]sim.TraceEvent(nil), events[:len(events)-1]...)
	end := events[len(events)-1]
	doctored = append(doctored, sim.TraceEvent{
		Kind: sim.TraceArrive, Step: end.Step, Proc: 1, Other: 1,
	}, end)
	v := replay(doctored).Violations()
	if len(v) == 0 {
		t.Fatal("auditor accepted an arrival with no matching send")
	}
	if !strings.Contains(strings.Join(v, "\n"), "without a prior matching send") {
		t.Errorf("unexpected violation shape: %v", v)
	}
}

// TestAuditorCatchesUnreconciledDrop models a network that discards a
// frame without accounting for it: the drop event vanishes from the
// stream while Stats still counts it, so Finish's reconciliation against
// the Outcome must flag the drop-counter mismatch.
func TestAuditorCatchesUnreconciledDrop(t *testing.T) {
	o, events, violations := auditedRun(t, live.Config{
		N: 24, Protocol: proto(t, "push-pull"), Seed: 9,
		Faults: &sim.FaultPlan{Seed: 8, Drop: 0.15},
	})
	if len(violations) != 0 {
		t.Fatalf("clean run not clean: %v", violations)
	}
	doctored := make([]sim.TraceEvent, 0, len(events)-1)
	removed := false
	for _, ev := range events {
		if !removed && ev.Kind == sim.TraceDrop && ev.Note == "loss" {
			removed = true
			continue
		}
		doctored = append(doctored, ev)
	}
	if !removed {
		t.Fatal("run produced no loss drops to remove")
	}
	v := replay(doctored).Finish(o)
	if len(v) == 0 {
		t.Fatal("auditor reconciled a stream missing a drop event")
	}
	if !strings.Contains(strings.Join(v, "\n"), "drop counters") {
		t.Errorf("missing drop-counter mismatch in: %v", v)
	}
}
