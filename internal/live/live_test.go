package live_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/live"
	"github.com/ugf-sim/ugf/internal/live/wire"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/simtest"
	"github.com/ugf-sim/ugf/internal/xrand"
)

func proto(t testing.TB, name string) sim.Protocol {
	t.Helper()
	p, ok := gossip.ByName(name)
	if !ok {
		t.Fatalf("protocol %q not in registry", name)
	}
	return p
}

// TestLiveMatchesSimExactly is the oracle check at its strictest: a live
// run over wire frames produces the same Outcome as the simulator bit for
// bit — same TEnd, Quiescence, Messages, per-kind counts, per-process
// counters, everything up to simtest.Normalize (wall times and scheduler
// heap counters) — with link faults and under every adversary of
// attacks.
func TestLiveMatchesSimExactly(t *testing.T) {
	protocols := []string{"push-pull", "ears", "push", "doubling", "round-robin"}
	plans := []*sim.FaultPlan{
		nil,
		{Seed: 0xFA01, Drop: 0.1, Duplicate: 0.05, Corrupt: 0.03},
	}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		protocols = []string{"push-pull", "ears"}
		seeds = []uint64{1}
	}
	for _, name := range protocols {
		for _, plan := range plans {
			for _, seed := range seeds {
				simCfg := sim.Config{
					N: 48, Protocol: proto(t, name), Seed: seed,
					Faults: plan, KeepPerProcess: true,
				}
				want, err := sim.Run(simCfg)
				if err != nil {
					t.Fatalf("%s/faults=%v/seed=%d: sim: %v", name, plan != nil, seed, err)
				}
				liveCfg, err := live.FromSimConfig(simCfg)
				if err != nil {
					t.Fatalf("%s: FromSimConfig: %v", name, err)
				}
				got, err := live.Run(liveCfg)
				if err != nil {
					t.Fatalf("%s/faults=%v/seed=%d: live: %v", name, plan != nil, seed, err)
				}
				if diffs := simtest.DiffOutcomes(got, want); len(diffs) != 0 {
					t.Errorf("%s/faults=%v/seed=%d: live diverges from sim:\n  %s",
						name, plan != nil, seed, strings.Join(diffs, "\n  "))
				}
				if got.Gathered != want.Gathered {
					t.Errorf("%s/faults=%v/seed=%d: Gathered: live=%v sim=%v",
						name, plan != nil, seed, got.Gathered, want.Gathered)
				}
			}
		}
	}

	for _, a := range attacks(t) {
		simCfg := a.cfg
		simCfg.KeepPerProcess = true
		want, err := sim.Run(simCfg)
		if err != nil {
			t.Fatalf("%s: sim: %v", a.name, err)
		}
		if a.strategy != "" && want.Strategy != a.strategy {
			t.Fatalf("%s: drew strategy %q, the row is for %q", a.name, want.Strategy, a.strategy)
		}
		liveCfg, err := live.FromSimConfig(simCfg)
		if err != nil {
			t.Fatalf("%s: FromSimConfig: %v", a.name, err)
		}
		got, err := live.Run(liveCfg)
		if err != nil {
			t.Fatalf("%s: live: %v", a.name, err)
		}
		if diffs := simtest.DiffOutcomes(got, want); len(diffs) != 0 {
			t.Errorf("%s: live diverges from sim:\n  %s", a.name, strings.Join(diffs, "\n  "))
		}
	}
}

// attack is one adversarial live scenario: the engine's own adversaries
// crash, omit, delay and rewire under live exactly as they do simulated.
type attack struct {
	name     string
	cfg      sim.Config
	strategy string // the UGF strategy the seed draws, "" for other adversaries
}

// attacks lists the adversarial rows the live bands share: UGF on seeds
// drawing each of its strategies, crash-recovery, omission, and rewire on
// a ring.
func attacks(t testing.TB) []attack {
	t.Helper()
	adv := func(name string) sim.Adversary {
		a, ok := adversary.ByName(name)
		if !ok {
			t.Fatalf("adversary %q not in registry", name)
		}
		return a
	}
	pp := proto(t, "push-pull")
	faults := &sim.FaultPlan{Seed: 0xFA02, Drop: 0.05, Duplicate: 0.05, Corrupt: 0.05}
	return []attack{
		{"ugf/strategy-1", sim.Config{N: 24, F: 7, Protocol: pp, Adversary: adv("ugf"), Seed: 4}, "1"},
		{"ugf/strategy-2.1.0", sim.Config{N: 24, F: 7, Protocol: pp, Adversary: adv("ugf"), Seed: 3}, "2.1.0"},
		{"ugf/strategy-2.1.1", sim.Config{N: 24, F: 7, Protocol: pp, Adversary: adv("ugf"), Seed: 1}, "2.1.1"},
		{"ugf/ears/faults", sim.Config{N: 24, F: 7, Protocol: proto(t, "ears"), Adversary: adv("ugf"), Seed: 3, Faults: faults}, "2.1.0"},
		{"crash-recovery", sim.Config{N: 24, F: 7, Protocol: pp, Adversary: adv("crash-recovery"), Seed: 5, Faults: faults}, ""},
		{"omission", sim.Config{N: 24, F: 7, Protocol: pp, Adversary: adv("omission"), Seed: 5}, ""},
		{"rewire/ring", sim.Config{N: 24, F: 7, Protocol: pp, Adversary: adv("rewire"), Seed: 5,
			Topology: &sim.Topology{Kind: "ring"}, StallWindow: 4096, MaxEvents: 1 << 20}, ""},
	}
}

// TestLiveDeterministic pins that a live run is a pure function of its
// Config under UGF and a fault plan: identical outcomes (up to wall
// times) and identical event streams across repeated runs, despite real
// concurrent receivers underneath.
func TestLiveDeterministic(t *testing.T) {
	ugf, ok := adversary.ByName("ugf")
	if !ok {
		t.Fatal("ugf not in registry")
	}
	run := func() (sim.Outcome, []sim.TraceEvent) {
		var rec sim.Recorder
		o, err := live.Run(live.Config{
			N: 32, F: 9, Protocol: proto(t, "push-pull"), Adversary: ugf, Seed: 77,
			Faults: &sim.FaultPlan{Seed: 9, Drop: 0.08, Duplicate: 0.04, Corrupt: 0.04},
			Trace:  &rec, KeepPerProcess: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return o.StripWall(), rec.Events
	}
	o1, tr1 := run()
	o2, tr2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Errorf("outcomes differ across identical runs:\n first  %+v\n second %+v", o1, o2)
	}
	if len(tr1) != len(tr2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(tr1), len(tr2))
	}
	for i := range tr1 {
		if !reflect.DeepEqual(tr1[i], tr2[i]) {
			t.Fatalf("trace event %d differs:\n first  %+v\n second %+v", i, tr1[i], tr2[i])
		}
	}
}

// TestLiveSeedSensitivity guards against a degenerate determinism: runs
// with different seeds must not be identical.
func TestLiveSeedSensitivity(t *testing.T) {
	outs := make([]sim.Outcome, 2)
	for i, seed := range []uint64{xrand.Derive(100, 0), xrand.Derive(100, 1)} {
		o, err := live.Run(live.Config{N: 32, Protocol: proto(t, "push-pull"), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = o.StripWall()
	}
	if reflect.DeepEqual(outs[0], outs[1]) {
		t.Error("different seeds produced identical outcomes")
	}
}

func TestConfigValidate(t *testing.T) {
	pp := proto(t, "push-pull")
	cases := []struct {
		name string
		cfg  live.Config
	}{
		{"no processes", live.Config{N: 0, Protocol: pp}},
		{"negative F", live.Config{N: 4, F: -1, Protocol: pp}},
		{"F too large", live.Config{N: 4, F: 4, Protocol: pp}},
		{"nil protocol", live.Config{N: 4}},
		{"negative horizon", live.Config{N: 4, Protocol: pp, Horizon: -1}},
		{"negative max events", live.Config{N: 4, Protocol: pp, MaxEvents: -1}},
	}
	for _, tc := range cases {
		if _, err := live.Run(tc.cfg); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestFromSimConfigRejects(t *testing.T) {
	pp := proto(t, "push-pull")
	base := sim.Config{N: 16, Protocol: pp, Seed: 1}
	cases := []struct {
		name string
		mut  func(*sim.Config)
		want string
	}{
		{"sampling", func(c *sim.Config) { c.SampleEvery = 4 }, "sampling"},
		{"interval stats", func(c *sim.Config) { c.StatsEvery = 4 }, "interval-stats"},
		{"wall watchdog", func(c *sim.Config) { c.MaxWall = 1 }, "wall-clock"},
		{"cancel channel", func(c *sim.Config) { c.Cancel = make(chan struct{}) }, "wall-clock"},
		{"workers", func(c *sim.Config) { c.Workers = 4 }, "Workers"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		_, err := live.FromSimConfig(cfg)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// The supported subset projects through field by field.
	cfg := base
	cfg.F = 3
	cfg.Horizon = 500
	cfg.MaxEvents = 10000
	cfg.StallWindow = 64
	cfg.Faults = &sim.FaultPlan{Seed: 2, Drop: 0.1}
	cfg.KeepPerProcess = true
	cfg.Adversary, _ = adversary.ByName("ugf")
	cfg.Topology = &sim.Topology{Kind: "ring"}
	got, err := live.FromSimConfig(cfg)
	if err != nil {
		t.Fatalf("supported config rejected: %v", err)
	}
	want := live.Config{
		N: 16, F: 3, Protocol: pp, Adversary: cfg.Adversary, Seed: 1,
		Horizon: 500, MaxEvents: 10000, StallWindow: 64,
		Faults: cfg.Faults, Topology: cfg.Topology, KeepPerProcess: true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("projection mismatch:\n got  %+v\n want %+v", got, want)
	}
}

// flipTransport is a channel transport that flips one payload bit of its
// nth frame, a frame the engine did not mark corrupt.
type flipTransport struct {
	*live.ChanTransport
	nth    int64
	sends  atomic.Int64
	victim atomic.Int64
}

func (f *flipTransport) Send(from, to int, frame []byte) error {
	if f.sends.Add(1) == f.nth {
		body, err := wire.ParseFrame(frame)
		if err != nil {
			return err
		}
		if err := wire.CorruptBody(body, 0); err != nil {
			return err
		}
		f.victim.Store(int64(to))
	}
	return f.ChanTransport.Send(from, to, frame)
}

// TestLiveChecksumMismatchFailsRun damages a frame in transit that no
// fault verdict corrupted. The receiver's checksum then disagrees with the
// calendar, and the run must fail naming the receiving node instead of
// counting a corrupt drop the simulator never made.
func TestLiveChecksumMismatchFailsRun(t *testing.T) {
	const n = 24
	tr := &flipTransport{ChanTransport: live.NewChanTransport(n), nth: 40}
	_, err := live.Run(live.Config{N: n, Protocol: proto(t, "push-pull"), Seed: 3, Transport: tr})
	want := fmt.Sprintf("node %d received", tr.victim.Load())
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("run error %v, want a checksum error containing %q", err, want)
	}
}
