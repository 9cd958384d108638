package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/live"
	"github.com/ugf-sim/ugf/internal/service"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/spec"
	"github.com/ugf-sim/ugf/internal/xrand"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {200, 95, true}, {999, 95, true},
		{1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// With 100 samples the p90 tail leaves exactly 10 beyond it.
	p, _ := tailPercentile(len(xs))
	beyond := 0
	for _, x := range xs {
		if x > percentile(xs, p) {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("p%v of 100 samples leaves %d beyond, want 10", p, beyond)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{30, 50}, {10, 20}}, 30},
		{"overlapping parallel calls count once", []interval{{10, 40}, {20, 50}, {45, 60}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 80},
		{"touching", []interval{{0, 10}, {10, 20}}, 20},
		{"empty intervals ignored", []interval{{10, 10}, {30, 20}}, 0},
	} {
		if got := covered(tc.ivs); got != tc.want {
			t.Errorf("%s: covered = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	// A sharded run: two processes stepped on two goroutines at once, so
	// their Step intervals overlap and count once.
	rec := newRecorder()
	rec.runs = []*runAcc{{parallel: true, procs: []procStats{
		{step: leaf{calls: 2, ns: 4e6}, stepIv: []interval{{0, 2e6}, {5e6, 7e6}}, knows: leaf{calls: 1, ns: 1e6}},
		{step: leaf{calls: 1, ns: 3e6}, stepIv: []interval{{1e6, 4e6}}},
	}}}
	rec.advs = []*advAcc{{observe: leaf{calls: 3, ns: 2e6}}}
	var s simLayer
	s.calls = rec.fold(0, 1)
	if s.calls.stepCovered != 6e6 {
		t.Fatalf("step union = %d, want 6ms (4ms from [0,4) plus 2ms from [5,7))", s.calls.stepCovered)
	}
	s.addOutcome(sim.Outcome{Stats: sim.Stats{Events: 100, Wall: sim.WallStats{Init: 1e6, Run: 12e6, Finalize: 2e6}}})
	var r result
	s.set(&r)
	// 15ms of run time minus 6ms of steps, 1ms of Knows and 2ms of Observe.
	if got := r.values["sim.self_ms"]; got != 6 {
		t.Errorf("sim.self_ms = %v, want 6", got)
	}
	if got := r.values["sim.self_ns_per_event"]; got != 6e4 {
		t.Errorf("sim.self_ns_per_event = %v, want 60000", got)
	}
	if got := r.values["gossip.step_ms"]; got != 7 {
		t.Errorf("gossip.step_ms = %v, want 7 (summed call time, overlap included)", got)
	}
}

func TestFailRatioCounting(t *testing.T) {
	var r result
	r.record(10, nil)
	r.record(5, []string{"a", "b"})
	r.attempted += 300 // a sweep whose HTTP call failed
	r.fail(300, "sweep: connection refused")
	if r.attempted != 315 || r.failed != 302 {
		t.Fatalf("attempted %d failed %d, want 315 and 302", r.attempted, r.failed)
	}
	out, err := r.finish(true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || exitCode(r) != 1 {
		t.Errorf("a result with failures must be incorrect and exit 1 (correct %v, exit %d)", out.Correct, exitCode(r))
	}
	var clean result
	clean.record(3, nil)
	for _, d := range endToEnd {
		clean.set(d.name, 1)
	}
	out, err = clean.finish(false)
	if err != nil || !out.Correct || exitCode(clean) != 0 {
		t.Errorf("clean result: correct %v, exit %d, err %v", out.Correct, exitCode(clean), err)
	}
	var empty result
	if exitCode(empty) != 1 {
		t.Error("a result with no attempted operations must exit 1")
	}
	var missing result
	missing.record(1, nil)
	if _, err := missing.finish(false); err == nil {
		t.Error("finish accepted a result with unmeasured end-to-end metrics")
	}
}

// wrongRef is a deliberately wrong reference: the true outcome with one
// message more.
func wrongRef(cfg sim.Config) (sim.Outcome, error) {
	o, err := sim.Run(cfg)
	o.Messages++
	return o, err
}

func smallConfig(t *testing.T, seed uint64) sim.Config {
	t.Helper()
	cfg, err := spec.Spec{Protocol: "ears", Adversary: "ugf", N: 30, F: 9, Seed: seed}.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestWrongReferenceFailsTheRun(t *testing.T) {
	cfg := smallConfig(t, 7)
	got, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := paperRun{name: "ears/ugf/30", cfg: cfg, out: got}
	if msg := checkPaperRun(run, sim.Run); msg != "" {
		t.Fatalf("correct reference reported %q", msg)
	}
	var r result
	r.record(1, []string{checkPaperRun(run, wrongRef)})
	if r.failed != 1 || exitCode(r) != 1 {
		t.Errorf("a wrong reference must fail the run: failed %d, exit %d", r.failed, exitCode(r))
	}

	lcfg := live.Config{N: 30, F: 9, Protocol: cfg.Protocol, Seed: 7} // channel transport
	lout, err := live.Run(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	lr := liveRun{c: liveCase{name: "ears", cfg: lcfg}, out: lout}
	if msg := checkLiveRun(lr, 0, sim.Run); msg != "" {
		t.Errorf("live check with the correct reference: %s", msg)
	}
	if msg := checkLiveRun(lr, 0, wrongRef); msg == "" {
		t.Error("live check passed a wrong reference")
	}

	sp, err := spec.FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := []sweepOp{{cold: true, total: 1, resp: service.SubmitResponse{Total: 1},
		events: []service.ResultEvent{{Fingerprint: sp.Fingerprint(), Spec: sp, Outcome: &got}}}}
	var good, bad result
	checkSweeps(&good, ops, sim.Run)
	checkSweeps(&bad, ops, wrongRef)
	if good.failed != 0 || good.attempted != 1 || bad.failed != 1 {
		t.Errorf("sweep checks: correct reference failed %d of %d, wrong reference failed %d", good.failed, good.attempted, bad.failed)
	}
}

func TestTracedRunsMatchUntraced(t *testing.T) {
	rec := newRecorder()
	for _, workers := range []int{1, 2} {
		cfg := smallConfig(t, 11)
		cfg.Workers = workers
		plain, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := sim.Run(rec.traceConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if msg := twinMismatch("ears/ugf", plain, traced); msg != "" {
			t.Fatalf("workers %d: %s", workers, msg)
		}
		tot := rec.fold(0, 1)
		if tot.runs != 1 || tot.step.calls != traced.Stats.LocalSteps || tot.observe.calls == 0 || tot.commit.calls == 0 {
			t.Errorf("workers %d: folded %d runs, %d steps (want %d), %d observes, %d commits",
				workers, tot.runs, tot.step.calls, traced.Stats.LocalSteps, tot.observe.calls, tot.commit.calls)
		}
		if tot.covered() <= 0 || tot.stepCovered > tot.step.ns {
			t.Errorf("workers %d: covered %d, step union %d > step sum %d", workers, tot.covered(), tot.stepCovered, tot.step.ns)
		}
	}
	// Recovering protocols carry Forget through the wrapper.
	cfg, err := spec.Spec{Protocol: "round-robin", Adversary: "crash-recovery", N: 20, F: 6, Seed: 3}.Config()
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := sim.Run(cfg)
	traced, _ := sim.Run(rec.traceConfig(cfg))
	if msg := twinMismatch("round-robin/crash-recovery", plain, traced); msg != "" {
		t.Error(msg)
	}
}

func TestStratifyDrawsEachStrategy(t *testing.T) {
	base := smallConfig(t, 0)
	bases, err := stratify(base, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bases {
		cfg := base
		cfg.Seed = xrand.Derive(b, 0) // what the runner derives for run 0
		o, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if o.Strategy != ugfStrata[i] {
			t.Errorf("stratum %d drew strategy %q, want %q", i, o.Strategy, ugfStrata[i])
		}
	}
	cells, err := paperCells()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := paperPass(cells, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := countRuns(specs), len(cells)*paperRunsPerCell; got != want {
		t.Errorf("a pass has %d runs, want %d", got, want)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, names, units []string, defs []metricDef) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range bj.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", names, units, endToEnd)
	names, units = nil, nil
	for _, m := range bj.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", names, units, perLayer)
	if !strings.Contains(strings.Join(bj.Command, " "), "perfbench/run.sh") {
		t.Errorf("command %v does not run perfbench/run.sh", bj.Command)
	}
}

// Registries the workloads name must resolve.
func TestWorkloadNamesResolve(t *testing.T) {
	for _, p := range append(append(append([]string{}, paperProtocols...), serviceProtocols...), liveProtocols...) {
		if _, ok := gossip.ByName(p); !ok {
			t.Errorf("protocol %q not registered", p)
		}
	}
	for _, a := range append(append([]string{}, paperAdversaries...), serviceAdversaries...) {
		if _, ok := adversary.ByName(a); !ok {
			t.Errorf("adversary %q not registered", a)
		}
	}
}

func TestTracedServiceRig(t *testing.T) {
	rec := newRecorder()
	st := &serviceTrace{rec: rec, completedAt: map[string]int64{}}
	rig, err := startRig(st)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	req := serviceGrid(9)
	req.Runs = 2
	ops := []sweepOp{rig.sweep(req, true, rec), rig.sweep(req, false, rec)}
	var r result
	setServiceLayer(&r, rig, st, ops)
	checkSweeps(&r, ops, sim.Run)
	runs := len(req.Specs) * req.Runs
	if r.attempted != 2*runs || r.failed != 0 {
		t.Fatalf("attempted %d failed %d (%v), want %d and 0", r.attempted, r.failed, r.failures, 2*runs)
	}
	if got := r.values["service.cache_hit_ratio"]; got != 0.5 {
		t.Errorf("cache hit ratio %v, want 0.5", got)
	}
	if st.exec.calls != int64(runs) || r.values["service.exec_ms"] <= 0 {
		t.Errorf("traced %d leases (%v ms each), want %d", st.exec.calls, r.values["service.exec_ms"], runs)
	}
}

func TestTracedTransportCountsFrames(t *testing.T) {
	cases, err := liveCases(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cases[1].cfg
	cfg.N, cfg.F = 24, 7
	plain, err := live.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tt := &tracedTransport{Transport: live.NewChanTransport(cfg.N), rec: newRecorder(), links: map[[2]int]bool{}}
	cfg.Transport = tt
	traced, err := live.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if msg := twinMismatch("ears/24", plain, traced); msg != "" {
		t.Fatal(msg)
	}
	if tt.send.calls == 0 || int64(len(tt.links)) > tt.send.calls || tt.bytes <= tt.send.calls {
		t.Errorf("%d frames, %d links, %d bytes", tt.send.calls, len(tt.links), tt.bytes)
	}
}
