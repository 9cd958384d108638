package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/sim/oracle"
	"github.com/ugf-sim/ugf/internal/spec"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// The paper-sweep grid: Fig. 3's protocols, no adversary and UGF, three
// sizes, F = 0.3N, run through the runner with two workers.
var (
	paperProtocols   = []string{"push-pull", "ears", "sears"}
	paperAdversaries = []string{"none", "ugf"}
	paperSizes       = []int{100, 200, 300}
)

const (
	paperWorkers = 2
	// paperRunsPerCell is the number of derived-seed runs of each cell per
	// pass.
	paperRunsPerCell = 3
)

// ugfStrata are the strategies UGF draws at k = l = 1, each with
// probability 1/3. A UGF cell's runs in a pass are one seed of each, so
// every pass has the paper's strategy mix exactly: strategy 2.1.1 runs up
// to nine times longer than the others, and leaving the mix to chance
// would make a pass's cost swing with the seed.
var ugfStrata = []string{"1", "2.1.0", "2.1.1"}

type paperCell struct {
	name string
	base sim.Config
	ugf  bool
}

// paperCells builds the grid's base configurations through the spec
// layer, N-major so the largest runs come last, as a user lists them.
func paperCells() ([]paperCell, error) {
	var cells []paperCell
	for _, n := range paperSizes {
		for _, proto := range paperProtocols {
			for _, adv := range paperAdversaries {
				sp := spec.Spec{Protocol: proto, Adversary: adv, N: n, F: int(0.3 * float64(n))}
				cfg, err := sp.Config()
				if err != nil {
					return nil, fmt.Errorf("cell %s/%s/%d: %w", proto, adv, n, err)
				}
				cells = append(cells, paperCell{name: fmt.Sprintf("%s/%s/%d", proto, adv, n), base: cfg, ugf: adv == "ugf"})
			}
		}
	}
	return cells, nil
}

// paperPass builds the runner specs of one pass from its seed: each
// no-adversary cell as one spec of paperRunsPerCell derived-seed runs,
// each UGF cell as one single-run spec per strategy stratum.
func paperPass(cells []paperCell, seed uint64) ([]runner.Spec, error) {
	var specs []runner.Spec
	for ci, c := range cells {
		cellSeed := xrand.Derive(seed, uint64(ci))
		if !c.ugf {
			specs = append(specs, runner.Spec{Name: c.name, Base: c.base, Runs: paperRunsPerCell, BaseSeed: cellSeed})
			continue
		}
		bases, err := stratify(c.base, cellSeed)
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", c.name, err)
		}
		for i, label := range ugfStrata {
			specs = append(specs, runner.Spec{Name: c.name + "/" + label, Base: c.base, Runs: 1, BaseSeed: bases[i]})
		}
	}
	return specs, nil
}

// stratifyProbes is how many candidate seeds stratify probes at least.
// Stopping at the first seed of every stratum would make the set-up cost
// depend on the seed's luck (5.5 probes per cell on average, but often
// twice that); twelve find all three strata in 98% of cells, so the
// set-up time barely varies with the seed.
const stratifyProbes = 12

// stratify returns, for each label of ugfStrata, the first base seed
// derived from cellSeed whose run 0 makes UGF draw that strategy. The
// draw happens in the adversary's Init, so a run cut off after one event
// reveals it.
func stratify(base sim.Config, cellSeed uint64) ([]uint64, error) {
	bases := make([]uint64, len(ugfStrata))
	found := 0
	have := make([]bool, len(ugfStrata))
	for j := uint64(0); found < len(ugfStrata) || j < stratifyProbes; j++ {
		if j == 1000 {
			return nil, fmt.Errorf("no seed among 1000 draws strategies %v", ugfStrata)
		}
		b := xrand.Derive(cellSeed, j)
		probe := base
		probe.Seed = xrand.Derive(b, 0)
		probe.MaxEvents = 1
		o, err := sim.Run(probe)
		if err != nil {
			return nil, err
		}
		for i, label := range ugfStrata {
			if o.Strategy == label && !have[i] {
				bases[i], have[i] = b, true
				found++
			}
		}
	}
	return bases, nil
}

// paperRun is one executed run of a pass, kept for the output checks.
type paperRun struct {
	name string
	cfg  sim.Config
	out  sim.Outcome
	err  *runner.RunError
}

// flatten pairs every run of a pass's results with its configuration.
func flatten(results []runner.Result) []paperRun {
	var runs []paperRun
	for _, res := range results {
		errs := map[int]*runner.RunError{}
		for _, e := range res.Errors {
			errs[e.Run] = e
		}
		for i, o := range res.Outcomes {
			cfg := res.Spec.Base
			cfg.Seed = xrand.Derive(res.Spec.BaseSeed, uint64(i))
			runs = append(runs, paperRun{name: fmt.Sprintf("%s#%d", res.Spec.Name, i), cfg: cfg, out: o, err: errs[i]})
		}
	}
	return runs
}

// checkPaperRun checks one run: no runner failure, quiescence with rumor
// gathering, and agreement with the reference engine.
func checkPaperRun(r paperRun, ref func(sim.Config) (sim.Outcome, error)) string {
	switch {
	case r.err != nil:
		return fmt.Sprintf("%s: %v", r.name, r.err)
	case r.out.HorizonHit:
		return fmt.Sprintf("%s: cut off before quiescence", r.name)
	case !r.out.Gathered:
		return fmt.Sprintf("%s: rumor gathering incomplete", r.name)
	}
	if d := diffAgainst(r.out, r.cfg, ref); d != "" {
		return r.name + ": " + d
	}
	return ""
}

// paperSetup builds the grid and the first pass's specs.
func paperSetup(b *bench) (func(), error) {
	_, _, err := paperInputs(b.seed)
	return func() {}, err
}

func paperInputs(seed uint64) ([]paperCell, []runner.Spec, error) {
	cells, err := paperCells()
	if err != nil {
		return nil, nil, err
	}
	specs, err := paperPass(cells, xrand.Derive(seed, 0))
	return cells, specs, err
}

func runPaperSweep(b *bench) error {
	cells, specs, err := paperInputs(b.seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var (
		runs       []paperRun
		wall       time.Duration // untraced passes
		tracedWall time.Duration
		events     int64
		layer      simLayer
		busy       []float64
		tails      []float64
		failedRuns int
	)
	before := readGoStats()
	passes := 0
	for ; passes == 0 || (wall+tracedWall).Seconds() < b.seconds; passes++ {
		pass := passes
		if pass > 0 {
			if specs, err = paperPass(cells, xrand.Derive(b.seed, uint64(pass))); err != nil {
				return err
			}
		}
		t0 := time.Now()
		results, err := runner.ExecuteContext(ctx, specs, runner.Options{Workers: paperWorkers})
		wall += time.Since(t0)
		if err != nil {
			return fmt.Errorf("pass %d: %w", pass, err)
		}
		passRuns := flatten(results)
		runs = append(runs, passRuns...)
		for _, r := range passRuns {
			events += r.out.Stats.Events
		}
		if !b.traced() {
			continue
		}
		traced, d, tail, totals, err := tracedPaperPass(ctx, b.rec, specs, pass)
		tracedWall += d
		if err != nil {
			return fmt.Errorf("traced pass %d: %w", pass, err)
		}
		layer.calls.add(totals)
		var computed time.Duration
		for i, tr := range flatten(traced) {
			b.res.record(1, nil)
			if msg := twinMismatch(tr.name, passRuns[i].out, tr.out); msg != "" {
				b.res.fail(1, "%s", msg)
			}
			layer.addOutcome(tr.out)
			w := tr.out.Stats.Wall
			computed += w.Init + w.Run + w.Finalize
		}
		for _, res := range traced {
			failedRuns += res.Failed()
		}
		busy = append(busy, computed.Seconds()/(d.Seconds()*paperWorkers))
		tails = append(tails, tail)
	}
	after := readGoStats()
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	failures := parallelCheck(len(runs), func(i int) string { return checkPaperRun(runs[i], oracle.Run) })
	b.res.record(len(runs), failures)

	if b.traced() {
		layer.set(&b.res)
		b.res.set("runner.busy_ratio", median(busy))
		b.res.set("runner.tail_ms", median(tails))
		b.res.set("runner.failed", float64(failedRuns))
		b.res.set("trace.overhead_ratio", tracedWall.Seconds()/wall.Seconds()-1)
		setGoDelta(&b.res, before, after, len(runs)+layer.runs)
		return nil
	}
	b.res.set("runs_per_s", float64(len(runs))/wall.Seconds())
	b.res.set("sim_events_per_s", float64(events)/wall.Seconds())
	b.res.set("peak_rss_mb", rss)
	b.res.note("passes", float64(passes), "count", fmt.Sprintf("%d runs each", len(runs)/passes))
	noteGoDelta(&b.res, before, after, len(runs))
	return nil
}

// countRuns is the number of runs of specs.
func countRuns(specs []runner.Spec) int {
	n := 0
	for _, s := range specs {
		n += s.Runs
	}
	return n
}

// tracedPaperPass runs a pass again with every protocol and adversary
// wrapped and the runner's OnRun observed. It returns the results, the
// pass wall time, and the runner's end-of-batch tail: the time from the
// second-to-last run finishing (one worker goes idle) to the last.
func tracedPaperPass(ctx context.Context, rec *recorder, specs []runner.Spec, pass int) ([]runner.Result, time.Duration, float64, callTotals, error) {
	op := int64(pass + 1)
	wrapped := make([]runner.Spec, len(specs))
	for i, s := range specs {
		s.Base = rec.traceConfig(s.Base)
		wrapped[i] = s
	}
	var (
		mu   sync.Mutex
		done []int64
	)
	start := rec.now()
	t0 := time.Now()
	results, err := runner.ExecuteContext(ctx, wrapped, runner.Options{
		Workers: paperWorkers,
		OnRun: func(runner.RunUpdate) {
			t := rec.now()
			mu.Lock()
			done = append(done, t)
			mu.Unlock()
		},
	})
	d := time.Since(t0)
	end := rec.now()
	parent := rec.add(span{Op: op, Name: "runner.execute", Start: start, End: end})
	for _, t := range done {
		rec.add(span{Parent: parent, Op: op, Name: "runner.on_run", Start: t, End: t})
	}
	if err != nil {
		return nil, d, 0, callTotals{}, err
	}
	totals := rec.fold(parent, op)
	if want := countRuns(specs); totals.runs != want {
		return nil, d, 0, totals, fmt.Errorf("traced %d protocol instances for %d runs", totals.runs, want)
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	tail := 0.0
	if len(done) >= 2 {
		tail = float64(done[len(done)-1]-done[len(done)-2]) / 1e6
	}
	return results, d, tail, totals, nil
}
