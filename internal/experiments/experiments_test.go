package experiments

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/sim"
)

func quickCfg() Config {
	return Config{Fidelity: Quick, Workers: 2}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3a", "fig3b", "fig3c", "fig3d", "fig3e",
		"example1", "lemma45", "lemma1", "tradeoff",
		"fsweep", "strategies", "oblivious", "adaptation", "omission",
		"tuning", "degradation", "topology",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registered %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("fig3a")
	if !ok || e.ID != "fig3a" {
		t.Fatal("fig3a not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestParseFidelity(t *testing.T) {
	for _, s := range []string{"quick", "medium", "full"} {
		f, err := ParseFidelity(s)
		if err != nil {
			t.Fatal(err)
		}
		if f.String() != s {
			t.Errorf("round trip %q -> %q", s, f.String())
		}
	}
	if _, err := ParseFidelity("bogus"); err == nil {
		t.Fatal("bogus fidelity accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.seed() != 2022 {
		t.Errorf("default seed = %d", c.seed())
	}
	if c.runs() != 8 {
		t.Errorf("quick runs = %d", c.runs())
	}
	if len(c.grid()) != 4 {
		t.Errorf("quick grid = %v", c.grid())
	}
	full := Config{Fidelity: Full}
	if full.runs() != 50 {
		t.Errorf("full runs = %d", full.runs())
	}
	if got := full.grid(); len(got) != 10 || got[0] != 10 || got[9] != 500 {
		t.Errorf("full grid = %v", got)
	}
	med := Config{Fidelity: Medium}
	if med.runs() != 15 {
		t.Errorf("medium runs = %d", med.runs())
	}
}

// TestAllExperimentsRunQuick executes every registered experiment at
// quick fidelity and validates report structure. Claim verdicts are
// asserted only where the quick grid is large enough to be reliable.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes tens of seconds")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(quickCfg())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if rep.ID != e.ID {
				t.Errorf("report id %q, want %q", rep.ID, e.ID)
			}
			if rep.Paper == "" {
				t.Error("report missing paper reference")
			}
			if len(rep.Tables) == 0 {
				t.Error("report has no tables")
			}
			for _, tbl := range rep.Tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("table %q empty", tbl.Title)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Columns) {
						t.Errorf("table %q: row width %d vs %d columns", tbl.Title, len(row), len(tbl.Columns))
					}
				}
			}
			if len(rep.Notes) == 0 {
				t.Error("report has no notes")
			}
		})
	}
}

func TestLemma45BoundsHoldQuick(t *testing.T) {
	rep, err := mustExp(t, "lemma45").Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !hasNote(rep, "all tail bounds hold empirically: REPRODUCED") {
		t.Errorf("lemma bounds not reproduced; notes: %v", rep.Notes)
	}
}

func TestExample1ShapeQuick(t *testing.T) {
	rep, err := mustExp(t, "example1").Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !hasNote(rep, "M quadratic and T linear: REPRODUCED") {
		t.Errorf("example 1 shape not reproduced; notes: %v", rep.Notes)
	}
}

// TestDegradationQuick checks the fault-model sweep actually exercises
// the fault machinery: the aggregated engine counters must show link
// drops (the lossy-link specs) and recoveries (the crash-recovery
// specs), and the sweep must degrade gracefully — the claim its own
// notes assert.
func TestDegradationQuick(t *testing.T) {
	rep, err := mustExp(t, "degradation").Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine.DroppedLink == 0 {
		t.Error("no link drops recorded across the lossy specs")
	}
	if rep.Engine.Recoveries == 0 {
		t.Error("no recoveries recorded across the crash-recovery specs")
	}
	if !hasNote(rep, "stalls detected): REPRODUCED") {
		t.Errorf("graceful-degradation claim not reproduced; notes: %v", rep.Notes)
	}
}

// onceSink panics on the first event it sees while armed, then disarms.
type onceSink struct{ armed *atomic.Bool }

func (s onceSink) Event(sim.TraceEvent) {
	if s.armed.CompareAndSwap(true, false) {
		panic("transient fault")
	}
}

// TestCachedFlakyRunKeepsRetryNote: a run recovered by its same-seed retry
// is stored with its RunError, so rerunning the experiment over the cache
// recomputes nothing and reports the retry exactly as the first sweep did.
func TestCachedFlakyRunKeepsRetryNote(t *testing.T) {
	cache, err := runner.OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	armed.Store(true)
	cfg := quickCfg()
	cfg.Cache = cache
	cfg.Trace = func(runner.Spec, int) sim.TraceSink { return onceSink{&armed} }
	first, err := mustExp(t, "example1").Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hasNote(first, "recovered by a same-seed retry") {
		t.Fatalf("no retry note in the first sweep; notes: %v", first.Notes)
	}

	var computed atomic.Int64
	cfg = quickCfg()
	cfg.Cache = cache
	cfg.OnRun = func(u runner.RunUpdate) {
		if !u.FromCache {
			computed.Add(1)
		}
	}
	second, err := mustExp(t, "example1").Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := computed.Load(); n != 0 {
		t.Errorf("rerun over the cache computed %d runs, want 0", n)
	}
	if !reflect.DeepEqual(first.Notes, second.Notes) {
		t.Errorf("notes changed when served from the cache:\n%v\n%v", first.Notes, second.Notes)
	}
}

func mustExp(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	return e
}

func hasNote(rep *Report, substr string) bool {
	for _, n := range rep.Notes {
		if strings.Contains(n, substr) {
			return true
		}
	}
	return false
}
