package main

import (
	"errors"
	"strings"
	"testing"

	"github.com/ugf-sim/ugf/internal/cliflags"
)

// TestLiveMatchesSimOutput runs the same scenario through -live and the
// simulator: the printed outcome lines must be identical, the CLI-level
// restatement of the oracle equality the live test band proves. Each
// adversary row is named by the label its outcome line carries, so the
// UGF rows pin that their seeds draw each of its strategies.
func TestLiveMatchesSimOutput(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"faults", []string{"-protocol", "push-pull", "-n", "24", "-seed", "5",
			"-faults", "drop=0.1,dup=0.05,seed=7"}},
		{"ugf[1]", []string{"-protocol", "push-pull", "-adversary", "ugf", "-n", "24", "-seed", "4"}},
		{"ugf[2.1.0]", []string{"-protocol", "push-pull", "-adversary", "ugf", "-n", "24", "-seed", "3"}},
		{"ugf[2.1.1]", []string{"-protocol", "push-pull", "-adversary", "ugf", "-n", "24", "-seed", "1"}},
		{"crash-recovery", []string{"-protocol", "push-pull", "-adversary", "crash-recovery", "-n", "24", "-seed", "5",
			"-faults", "drop=0.1,corrupt=0.05,seed=7"}},
		{"rewire", []string{"-protocol", "push-pull", "-adversary", "rewire", "-topology", "ring", "-n", "24", "-seed", "5",
			"-stall-window", "4096", "-max-events", "1000000"}},
	} {
		want, err := runCLI(t, tc.args...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.name != "faults" && !strings.Contains(want, "vs "+tc.name) {
			t.Fatalf("%s: the row's run is not labelled %q:\n%s", tc.name, tc.name, want)
		}
		got, err := runCLI(t, append([]string{"-live"}, tc.args...)...)
		if err != nil {
			t.Fatalf("%s: -live: %v", tc.name, err)
		}
		if got != want {
			t.Errorf("%s: live output differs from sim:\n live %s sim  %s", tc.name, got, want)
		}
	}
}

// TestLiveSpec drives live mode from a canonical spec, the same way the
// sweep service would describe the run.
func TestLiveSpec(t *testing.T) {
	out, err := runCLI(t, "-live",
		"-spec", `{"protocol":"ears","n":20,"f":6,"seed":9}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ears vs none") || !strings.Contains(out, "N=20") {
		t.Errorf("unexpected live spec output:\n%s", out)
	}
}

// TestLiveMultiRun checks serial live repetitions share the runner's
// per-run seed derivation: the summary is present and, run for run, the
// outcome lines match a simulated multi-run of the same scenario.
func TestLiveMultiRun(t *testing.T) {
	args := []string{"-protocol", "push-pull", "-n", "20", "-seed", "4", "-runs", "3"}
	want, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runCLI(t, append([]string{"-live"}, args...)...)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("live multi-run output differs from sim:\n--- live\n%s--- sim\n%s", got, want)
	}
	if !strings.Contains(got, "time T(O)") {
		t.Errorf("summary table missing:\n%s", got)
	}
}

// TestLiveRejectsSimOnlyFlags pins the structured conflict errors: flags
// that configure simulator machinery must be rejected with -live, not
// silently ignored.
func TestLiveRejectsSimOnlyFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		flag string
	}{
		{"shards", []string{"-live", "-shards", "2", "-n", "10"}, "shards"},
		{"workers", []string{"-live", "-runs", "4", "-workers", "2", "-n", "10"}, "workers"},
	} {
		_, err := runCLI(t, tc.args...)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		var conflict *cliflags.ConflictError
		if !errors.As(err, &conflict) {
			t.Errorf("%s: error %T %q is not a ConflictError", tc.name, err, err)
			continue
		}
		if conflict.Flag != tc.flag || conflict.Mode != "-live" {
			t.Errorf("%s: conflict names flag %q mode %q", tc.name, conflict.Flag, conflict.Mode)
		}
	}

	// Simulator-only run features are rejected too, with plain errors
	// naming the feature.
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"curve", []string{"-live", "-curve", "-n", "10"}, "simulator-only"},
	} {
		_, err := runCLI(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestLiveDefaultShardsAllowed checks the conflict detection only fires
// on flags the command line actually set: default values are not
// conflicts.
func TestLiveDefaultShardsAllowed(t *testing.T) {
	if _, err := runCLI(t, "-live", "-protocol", "push-pull", "-n", "12", "-q"); err != nil {
		t.Fatalf("plain -live run rejected: %v", err)
	}
}
