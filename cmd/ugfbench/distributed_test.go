package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/ugf-sim/ugf/internal/cliflags"
	"github.com/ugf-sim/ugf/internal/service"
)

// TestCoordWorkerMatchesLocal is the end-to-end distributed check through
// the CLI surface: an experiment executed with -coord against a
// coordinator drained by a -worker invocation produces artifacts
// byte-identical to the local pool's, and rerunning it recomputes nothing
// — every run is a cache hit.
func TestCoordWorkerMatchesLocal(t *testing.T) {
	coord := service.NewCoordinator(service.Options{})
	srv := httptest.NewServer(service.NewServer(coord))
	defer srv.Close()

	// A worker exactly as the CLI runs one, shut down via ctx like SIGINT.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := runWorker(ctx, srv.URL, 2); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	defer wg.Wait()
	defer cancel()

	localDir, coordDir := t.TempDir(), t.TempDir()
	if _, err := runCLI(t, "-exp", "example1", "-out", localDir, "-progress=false"); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "-exp", "example1", "-out", coordDir, "-coord", srv.URL, "-progress=false"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"example1.md", "example1_0.csv"} {
		local, err := os.ReadFile(filepath.Join(localDir, name))
		if err != nil {
			t.Fatal(err)
		}
		remote, err := os.ReadFile(filepath.Join(coordDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(local) != string(remote) {
			t.Errorf("%s differs between local and -coord execution", name)
		}
	}
	before := coord.Counters()
	if before.Computed == 0 {
		t.Fatal("coordinator computed nothing; -coord did not route through it")
	}

	// Resubmission of the same experiment recomputes nothing.
	if _, err := runCLI(t, "-exp", "example1", "-coord", srv.URL, "-progress=false"); err != nil {
		t.Fatal(err)
	}
	after := coord.Counters()
	if after.Computed != before.Computed {
		t.Errorf("rerun recomputed %d runs, want 0", after.Computed-before.Computed)
	}
	if after.CacheHits == before.CacheHits {
		t.Error("rerun did not hit the cache")
	}
}

// TestServiceFlagValidation: the service-mode flags reject nonsensical
// combinations with actionable messages.
func TestServiceFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-serve"}, "-debugaddr"},
		{[]string{"-serve", "-debugaddr", ":0", "-worker", "http://x"}, "mutually exclusive"},
		{[]string{"-worker", "http://x", "-coord", "http://x"}, "mutually exclusive"},
		{[]string{"-cachedir", "x", "-coord", "http://x"}, "coordinator owns the result store"},
		{[]string{"-cachedir", "x", "-worker", "http://x"}, "workers hold no result store"},
	}
	for _, tc := range cases {
		_, err := runCLI(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %v, want mention of %q", tc.args, err, tc.want)
		}
		var conflict *cliflags.ConflictError
		if strings.Contains(tc.args[0], "cachedir") && !errors.As(err, &conflict) {
			t.Errorf("args %v: error %T is not a ConflictError", tc.args, err)
		}
	}
}
