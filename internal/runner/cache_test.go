package runner

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/spec"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// openCache opens a directory-backed cache and closes it at cleanup.
func openCache(t testing.TB, dir string) *Cache {
	t.Helper()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// cachedRun executes specs over c and counts the runs served from it.
func cachedRun(t testing.TB, c *Cache, sp []Spec, opts Options) (results []Result, cached, computed int) {
	t.Helper()
	var mu sync.Mutex
	opts.Cache = c
	opts.OnRun = func(u RunUpdate) {
		mu.Lock()
		defer mu.Unlock()
		if u.FromCache {
			cached++
		} else {
			computed++
		}
	}
	results, err := ExecuteContext(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return results, cached, computed
}

// panicSink panics on every event once armed is nil or fires: attached
// through Options.Trace it makes a registry-encodable run — one the cache
// can key — panic. A nil armed panics on every attempt (a deterministic
// failure); a shared armed flag panics once (an environmental one).
type panicSink struct{ armed *atomic.Bool }

func (s panicSink) Event(sim.TraceEvent) {
	if s.armed == nil || s.armed.CompareAndSwap(true, false) {
		panic("sink exploded")
	}
}

func panicTrace(armed *atomic.Bool) func(Spec, int) sim.TraceSink {
	return func(Spec, int) sim.TraceSink { return panicSink{armed} }
}

// TestJournalResumeSkipsRecordedRuns: a batch rerun over the reopened
// store replays entirely from it — identical results, zero recomputation.
func TestJournalResumeSkipsRecordedRuns(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	first, cached, computed := cachedRun(t, c, specs(), Options{Workers: 2})
	if cached != 0 || computed != 10 {
		t.Fatalf("first pass: %d cached, %d computed; want 0/10", cached, computed)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := openCache(t, dir)
	if c2.Len() != 10 {
		t.Fatalf("cache loaded %d records, want 10", c2.Len())
	}
	second, cached, computed := cachedRun(t, c2, specs(), Options{Workers: 2})
	if cached != 10 || computed != 0 {
		t.Errorf("resume: %d cached, %d computed; want 10/0", cached, computed)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cache round trip changed the results")
	}
}

// TestJournalToleratesTornTail: a crash mid-write leaves a partial final
// line; loading skips it, and the next record appended after it lands on
// a line of its own.
func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	cachedRun(t, c, specs()[:1], Options{Workers: 1})
	c.Close()
	appendTail(t, filepath.Join(dir, cacheFile), []byte(`{"fp":"dead","spec":{"protocol":"push`))

	c2 := openCache(t, dir)
	if c2.Len() != 6 {
		t.Fatalf("torn tail corrupted the load: %d records, want 6", c2.Len())
	}
	_, cached, computed := cachedRun(t, c2, specs(), Options{Workers: 1})
	if cached != 6 || computed != 4 {
		t.Fatalf("after torn tail: %d cached, %d computed; want 6/4", cached, computed)
	}
	c2.Close()
	if c3 := openCache(t, dir); c3.Len() != 10 {
		t.Errorf("records appended after the torn tail were lost: %d records, want 10", c3.Len())
	}
}

// TestJournalFingerprintGuardsStaleEntries: records stored for other runs
// (here: another base seed, so other per-run seeds) are never served.
func TestJournalFingerprintGuardsStaleEntries(t *testing.T) {
	c := openCache(t, t.TempDir())
	cachedRun(t, c, specs(), Options{Workers: 1})
	changed := specs()
	for i := range changed {
		changed[i].BaseSeed += 1000
	}
	if _, cached, computed := cachedRun(t, c, changed, Options{Workers: 1}); cached != 0 || computed != 10 {
		t.Errorf("stale records served a changed spec: %d cached, %d computed; want 0/10", cached, computed)
	}
}

// TestJournalServesDeterministicFailures: stored RunErrors come back as
// RunErrors — a known-bad run is not re-detonated on every resume.
func TestJournalServesDeterministicFailures(t *testing.T) {
	dir := t.TempDir()
	sp := specs()[:1]
	c := openCache(t, dir)
	first, _, _ := cachedRun(t, c, sp, Options{Workers: 1, Trace: panicTrace(nil)})
	if len(first[0].Errors) != 6 {
		t.Fatalf("first pass reported %d errors, want 6", len(first[0].Errors))
	}
	c.Close()

	second, cached, _ := cachedRun(t, openCache(t, dir), sp, Options{Workers: 1})
	if cached != 6 {
		t.Fatalf("resume served %d runs from the cache, want 6", cached)
	}
	if !reflect.DeepEqual(first[0].Errors, second[0].Errors) || !reflect.DeepEqual(first[0].Outcomes, second[0].Outcomes) {
		t.Error("cache round trip changed the recorded failures")
	}
}

// TestCacheServesFlakyRecord: a stored outcome keeps the environmental
// RunError its retry recovered from, and serving it re-addresses the
// record to the series coordinates asking for it, so the resumed batch
// reports the flaky run exactly as the uninterrupted one did.
func TestCacheServesFlakyRecord(t *testing.T) {
	sp := specs()[:1]
	cfg := sp[0].Base
	cfg.Seed = xrand.Derive(sp[0].BaseSeed, 2)
	canon, err := spec.FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := openCache(t, "")
	stored := &RunError{Spec: canon.Fingerprint(), Panic: "cosmic ray"}
	if err := c.Put(Record{Fingerprint: canon.Fingerprint(), Spec: canon, Outcome: &o, Err: stored}); err != nil {
		t.Fatal(err)
	}
	res, cached, _ := cachedRun(t, c, sp, Options{Workers: 2})
	if cached != 1 {
		t.Fatalf("%d runs served from the cache, want 1", cached)
	}
	want := []*RunError{{Spec: sp[0].Name, Run: 2, Seed: cfg.Seed, Panic: "cosmic ray"}}
	if !reflect.DeepEqual(res[0].Flaky, want) || len(res[0].Errors) != 0 {
		t.Fatalf("Flaky = %+v, Errors = %+v; want %+v and none", res[0].Flaky, res[0].Errors, want)
	}
	if stored.Spec != canon.Fingerprint() {
		t.Error("serving a record rewrote the stored RunError in place")
	}
}

// TestCacheStoresFlakyRun: a run recovered by its same-seed retry is
// stored with its RunError, and a rerun over the cache reports it again.
func TestCacheStoresFlakyRun(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	c := openCache(t, t.TempDir())
	first, _, _ := cachedRun(t, c, specs(), Options{Workers: 1, Trace: panicTrace(&armed)})
	if len(first[0].Flaky) != 1 {
		t.Fatalf("first pass: Flaky = %+v, want one entry", first[0].Flaky)
	}
	second, cached, _ := cachedRun(t, c, specs(), Options{Workers: 1})
	if cached != 10 {
		t.Fatalf("rerun served %d runs from the cache, want 10", cached)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("rerun over the cache changed the results or lost the flaky run")
	}
}

// TestCacheRecordPolicy: cancelled outcomes and environmental failures
// without an outcome are not functions of the fingerprint and are never
// stored; the first record of a fingerprint wins.
func TestCacheRecordPolicy(t *testing.T) {
	c := openCache(t, t.TempDir())
	cancelled := sim.Outcome{N: 4, Cancelled: true, HorizonHit: true}
	done := sim.Outcome{N: 4, Time: 2}
	for _, rec := range []Record{
		{Fingerprint: "00000000000000a1", Outcome: &cancelled},
		{Fingerprint: "00000000000000a2", Err: &RunError{Panic: "lease expired"}},
		{Fingerprint: "00000000000000a3", Outcome: &done},
		{Fingerprint: "00000000000000a3", Err: &RunError{Panic: "late", Deterministic: true}},
	} {
		if err := c.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d records, want 1", c.Len())
	}
	if rec, ok := c.Get("00000000000000a3"); !ok || rec.Err != nil {
		t.Errorf("first record lost: %+v", rec)
	}
	if err := c.Put(Record{Fingerprint: "../etc/passwd", Outcome: &done}); err == nil {
		t.Error("path-like fingerprint accepted")
	}
}

// TestCacheConcurrentPut: concurrent writers never interleave partial
// lines — after reopening, every line of the log parses.
func TestCacheConcurrentPut(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				o := sim.Outcome{N: w, Seed: uint64(i), Time: float64(i) / 3}
				if err := c.Put(Record{Fingerprint: fmt.Sprintf("%016x", w*each+i), Outcome: &o}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, cacheFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Outcome == nil {
			t.Fatalf("line %d does not parse (%v): %q", lines, err, sc.Text())
		}
	}
	if lines != writers*each {
		t.Errorf("log holds %d lines, want %d", lines, writers*each)
	}
	if c2 := openCache(t, dir); c2.Len() != writers*each {
		t.Errorf("reopened cache holds %d records, want %d", c2.Len(), writers*each)
	}
}

// TestCacheWriteErrorReportedAtClose: a log that stops accepting writes
// does not stop the batch; the cache keeps serving from memory and Close
// returns the first write error.
func TestCacheWriteErrorReportedAtClose(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	ro, err := os.Open(filepath.Join(dir, cacheFile))
	if err != nil {
		t.Fatal(err)
	}
	c.f.Close()
	c.f = ro // the log is now read-only: every write fails
	first, _, computed := cachedRun(t, c, specs(), Options{Workers: 2})
	if computed != 10 || len(first) != 2 {
		t.Fatalf("write errors disturbed the batch: %d computed", computed)
	}
	if c.Len() != 10 {
		t.Errorf("memory holds %d records, want 10", c.Len())
	}
	if err := c.Close(); err == nil {
		t.Fatal("Close dropped the write error")
	}
	if err := c.Close(); err == nil {
		t.Error("a second Close forgot the write error")
	}
}

// TestFingerprintSensitivity: a run's store key moves with everything that
// determines its outcome, including parameters Name() omits, and ignores
// outcome-neutral knobs; configurations without a spec encoding have none.
func TestFingerprintSensitivity(t *testing.T) {
	base := sim.Config{N: 10, F: 3, Seed: 1, Protocol: gossip.MustByName("ears"), Adversary: adversary.MustByName("ugf")}
	_, fp, ok := storeKey(base)
	if !ok {
		t.Fatal("registry config has no store key")
	}
	moves := map[string]func(*sim.Config){
		"seed":      func(c *sim.Config) { c.Seed = 2 },
		"n":         func(c *sim.Config) { c.N = 11 },
		"f":         func(c *sim.Config) { c.F = 4 },
		"maxevents": func(c *sim.Config) { c.MaxEvents = 77 },
		"stall":     func(c *sim.Config) { c.StallWindow = 100 },
		"topology":  func(c *sim.Config) { c.Topology = &sim.Topology{Kind: "ring"} },
		"protocol":  func(c *sim.Config) { c.Protocol = gossip.MustByName("push-pull") },
		"adversary": func(c *sim.Config) { c.Adversary = nil },
	}
	for what, mut := range moves {
		cfg := base
		mut(&cfg)
		if _, got, _ := storeKey(cfg); got == fp {
			t.Errorf("store key ignores %s", what)
		}
	}
	neutral := base
	neutral.Workers, neutral.MaxWall, neutral.Trace = 4, time.Second, panicSink{}
	if _, got, _ := storeKey(neutral); got != fp {
		t.Error("store key moved with outcome-neutral knobs")
	}
	custom := base
	custom.Protocol = bombProto{}
	if _, _, ok := storeKey(custom); ok {
		t.Error("custom protocol got a store key")
	}
}
