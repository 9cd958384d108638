package runner

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/spec"
)

// Record is one stored run: the canonical spec and its outcome, its
// deterministic failure, or an outcome together with the environmental
// failure its same-seed retry recovered from. All of it is a pure
// function of the fingerprint, so a record is immutable once written.
type Record struct {
	Fingerprint string       `json:"fp"`
	Spec        spec.Spec    `json:"spec"`
	Outcome     *sim.Outcome `json:"outcome,omitempty"`
	Err         *RunError    `json:"error,omitempty"`
}

// storable is the one record policy: a record is stored when it holds an
// outcome that ran to its natural end (optionally with the environmental
// RunError it recovered from) or a deterministic failure. Cancelled
// outcomes stop at a wall-clock-dependent point, and an environmental
// failure without an outcome may well succeed next time; neither is a
// function of the fingerprint.
func storable(rec Record) bool {
	if rec.Outcome != nil {
		return !rec.Outcome.Cancelled
	}
	return rec.Err != nil && rec.Err.Deterministic
}

// cacheFile is the name of the cache's log inside its directory.
const cacheFile = "results.jsonl"

// Cache is the content-addressed run store shared by the local pool and
// the sweep coordinator: one immutable Record per canonical spec
// fingerprint. A run is a pure function of its canonical spec (which
// includes the seed), so a record never needs invalidation and the store
// is write-once per key, shared safely across series, sweeps and
// processes.
//
// Records live in memory and, when the cache is opened with a directory,
// in the append-only JSONL log <dir>/results.jsonl: one O_APPEND write per
// Put, so concurrent writers never interleave partial lines. The log is
// loaded at open; a torn final line (crash mid-write) is skipped and its
// run simply recomputes. Writes are not synced: a tail lost to a power
// cut costs only recomputation. The first write error is kept: the cache
// degrades to memory only, the sweep goes on, and Close reports the error.
type Cache struct {
	mu   sync.Mutex
	path string   // "" = memory only
	f    *os.File // nil once closed
	mem  map[string]Record
	err  error // first write error
}

// OpenCache opens a cache. dir, when non-empty, is created if needed and
// holds the log that survives restarts; "" keeps records in memory only.
// The caller must Close a directory-backed cache.
func OpenCache(dir string) (*Cache, error) {
	c := &Cache{mem: map[string]Record{}}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache: %w", err)
	}
	c.path = filepath.Join(dir, cacheFile)
	f, err := os.OpenFile(c.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: cache: %w", err)
	}
	if err := c.load(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: cache: %w", err)
	}
	c.f = f
	return c, nil
}

// load reads every complete record of the log. Lines that do not decode
// to a valid, storable record are skipped; the first record of a
// fingerprint wins. A torn final line gets its missing newline, so the
// next append starts a line of its own.
func (c *Cache) load(f *os.File) error {
	r := bufio.NewReader(f)
	torn := false
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			torn = line[len(line)-1] != '\n'
			var rec Record
			if json.Unmarshal(line, &rec) == nil && validFingerprint(rec.Fingerprint) && storable(rec) {
				if _, dup := c.mem[rec.Fingerprint]; !dup {
					c.mem[rec.Fingerprint] = rec
				}
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
	}
	if torn {
		_, err := f.Write([]byte{'\n'})
		return err
	}
	return nil
}

// Get returns the record stored under fp.
func (c *Cache) Get(fp string) (Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.mem[fp]
	return rec, ok
}

// Put stores a record under its fingerprint. Records the policy excludes
// (cancelled outcomes, environmental failures without an outcome) and
// fingerprints already present are ignored. A write failure is returned,
// kept for Close, and ends disk writes; the record stays in memory.
func (c *Cache) Put(rec Record) error {
	if !validFingerprint(rec.Fingerprint) {
		return fmt.Errorf("runner: cache: invalid fingerprint %q", rec.Fingerprint)
	}
	if !storable(rec) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.mem[rec.Fingerprint]; ok {
		return nil
	}
	c.mem[rec.Fingerprint] = rec
	if c.path == "" || c.err != nil {
		return c.err
	}
	if c.f == nil {
		c.err = fmt.Errorf("runner: cache: put after Close")
		return c.err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = c.f.Write(append(line, '\n'))
	}
	if err != nil {
		c.err = fmt.Errorf("runner: cache: %w", err)
	}
	return c.err
}

// Len returns the number of records held.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Close closes the log and returns the first write error, if any. It is
// idempotent.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f != nil {
		if err := c.f.Close(); err != nil && c.err == nil {
			c.err = fmt.Errorf("runner: cache: %w", err)
		}
		c.f = nil
	}
	return c.err
}

// validFingerprint gates keys to the 16-hex-digit form spec fingerprints
// take, so a corrupt or foreign log line can never pose as a record.
func validFingerprint(fp string) bool {
	if len(fp) != 16 {
		return false
	}
	return strings.IndexFunc(fp, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f')
	}) < 0
}

// storeKey returns the canonical spec and fingerprint a run's record is
// stored under. ok is false for configurations without a spec encoding
// (a custom protocol or adversary): such runs execute uncached.
func storeKey(cfg sim.Config) (sp spec.Spec, fp string, ok bool) {
	sp, err := spec.FromConfig(cfg)
	if err == nil {
		sp, err = sp.Canonicalize()
	}
	if err != nil {
		return spec.Spec{}, "", false
	}
	return sp, sp.Fingerprint(), true
}
