package runner

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ugf-sim/ugf/internal/sim"
)

// tornTails is the catalogue of corrupt log endings the loader must shrug
// off: half-written lines from a crash mid-append, binary garbage, and
// well-formed JSON of the wrong shape. It doubles as the seed corpus of
// FuzzJournalTornTail.
func tornTails() [][]byte {
	return [][]byte{
		[]byte(`{"fp":"00000000000000aa","spec":{"protocol":"p"},"outc`), // torn mid-key
		[]byte(`{"fp":"00000000000000aa","spec":{},"outcome":{"N":5`),    // torn mid-nested-object
		[]byte(`{"fp":"dead","spec":{},"outcome":{"N":5}}`),              // complete object, bad key, no newline
		[]byte("{"),                           // minimal torn line
		[]byte("\x00\x01\x02garbage\xff\xfe"), // binary garbage
		[]byte("null\n"),                      // valid JSON, decodes to an empty record
		[]byte("\"just a string\"\n"),         // valid JSON, wrong type
		[]byte("[1,2,3]\n"),                   // valid JSON, wrong shape
		[]byte(`{"fp":"00000000000000aa","spec":{}}` + "\n"), // record with neither outcome nor error
		[]byte("\n\n\n"), // stray blank lines
		[]byte(`{"fp":"0000000000000001","outc` + "\n" + `{"fp":"0000000000000002`), // two torn lines
		{}, // empty tail
	}
}

// The fingerprints the torn-tail tests store their records under.
const (
	tornOutcomeFP = "0123456789abcd00"
	tornErrorFP   = "0123456789abcd01"
	tornAfterFP   = "0123456789abcd02"
)

// writeTornLog creates a cache log holding one outcome and one
// deterministic failure, and returns its directory plus the records.
func writeTornLog(t testing.TB) (dir string, o, e Record) {
	t.Helper()
	dir = t.TempDir()
	out := sim.Outcome{Protocol: "p", Adversary: "none", N: 4, F: 1, Seed: 9, TEnd: 17,
		Quiescence: 21, Messages: 33, Time: 1.75, Gathered: true}
	o = Record{Fingerprint: tornOutcomeFP, Outcome: &out}
	e = Record{Fingerprint: tornErrorFP, Err: &RunError{Spec: "torn", Run: 1, Seed: 4, Panic: "boom", Deterministic: true}}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{o, e} {
		if err := c.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, o, e
}

func appendTail(t testing.TB, path string, tail []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkTornResume appends tail to the log in dir and asserts that
// reopening still serves both stored records unchanged, and that a record
// stored after the tail survives the next reopen.
func checkTornResume(t testing.TB, dir string, tail []byte, o, e Record) {
	t.Helper()
	appendTail(t, filepath.Join(dir, cacheFile), tail)
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("load failed on tail %q: %v", tail, err)
	}
	for _, want := range []Record{o, e} {
		if got, ok := c.Get(want.Fingerprint); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("tail %q: record %s changed or lost: got %+v (ok=%v)", tail, want.Fingerprint, got, ok)
		}
	}
	if err := c.Put(Record{Fingerprint: tornAfterFP, Err: &RunError{Panic: "after", Deterministic: true}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Get(tornAfterFP); !ok {
		t.Errorf("tail %q: the record appended after it was lost", tail)
	}
}

// TestJournalTornTailTable drives every catalogued corruption through the
// load path. TestJournalToleratesTornTail covers the end-to-end
// ExecuteContext flow for one tail; this table pins the loader itself
// against the whole corpus that seeds the fuzz target.
func TestJournalTornTailTable(t *testing.T) {
	for _, tail := range tornTails() {
		dir, o, e := writeTornLog(t)
		checkTornResume(t, dir, tail, o, e)
	}
}
