package runner

import "testing"

// FuzzJournalTornTail appends an arbitrary byte tail to a cache log
// holding two valid records and asserts that reopening neither fails nor
// loses or alters them — the log's crash-tolerance contract says a torn
// final write costs at most the line being written, never the records
// before it or the ones appended after it. The seed corpus is the
// torn-tail table of cache_torn_test.go plus the checked-in testdata/fuzz
// files.
func FuzzJournalTornTail(f *testing.F) {
	for _, tail := range tornTails() {
		f.Add(tail)
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		if len(tail) > 1<<20 {
			// A single megaline is already far past any real torn write,
			// and giant inputs only slow the fuzzer down.
			t.Skip("tail too large")
		}
		dir, o, e := writeTornLog(t)
		checkTornResume(t, dir, tail, o, e)
	})
}
