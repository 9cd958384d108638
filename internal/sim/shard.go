package sim

import (
	"sync/atomic"
	"time"
)

// Sharded commit phase.
//
// The serial commit loop (commitOne) is the engine's bottleneck on dense
// steps: stepping already runs in parallel, but every send still funnels
// through one goroutine for payload interning, refcounting, and calendar
// insertion. The sharded path partitions each due set into contiguous
// process ranges — one shard lane per worker — and fuses Step with the
// commit *effects* on the worker goroutines, leaving only a cheap
// deterministic merge on the main goroutine.
//
// Why the effects shard cleanly:
//
//   - Mailbox consumption, anchors, sent/lastSend, pendingCount: strictly
//     p-local, and each process belongs to exactly one shard.
//   - Payload interning and refcounts: each lane owns a private
//     payloadTable; calendar refs pack (table, slot) into an int64, so a
//     delivery releases into whichever table interned it. No shared slots.
//   - Calendar insertion: lanes buffer surviving sends as run-length
//     encoded (deliverAt, count) runs over a flat message slice; the merge
//     bulk-appends them. A process's drafts share one delivery step
//     (t + d_p), so runs are long.
//   - Crash/omission flags, δ, d: read-only during local steps (the
//     adversary writes only in Observe, before deliveries).
//   - inflightTo[to] crosses shards (any process may be a recipient), so
//     it is the one atomic in the phase.
//   - Stats: each lane accumulates counter deltas; the merge folds them in
//     shard order. Every counter is a sum (order-free), and the two
//     high-water marks are monotone within a commit phase — in-flight only
//     grows during commits, so the end-of-phase value *is* the phase
//     maximum, exactly what the serial loop's per-send check records.
//
// The merge then runs the order-sensitive tail — Committer.Commit,
// sleep/wake, rescheduling — serially in ascending process order
// (finishOne, shared with commitOne). Shard boundaries never change any
// observable ordering: lanes are folded in shard order, which is ascending
// process order of the underlying due set, so sendLog order, calendar
// bucket contents, heap push/pop counts, and RNG consumption (none in the
// commit phase) are bit-identical to serial execution for any partition.
// The workers≡serial and shards properties in internal/simtest pin this.
//
// Traced runs step and commit serially instead: traces interleave send
// events per process in commit order, which the fused phase does not
// reproduce. Outcomes are identical either way; only event emission timing
// differs.

// maxShardLanes caps how many lanes a run ever allocates, whatever
// Config.Workers says. Packed refs reserve 31 bits for the table index,
// but hundreds of lanes already exceed any plausible core count.
const maxShardLanes = 256

// calRun is one run of lane messages sharing a delivery step.
type calRun struct {
	at Step
	n  int32
}

// shardLane is one shard's private commit state: a payload table, the
// buffered calendar appends, and the counter deltas the merge folds. Lanes
// persist for the life of the run — calendar refs keep pointing into a
// lane's table long after the step that created them.
type shardLane struct {
	ptab payloadTable

	msgs []imessage // surviving sends, in (process, draft) order
	runs []calRun   // run-length encoding of msgs by delivery step

	sendLog  []SendRecord
	kinds    []KindCount // lane-local kind counts, folded and zeroed by merge
	lastKind int

	localSteps    int64
	events        int64
	sends         int64
	dropped       int64
	omitted       int64
	droppedLink   int64
	blockedSends  int64
	pendingDelta  int64
	inflightDelta int64
	intSends      int64
	delayHist     [delayHistBuckets]int64

	res  []int32 // per-process scratch: staging index → lane slot
	kres []int32 // staging index → lane kind index
	cnt  []int32 // staging index → surviving copies

	wall time.Duration // accumulated parallel-phase wall time

	_ [64]byte // keep adjacent lanes' hot counters off one cache line
}

// kindIndex is the lane-local twin of engine.kindIndex: kinds register in
// the lane's namespace during the parallel phase and fold into the global
// table at merge.
func (ln *shardLane) kindIndex(k string) int32 {
	if ln.lastKind < len(ln.kinds) && ln.kinds[ln.lastKind].Kind == k {
		return int32(ln.lastKind)
	}
	for i := range ln.kinds {
		if ln.kinds[i].Kind == k {
			ln.lastKind = i
			return int32(i)
		}
	}
	ln.kinds = append(ln.kinds, KindCount{Kind: k})
	ln.lastKind = len(ln.kinds) - 1
	return int32(ln.lastKind)
}

// pushMsg buffers one surviving send, extending the current run when the
// delivery step repeats.
func (ln *shardLane) pushMsg(at Step, m imessage) {
	ln.msgs = append(ln.msgs, m)
	if n := len(ln.runs); n > 0 && ln.runs[n-1].at == at {
		ln.runs[n-1].n++
	} else {
		ln.runs = append(ln.runs, calRun{at: at, n: 1})
	}
}

// ensureLanes grows the lane set to shards entries. Lanes are append-only:
// a ref minted by table i must resolve for the rest of the run, so a later
// step with fewer due processes simply uses a prefix of the lanes.
func (e *engine) ensureLanes(shards int) {
	for len(e.lanes) < shards {
		e.lanes = append(e.lanes, shardLane{})
		ln := &e.lanes[len(e.lanes)-1]
		ln.ptab.init(e.n/shards + 1)
	}
}

// stepCommitSharded runs the local steps of due at step t with the fused
// parallel step+commit phase followed by the serial merge. Callers have
// checked workers > 1, a due set worth splitting, and no trace sink.
func (e *engine) stepCommitSharded(t Step, due []ProcID) {
	shards := e.workers
	if m := len(due) / 2; shards > m {
		shards = m
	}
	if shards > maxShardLanes {
		shards = maxShardLanes
	}
	e.ensureLanes(shards)
	chunk := (len(due) + shards - 1) / shards
	for s := 0; s < shards; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > len(due) {
			hi = len(due)
		}
		if lo >= hi {
			break
		}
		e.wg.Add(1)
		go func(s int, part []ProcID) {
			defer e.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					e.panicMu.Lock()
					e.panics = append(e.panics, r)
					e.panicMu.Unlock()
				}
			}()
			start := time.Now()
			ln := &e.lanes[s]
			table := int64(s + 1)
			for _, p := range part {
				e.stepOne(t, p)
				e.prepareOne(t, p, ln, table)
			}
			ln.wall += time.Since(start)
		}(s, due[lo:hi])
	}
	e.wg.Wait()
	if len(e.panics) > 0 {
		panic(e.panics[0])
	}
	start := time.Now()
	e.mergeLanes(t, due, shards)
	e.mergeWall += time.Since(start)
}

// prepareOne is the parallel-phase half of commitOne: every effect of p's
// local step that is p-local or lane-local. It mirrors commitOne's
// structure line for line; the review invariant is that each serial
// statement is either here (against lane state) or in mergeLanes/finishOne
// (against shared state), never both.
func (e *engine) prepareOne(t Step, p ProcID, ln *shardLane, table int64) {
	e.pt.anchor[p] = t
	ln.pendingDelta += e.pt.pendingCount[p]
	e.pt.pendingCount[p] = 0
	e.pt.clearMail(p)
	ln.events++
	ln.localSteps++

	ob := &e.outboxes[p]
	res, kres, cnt := ln.res[:0], ln.kres[:0], ln.cnt[:0]
	for _, pl := range ob.staged {
		slot, fresh := ln.ptab.intern(pl)
		if fresh {
			kind := "?"
			if pl != nil {
				kind = pl.Kind()
			}
			ln.ptab.memoKind = ln.kindIndex(kind)
		}
		res = append(res, slot)
		kres = append(kres, ln.ptab.memoKind)
		cnt = append(cnt, 0)
	}
	ln.res, ln.kres, ln.cnt = res, kres, cnt
	omitted := e.pt.omitted(p)
	delay := e.pt.delay[p]
	deliverAt := t + delay
	statsOn := e.statsEvery > 0
	for _, d := range ob.drafts {
		to := ProcID(d.to)
		ln.sends++
		e.pt.sent[p]++
		e.pt.lastSend[p] = t
		ln.events++
		ln.kinds[kres[d.pi]].Count++
		if statsOn {
			ln.intSends++
			ln.delayHist[delayBucket(delay)]++
		}
		if e.adv != nil {
			ln.sendLog = append(ln.sendLog, SendRecord{From: p, To: to, SentAt: t, DeliverAt: deliverAt})
		}
		if e.graph != nil && !e.graph.Live(p, to) {
			// Same check, same position as commitOne: the graph is
			// read-only during commits (edges change only in Observe), so
			// lanes consult it without synchronization.
			ln.blockedSends++
			continue
		}
		if e.pt.crashed(to) || omitted {
			if e.pt.crashed(to) {
				ln.dropped++
			} else {
				ln.omitted++
			}
			continue
		}
		if e.linkActive && e.linkBlocked(p, to) {
			ln.droppedLink++
			continue
		}
		fault := FaultNone
		if e.faults != nil {
			// Roll is a pure hash of the same inputs the serial loop
			// feeds it — sent[p] is p-local, so the lane's post-increment
			// value matches serial execution exactly.
			fault = e.faults.Roll(p, to, t, e.pt.sent[p])
			if fault == FaultDrop {
				ln.droppedLink++
				continue
			}
		}
		ref := table<<32 | int64(res[d.pi])
		if fault == FaultCorrupt {
			ref |= refCorruptBit
		}
		ln.pushMsg(deliverAt, imessage{from: int32(p), to: d.to, ref: ref, sentAt: t})
		cnt[d.pi]++
		// The one cross-shard write: any process can be the recipient.
		atomic.AddInt64(&e.pt.inflightTo[to], 1)
		ln.inflightDelta++
		if fault == FaultDuplicate {
			ln.pushMsg(deliverAt, imessage{from: int32(p), to: d.to,
				ref: table<<32 | int64(res[d.pi]) | refDupBit, sentAt: t})
			cnt[d.pi]++
			atomic.AddInt64(&e.pt.inflightTo[to], 1)
			ln.inflightDelta++
		}
	}
	for i, slot := range res {
		if cnt[i] > 0 {
			ln.ptab.addRefs(slot, cnt[i])
		} else {
			ln.ptab.sweep(slot)
		}
	}
	ob.clear()
}

// mergeLanes folds the lanes into shared engine state in shard order —
// ascending process order — then runs the order-sensitive per-process tail
// serially. This is the only code that touches shared state between the
// parallel phase and the next event, so its fold order fully determines
// (and preserves) the serial engine's observable behavior.
func (e *engine) mergeLanes(t Step, due []ProcID, shards int) {
	statsOn := e.statsEvery > 0
	for s := 0; s < shards; s++ {
		ln := &e.lanes[s]
		e.st.LocalSteps += ln.localSteps
		e.eventCount += ln.events
		e.msgTotal += ln.sends
		e.st.DroppedCrashed += ln.dropped
		e.st.OmittedSends += ln.omitted
		e.st.DroppedLink += ln.droppedLink
		e.st.BlockedSends += ln.blockedSends
		e.totalPending -= ln.pendingDelta
		e.inflight += ln.inflightDelta
		e.inflightToCorrect += ln.inflightDelta
		if statsOn {
			e.interval.Sends += ln.intSends
			for i, v := range ln.delayHist {
				if v != 0 {
					e.interval.DelayHist[i] += v
					ln.delayHist[i] = 0
				}
			}
		}
		for i := range ln.kinds {
			if c := ln.kinds[i].Count; c != 0 {
				e.kinds[e.kindIndex(ln.kinds[i].Kind)].Count += c
				ln.kinds[i].Count = 0
			}
		}
		if len(ln.sendLog) > 0 {
			e.sendLog = append(e.sendLog, ln.sendLog...)
			ln.sendLog = ln.sendLog[:0]
		}
		base := 0
		for _, run := range ln.runs {
			if e.cal.addRun(run.at, ln.msgs[base:base+int(run.n)]) {
				e.sched.scheduleDelivery(run.at)
			}
			base += int(run.n)
		}
		ln.msgs = ln.msgs[:0]
		ln.runs = ln.runs[:0]
		ln.localSteps, ln.events, ln.sends = 0, 0, 0
		ln.dropped, ln.omitted, ln.droppedLink, ln.blockedSends = 0, 0, 0, 0
		ln.pendingDelta, ln.inflightDelta, ln.intSends = 0, 0, 0
	}
	// In-flight only grows during a commit phase, so the folded end value
	// is the phase maximum — identical to the serial per-send check.
	if e.inflight > e.st.MaxInFlight {
		e.st.MaxInFlight = e.inflight
	}
	for _, p := range due {
		e.finishOne(t, p)
	}
}

// shardWall summarizes the run's sharded-phase timing for WallStats:
// per-lane commit wall, merge wall, and the max/mean imbalance ratio.
func (e *engine) shardWall() (commit []time.Duration, merge time.Duration, imbalance float64) {
	if len(e.lanes) == 0 {
		return nil, 0, 0
	}
	commit = make([]time.Duration, len(e.lanes))
	var sum, max time.Duration
	for i := range e.lanes {
		w := e.lanes[i].wall
		commit[i] = w
		sum += w
		if w > max {
			max = w
		}
	}
	if sum > 0 {
		mean := float64(sum) / float64(len(commit))
		imbalance = float64(max) / mean
	}
	return commit, e.mergeWall, imbalance
}
