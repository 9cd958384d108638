package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ugf-sim/ugf/internal/service"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/spec"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// The service-sweep grid: cheap N = 40 runs, so the service's own work
// dominates. Each cold sweep expands 6 specs into 300 derived-seed runs.
var (
	serviceProtocols   = []string{"push-pull", "ears"}
	serviceAdversaries = []string{"none", "ugf", "oblivious"}
)

const (
	serviceN       = 40
	serviceRuns    = 50 // SweepRequest.Runs
	serviceWorkers = 2  // RunWorker loops, Concurrency 1 each
	// streamTimeout bounds one sweep's result stream; a sweep that takes
	// longer fails.
	streamTimeout = 60 * time.Second
)

// serviceGrid is the cold sweep request for one seed.
func serviceGrid(seed uint64) service.SweepRequest {
	var specs []spec.Spec
	for _, proto := range serviceProtocols {
		for _, adv := range serviceAdversaries {
			specs = append(specs, spec.Spec{
				Protocol: proto, Adversary: adv, N: serviceN, F: int(0.3 * serviceN),
				Seed: xrand.Derive(seed, uint64(len(specs))),
			})
		}
	}
	return service.SweepRequest{Name: fmt.Sprintf("grid-%d", seed), Specs: specs, Runs: serviceRuns}
}

// serviceRig is an in-process coordinator served over loopback HTTP, with
// worker loops leasing over their own HTTP clients and one client
// submitting sweeps. Its result cache is the coordinator's in-memory one:
// with an on-disk cache each result costs a file create and rename, and
// on a shared disk that cost swung from nothing to half of a cold sweep's
// time within half an hour, so the workload would measure the disk's
// other users rather than the service.
type serviceRig struct {
	srv     *http.Server
	client  *service.Client
	cancel  context.CancelFunc
	workers sync.WaitGroup
	serving sync.WaitGroup
}

// startRig starts a rig; st, when non-nil, wraps each worker's backend.
func startRig(st *serviceTrace) (*serviceRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	url := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	r := &serviceRig{
		srv:    &http.Server{Handler: service.NewServer(service.NewCoordinator(service.Options{}))},
		client: service.NewClient(url),
		cancel: cancel,
	}
	r.serving.Add(1)
	go func() {
		defer r.serving.Done()
		r.srv.Serve(ln) // returns http.ErrServerClosed once close shuts it
	}()
	for w := 0; w < serviceWorkers; w++ {
		var be service.Backend = service.NewClient(url)
		if st != nil {
			be = &tracedBackend{inner: be, t: st}
		}
		r.workers.Add(1)
		go func() {
			defer r.workers.Done()
			service.RunWorker(ctx, be, service.WorkerOptions{Concurrency: 1})
		}()
	}
	return r, nil
}

// close stops the workers, then the server.
func (r *serviceRig) close() {
	r.cancel()
	r.workers.Wait()
	r.srv.Close()
	r.serving.Wait()
}

// sweepOp is one submitted sweep and what its stream delivered.
type sweepOp struct {
	cold   bool
	total  int // runs requested
	resp   service.SubmitResponse
	events []service.ResultEvent
	recvAt []int64 // recorder clock per event, traced rigs only
	submit time.Duration
	wall   time.Duration // submit to last streamed result
	err    error
}

// sweep submits req and streams its results to the end.
func (r *serviceRig) sweep(req service.SweepRequest, cold bool, rec *recorder) sweepOp {
	op := sweepOp{cold: cold, total: len(req.Specs) * req.Runs}
	t0 := time.Now()
	op.resp, op.err = r.client.Submit(req)
	op.submit = time.Since(t0)
	if op.err != nil {
		op.wall = op.submit
		return op
	}
	ctx, cancel := context.WithTimeout(context.Background(), streamTimeout)
	defer cancel()
	op.err = r.client.Stream(ctx, op.resp.ID, 0, func(ev service.ResultEvent) error {
		op.events = append(op.events, ev)
		if rec != nil {
			op.recvAt = append(op.recvAt, rec.now())
		}
		return nil
	})
	op.wall = time.Since(t0)
	return op
}

// serviceTrace collects the worker-side calls of a traced rig.
type serviceTrace struct {
	rec *recorder
	op  atomic.Int64 // current sweep, for span op ids

	mu                      sync.Mutex
	acquire, complete, exec leaf
	idle                    int
	completedAt             map[string]int64 // by fingerprint
}

// tracedBackend wraps a worker's service.Backend. Each worker runs with
// Concurrency 1, so one wrapper holds at most one lease at a time and its
// lease fields are touched by one goroutine only.
type tracedBackend struct {
	inner   service.Backend
	t       *serviceTrace
	leaseAt int64
	fp      string
}

func (b *tracedBackend) Acquire(ctx context.Context) (*service.Lease, error) {
	rec := b.t.rec
	t0 := rec.now()
	lease, err := b.inner.Acquire(ctx)
	t1 := rec.now()
	b.t.mu.Lock()
	b.t.acquire.add(t0, t1)
	if lease == nil && err == nil {
		b.t.idle++
	}
	b.t.mu.Unlock()
	rec.add(span{Op: b.t.op.Load(), Name: "service.acquire", Start: t0, End: t1})
	if lease != nil {
		b.leaseAt, b.fp = t1, lease.Fingerprint
	}
	return lease, err
}

func (b *tracedBackend) Complete(leaseID string, res service.CompleteRequest) error {
	rec := b.t.rec
	t0 := rec.now()
	err := b.inner.Complete(leaseID, res)
	t1 := rec.now()
	b.t.mu.Lock()
	b.t.exec.add(b.leaseAt, t0)
	b.t.complete.add(t0, t1)
	b.t.completedAt[b.fp] = t0
	b.t.mu.Unlock()
	op := b.t.op.Load()
	rec.add(span{Op: op, Name: "service.exec", Start: b.leaseAt, End: t0})
	rec.add(span{Op: op, Name: "service.complete", Start: t0, End: t1})
	return err
}

// checkSweeps checks every streamed result: each cold result against a
// local sim.Run of its spec by spec.OutcomeHash, each resubmitted result
// against the verified hash of its fingerprint. ref builds the reference
// outcome; it is a parameter so tests can hand in a wrong one.
func checkSweeps(res *result, ops []sweepOp, ref func(sim.Config) (sim.Outcome, error)) {
	type coldEvent struct {
		op int
		ev service.ResultEvent
	}
	var cold []coldEvent
	for i, op := range ops {
		if op.err != nil {
			res.attempted += op.total
			res.fail(op.total, "sweep %d: %v", i, op.err)
			continue
		}
		if len(op.events) != op.total || op.resp.Total != op.total {
			res.attempted += op.total
			res.fail(op.total, "sweep %d: %d results streamed, %d accepted, %d submitted", i, len(op.events), op.resp.Total, op.total)
			continue
		}
		if op.cold {
			for _, ev := range op.events {
				cold = append(cold, coldEvent{i, ev})
			}
		}
	}
	hashes := make([]string, len(cold))
	failures := parallelCheck(len(cold), func(i int) string {
		ev := cold[i].ev
		if ev.Failed() || ev.Outcome == nil {
			return fmt.Sprintf("sweep %d run %d failed: %v", cold[i].op, ev.Index, ev.Err)
		}
		if ev.Outcome.HorizonHit {
			return fmt.Sprintf("sweep %d run %d: cut off before quiescence", cold[i].op, ev.Index)
		}
		cfg, err := ev.Spec.Config()
		if err != nil {
			return fmt.Sprintf("sweep %d run %d: %v", cold[i].op, ev.Index, err)
		}
		want, err := ref(cfg)
		if err != nil {
			return fmt.Sprintf("sweep %d run %d: reference: %v", cold[i].op, ev.Index, err)
		}
		h := spec.OutcomeHash(want)
		if spec.OutcomeHash(*ev.Outcome) != h {
			return fmt.Sprintf("sweep %d run %d (%s): result differs from local sim.Run", cold[i].op, ev.Index, ev.Fingerprint)
		}
		hashes[i] = h
		return ""
	})
	res.record(len(cold), failures)
	verified := map[string]string{}
	for i, c := range cold {
		if hashes[i] != "" {
			verified[c.ev.Fingerprint] = hashes[i]
		}
	}
	for i, op := range ops {
		if op.cold || op.err != nil || len(op.events) != op.total {
			continue
		}
		var msgs []string
		for _, ev := range op.events {
			switch h, ok := verified[ev.Fingerprint]; {
			case !ev.Cached:
				msgs = append(msgs, fmt.Sprintf("sweep %d run %d: resubmitted result was recomputed", i, ev.Index))
			case !ok:
				msgs = append(msgs, fmt.Sprintf("sweep %d run %d: resubmitted result has no verified cold twin", i, ev.Index))
			case ev.Outcome == nil || spec.OutcomeHash(*ev.Outcome) != h:
				msgs = append(msgs, fmt.Sprintf("sweep %d run %d: cached result differs from its verified cold result", i, ev.Index))
			}
		}
		res.record(len(op.events), msgs)
	}
}

// serviceSetup starts a rig: cache directory, coordinator, HTTP server
// and workers.
func serviceSetup(b *bench) (func(), error) {
	rig, err := startRig(nil)
	if err != nil {
		return nil, err
	}
	return rig.close, nil
}

func runServiceSweep(b *bench) error {
	rig, err := startRig(nil)
	if err != nil {
		return err
	}
	defer rig.close()
	var (
		trig *serviceRig
		st   *serviceTrace
	)
	if b.traced() {
		st = &serviceTrace{rec: b.rec, completedAt: map[string]int64{}}
		if trig, err = startRig(st); err != nil {
			return err
		}
		defer trig.close()
	}

	pick := xrand.New(xrand.Derive(b.seed, 1<<32))
	var (
		grids       []service.SweepRequest
		ops, tops   []sweepOp
		wall, twall time.Duration
	)
	before := readGoStats()
	for i := 0; i == 0 || (wall+twall).Seconds() < b.seconds; i++ {
		grids = append(grids, serviceGrid(xrand.Derive(b.seed, uint64(i))))
		// A cold sweep of fresh seeds, then a resubmission of a grid this
		// client already computed.
		for _, step := range []struct {
			req  service.SweepRequest
			cold bool
		}{{grids[i], true}, {grids[pick.Intn(len(grids))], false}} {
			// A collection between sweeps, outside the timed region: the
			// retained results grow through the run, and without it the
			// peak resident set depends on where in the collector's cycle
			// the run happens to end.
			runtime.GC()
			op := rig.sweep(step.req, step.cold, nil)
			ops = append(ops, op)
			wall += op.wall
			if trig == nil {
				continue
			}
			st.op.Store(int64(len(tops) + 1))
			start := b.rec.now()
			top := trig.sweep(step.req, step.cold, b.rec)
			b.rec.add(span{Op: int64(len(tops) + 1), Name: "service.sweep", Start: start, End: b.rec.now()})
			tops = append(tops, top)
			twall += top.wall
		}
	}
	after := readGoStats()
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if b.traced() {
		// Before the checks, while the workers' idle polls still count
		// only the measurement.
		setServiceLayer(&b.res, trig, st, tops)
	}
	checkSweeps(&b.res, append(append([]sweepOp(nil), ops...), tops...), sim.Run)

	if b.traced() {
		b.res.set("trace.overhead_ratio", twall.Seconds()/wall.Seconds()-1)
		setGoDelta(&b.res, before, after, delivered(ops)+delivered(tops))
		return nil
	}
	var events int64
	var coldWalls, hitWalls []float64
	for _, op := range ops {
		if op.cold {
			coldWalls = append(coldWalls, op.wall.Seconds())
		} else {
			hitWalls = append(hitWalls, op.wall.Seconds())
		}
		for _, ev := range op.events {
			if ev.Outcome != nil && !ev.Cached {
				events += ev.Outcome.Stats.Events
			}
		}
	}
	b.res.set("runs_per_s", float64(delivered(ops))/wall.Seconds())
	b.res.set("sim_events_per_s", float64(events)/wall.Seconds())
	b.res.set("peak_rss_mb", rss)
	noteLatency(&b.res, "latency", coldWalls)
	noteLatency(&b.res, "hit_latency", hitWalls)
	noteGoDelta(&b.res, before, after, delivered(ops))
	return nil
}

// delivered counts the results streamed back by ops.
func delivered(ops []sweepOp) int {
	n := 0
	for _, op := range ops {
		n += len(op.events)
	}
	return n
}

// setServiceLayer sets the service.* metrics from a traced rig's sweeps.
func setServiceLayer(r *result, rig *serviceRig, st *serviceTrace, ops []sweepOp) {
	var (
		coldSubmit, hitSubmit []float64
		coldWall              time.Duration
		hits, total, dedup    int
		lags                  []float64
	)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		hits += op.resp.CacheHits
		total += op.resp.Total
		dedup += op.resp.DedupHits
		if !op.cold {
			hitSubmit = append(hitSubmit, op.submit.Seconds()*1e3)
			continue
		}
		coldSubmit = append(coldSubmit, op.submit.Seconds()*1e3)
		coldWall += op.wall
		for i, ev := range op.events {
			if done, ok := st.completedAt[ev.Fingerprint]; ok && !ev.Cached {
				lags = append(lags, float64(op.recvAt[i]-done)/1e6)
			}
		}
	}
	mean := func(l leaf) float64 {
		if l.calls == 0 {
			return 0
		}
		return float64(l.ns) / float64(l.calls) / 1e6
	}
	r.set("service.submit_ms", meanOf(coldSubmit))
	r.set("service.hit_submit_ms", meanOf(hitSubmit))
	r.set("service.acquire_ms", mean(st.acquire))
	r.set("service.complete_ms", mean(st.complete))
	r.set("service.exec_ms", mean(st.exec))
	if coldWall > 0 {
		r.set("service.overhead_ratio", 1-float64(st.exec.ns)/(float64(coldWall.Nanoseconds())*serviceWorkers))
	}
	r.set("service.stream_lag_ms", meanOf(lags))
	if total > 0 {
		r.set("service.cache_hit_ratio", float64(hits)/float64(total))
	}
	if len(ops) > 0 {
		r.set("service.dedup_hits", float64(dedup)/float64(len(ops)))
	}
	r.set("service.idle_polls", float64(st.idle))
	ct, err := rig.client.Counters()
	if err != nil {
		r.record(1, []string{fmt.Sprintf("read service counters: %v", err)})
	}
	r.set("service.requeued", float64(ct.Requeued))
}
