package main

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/sim/oracle"
	"github.com/ugf-sim/ugf/internal/simtest"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// The engine-scale runs.
const (
	pullServeN     = 500_000
	pullServePulls = 4
	pullServeShard = 2 // Config.Workers: the sharded commit phase
	earsN          = 500
	ringN          = 100_000
	ringLaps       = 10
)

// engineCase is one of engine-scale's three runs, with the check of its
// outcome against a reference other than the timed path.
type engineCase struct {
	name  string
	cfg   sim.Config
	check func(got sim.Outcome, cfg sim.Config) string
}

// engineCases builds the three runs of one pass from its seed. heavy keeps
// the 500k-process reference runs one at a time, bounding the checks'
// memory to one extra simulation of that size. The reference engine
// handles PullServe at this size (six active steps) in a few seconds; the
// ring's million active steps would take it hours, so the ring is checked
// against its closed form only.
func engineCases(seed uint64, heavy *sync.Mutex) ([]engineCase, error) {
	ring, err := sim.ParseTopology("ring")
	if err != nil {
		return nil, err
	}
	ears, ok := gossip.ByName("ears")
	if !ok {
		return nil, fmt.Errorf("protocol ears not registered")
	}
	s211, ok := adversary.ByName("strategy-2.1.1")
	if !ok {
		return nil, fmt.Errorf("adversary strategy-2.1.1 not registered")
	}
	return []engineCase{
		{
			name: "pullserve-500k",
			cfg:  sim.Config{N: pullServeN, Protocol: simtest.PullServe{Pulls: pullServePulls}, Seed: xrand.Derive(seed, 0), Workers: pullServeShard},
			check: func(got sim.Outcome, cfg sim.Config) string {
				sends := int64(2 * pullServeN * pullServePulls)
				if got.HorizonHit || got.Stats.Sends != sends || got.Stats.Deliveries != sends {
					return fmt.Sprintf("sends %d deliveries %d cutoff %v, want %d, %d, false", got.Stats.Sends, got.Stats.Deliveries, got.HorizonHit, sends, sends)
				}
				heavy.Lock()
				defer heavy.Unlock()
				return diffAgainst(got, cfg, oracle.Run)
			},
		},
		{
			name: "ears-vs-2.1.1",
			cfg:  sim.Config{N: earsN, F: int(0.3 * earsN), Protocol: ears, Adversary: s211, Seed: xrand.Derive(seed, 1)},
			check: func(got sim.Outcome, cfg sim.Config) string {
				if got.HorizonHit || !got.Gathered {
					return fmt.Sprintf("cutoff %v gathered %v, want quiescence with gathering", got.HorizonHit, got.Gathered)
				}
				return diffAgainst(got, cfg, oracle.Run)
			},
		},
		{
			name: "ring-100k",
			cfg:  sim.Config{N: ringN, Protocol: simtest.Ring{Laps: ringLaps}, Topology: ring, Seed: xrand.Derive(seed, 2)},
			check: func(got sim.Outcome, _ sim.Config) string {
				// One token hop per active step: N·Laps sends, each
				// delivered along a live ring edge, plus every process's
				// first local step.
				hops := int64(ringN * ringLaps)
				st := got.Stats
				if got.HorizonHit || st.Sends != hops || st.Deliveries != hops || st.BlockedSends != 0 ||
					st.Events != 2*hops+ringN || st.ActiveSteps != hops+1 {
					return fmt.Sprintf("sends %d deliveries %d blocked %d events %d active steps %d cutoff %v, want %d, %d, 0, %d, %d, false",
						st.Sends, st.Deliveries, st.BlockedSends, st.Events, st.ActiveSteps, got.HorizonHit, hops, hops, 2*hops+ringN, hops+1)
				}
				return ""
			},
		},
	}, nil
}

type engineRun struct {
	c   engineCase
	out sim.Outcome
}

// engineSetup builds the first pass's configurations.
func engineSetup(b *bench) (func(), error) {
	_, err := engineCases(xrand.Derive(b.seed, 0), &sync.Mutex{})
	return func() {}, err
}

func runEngineScale(b *bench) error {
	var heavy sync.Mutex
	cases, err := engineCases(xrand.Derive(b.seed, 0), &heavy)
	if err != nil {
		return err
	}
	var (
		runs       []engineRun
		wall       time.Duration
		tracedWall time.Duration
		layer      simLayer
		// Per case, each pass's run time and events: the end-to-end
		// figures use a median pass, so one run slowed by a noisy
		// neighbour does not move them.
		durs   = make([][]float64, len(cases))
		events = make([][]float64, len(cases))
	)
	before := readGoStats()
	passes := 0
	for ; passes == 0 || (wall+tracedWall).Seconds() < b.seconds; passes++ {
		if passes > 0 {
			if cases, err = engineCases(xrand.Derive(b.seed, uint64(passes)), &heavy); err != nil {
				return err
			}
		}
		for ci, c := range cases {
			// Each run starts from an empty heap, as in a process of its
			// own: otherwise the previous run's garbage decides when the
			// collector runs, and with it the peak resident set.
			debug.FreeOSMemory()
			t0 := time.Now()
			o, err := sim.Run(c.cfg)
			d := time.Since(t0)
			wall += d
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			runs = append(runs, engineRun{c: c, out: o})
			durs[ci] = append(durs[ci], d.Seconds())
			events[ci] = append(events[ci], float64(o.Stats.Events))
			if !b.traced() {
				continue
			}
			op := int64(len(runs))
			start := b.rec.now()
			t0 = time.Now()
			tr, err := sim.Run(b.rec.traceConfig(c.cfg))
			tracedWall += time.Since(t0)
			if err != nil {
				return fmt.Errorf("traced %s: %w", c.name, err)
			}
			parent := b.rec.add(span{Op: op, Name: "engine." + c.name, Start: start, End: b.rec.now()})
			layer.calls.add(b.rec.fold(parent, op))
			layer.addOutcome(tr)
			b.res.record(1, nil)
			if msg := twinMismatch(c.name, o, tr); msg != "" {
				b.res.fail(1, "%s", msg)
			}
		}
	}
	after := readGoStats()
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	failures := parallelCheck(len(runs), func(i int) string {
		if msg := runs[i].c.check(runs[i].out, runs[i].c.cfg); msg != "" {
			return runs[i].c.name + ": " + msg
		}
		return ""
	})
	b.res.record(len(runs), failures)

	if b.traced() {
		layer.set(&b.res)
		b.res.set("trace.overhead_ratio", tracedWall.Seconds()/wall.Seconds()-1)
		setGoDelta(&b.res, before, after, len(runs)+layer.runs)
		return nil
	}
	var passTime, passEvents float64
	for ci := range cases {
		passTime += median(durs[ci])
		passEvents += median(events[ci])
		b.res.note(cases[ci].name+"_ms", median(durs[ci])*1e3, "ms", fmt.Sprintf("median of %d runs", len(durs[ci])))
	}
	b.res.set("runs_per_s", float64(len(cases))/passTime)
	b.res.set("sim_events_per_s", passEvents/passTime)
	b.res.set("peak_rss_mb", rss)
	noteGoDelta(&b.res, before, after, len(runs))
	return nil
}
