package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/live"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// The live-tcp runs: push-pull and EARS alternating, 128 nodes, 5% link
// loss, each over a fresh loopback TCP transport.
var liveProtocols = []string{"push-pull", "ears"}

const (
	liveN      = 128
	liveFaults = "drop=0.05"
)

// liveCase is one live run's configuration, without its transport.
type liveCase struct {
	name string
	cfg  live.Config
}

// liveCases builds the run configurations for one seed.
func liveCases(seed uint64) ([]liveCase, error) {
	faults, err := sim.ParseFaultPlan(liveFaults)
	if err != nil {
		return nil, err
	}
	var cases []liveCase
	for i, name := range liveProtocols {
		proto, ok := gossip.ByName(name)
		if !ok {
			return nil, fmt.Errorf("protocol %s not registered", name)
		}
		cases = append(cases, liveCase{name: name, cfg: live.Config{
			N: liveN, F: liveN * 3 / 10, Protocol: proto, Faults: faults,
			Seed: xrand.Derive(seed, uint64(i)),
		}})
	}
	return cases, nil
}

// simConfig is the simulator configuration a live run must reproduce.
func simConfig(c live.Config) sim.Config {
	return sim.Config{N: c.N, F: c.F, Protocol: c.Protocol, Seed: c.Seed, Faults: c.Faults}
}

// runLive executes one live run over a fresh TCP transport, wrapped by
// wrap when non-nil. Listen, dial and send errors come back as errors.
func runLive(cfg live.Config, wrap func(live.Transport) live.Transport) (sim.Outcome, error) {
	tr, err := live.NewTCPTransport(cfg.N)
	if err != nil {
		return sim.Outcome{}, err
	}
	cfg.Transport = tr
	if wrap != nil {
		cfg.Transport = wrap(tr)
	}
	return live.Run(cfg)
}

// tracedTransport wraps a live.Transport, recording every Send: frames,
// bytes, the distinct directed links sent on, and the call durations.
// Sends arrive concurrently from every node's goroutine.
type tracedTransport struct {
	live.Transport
	rec *recorder

	mu    sync.Mutex
	bytes int64
	links map[[2]int]bool
	send  leaf
	durs  []float64 // microseconds
}

func (t *tracedTransport) Send(from, to int, frame []byte) error {
	n := int64(len(frame)) // the frame belongs to the transport after Send
	t0 := t.rec.now()
	err := t.Transport.Send(from, to, frame)
	t1 := t.rec.now()
	t.mu.Lock()
	t.bytes += n
	t.links[[2]int{from, to}] = true
	t.send.add(t0, t1)
	t.durs = append(t.durs, float64(t1-t0)/1e3)
	t.mu.Unlock()
	return err
}

type liveRun struct {
	c   liveCase
	out sim.Outcome
	err error
}

// liveSetup builds the first runs' configurations.
func liveSetup(b *bench) (func(), error) {
	_, err := liveCases(xrand.Derive(b.seed, 0))
	return func() {}, err
}

func runLiveTCP(b *bench) error {
	cases, err := liveCases(xrand.Derive(b.seed, 0))
	if err != nil {
		return err
	}
	var (
		runs        []liveRun
		wall, twall time.Duration
		walls       []float64
		events      int64
		frames      int64
		bytes       int64
		links       int64
		send        leaf
		sendDurs    []float64
		steps       int64
		tracedRuns  int
	)
	twStart, twErr := twSockets()
	before := readGoStats()
	for i := 0; i == 0 || (wall+twall).Seconds() < b.seconds; i++ {
		if i > 0 && i%len(cases) == 0 {
			if cases, err = liveCases(xrand.Derive(b.seed, uint64(i/len(cases)))); err != nil {
				return err
			}
		}
		c := cases[i%len(cases)]
		t0 := time.Now()
		o, err := runLive(c.cfg, nil)
		d := time.Since(t0)
		wall += d
		walls = append(walls, d.Seconds())
		runs = append(runs, liveRun{c: c, out: o, err: err})
		events += o.Stats.Events
		if !b.traced() {
			continue
		}
		var tt *tracedTransport
		start := b.rec.now()
		t0 = time.Now()
		to, terr := runLive(c.cfg, func(inner live.Transport) live.Transport {
			tt = &tracedTransport{Transport: inner, rec: b.rec, links: map[[2]int]bool{}}
			return tt
		})
		twall += time.Since(t0)
		op := int64(i + 1)
		parent := b.rec.add(span{Op: op, Name: "live.run", Start: start, End: b.rec.now()})
		b.res.attempted++
		switch {
		case terr != nil:
			b.res.fail(1, "traced %s #%d: %v", c.name, i, terr)
		case err == nil:
			if msg := twinMismatch(fmt.Sprintf("%s #%d", c.name, i), o, to); msg != "" {
				b.res.fail(1, "%s", msg)
			}
		}
		if tt == nil {
			continue
		}
		tt.mu.Lock()
		b.rec.add(span{Parent: parent, Op: op, Name: "live.send", Start: tt.send.first, End: tt.send.last, Calls: tt.send.calls, BusyNs: tt.send.ns})
		tracedRuns++
		frames += tt.send.calls
		bytes += tt.bytes
		links += int64(len(tt.links))
		send.merge(tt.send)
		sendDurs = append(sendDurs, tt.durs...)
		tt.mu.Unlock()
		steps += to.Stats.ActiveSteps
	}
	after := readGoStats()
	twEnd, twEndErr := twSockets()
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	failures := parallelCheck(len(runs), func(i int) string { return checkLiveRun(runs[i], i, sim.Run) })
	b.res.record(len(runs), failures)

	if twErr == nil && twEndErr == nil {
		b.res.note("tcp_time_wait", float64(twEnd), "count", fmt.Sprintf("sockets in TIME_WAIT at the end, %d at the start", twStart))
	}
	if b.traced() {
		if tracedRuns > 0 {
			n := float64(tracedRuns)
			b.res.set("live.frames", float64(frames)/n)
			b.res.set("live.links", float64(links)/n)
			b.res.set("live.send_ms", float64(send.ns)/1e6/n)
			b.res.set("live.steps", float64(steps)/n)
			b.res.set("live.ms_per_step", twall.Seconds()*1e3/float64(steps))
		}
		if frames > 0 {
			b.res.set("live.bytes_per_frame", float64(bytes)/float64(frames))
			b.res.set("live.links_per_frame", float64(links)/float64(frames))
			b.res.set("live.send_p50_us", median(sendDurs))
		}
		if twErr == nil && twEndErr == nil {
			b.res.set("live.tw_sockets", float64(twEnd-twStart))
		}
		b.res.set("trace.overhead_ratio", twall.Seconds()/wall.Seconds()-1)
		setGoDelta(&b.res, before, after, len(runs)+tracedRuns)
		return nil
	}
	b.res.set("runs_per_s", float64(len(runs))/wall.Seconds())
	b.res.set("sim_events_per_s", float64(events)/wall.Seconds())
	b.res.set("peak_rss_mb", rss)
	noteLatency(&b.res, "latency", walls)
	noteGoDelta(&b.res, before, after, len(runs))
	return nil
}

// checkLiveRun checks one live run: no transport or configuration error,
// quiescence, and an outcome equal to the simulator's for the same
// configuration.
func checkLiveRun(r liveRun, i int, ref func(sim.Config) (sim.Outcome, error)) string {
	name := fmt.Sprintf("%s #%d", r.c.name, i)
	switch {
	case r.err != nil:
		return fmt.Sprintf("%s: %v", name, r.err)
	case r.out.HorizonHit:
		return name + ": cut off before quiescence"
	}
	if d := diffAgainst(r.out, simConfig(r.c.cfg), ref); d != "" {
		return name + ": " + d
	}
	return ""
}
