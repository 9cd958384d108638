// Package live runs protocols as a real networked system: every message
// the run sends travels as a length-prefixed binary wire frame
// (internal/live/wire) over a pluggable Transport — in-process channels by
// default, loopback TCP as the socket-backed implementation — and the
// receiving node gets the payload decoded off the wire.
//
// The simulator's engine stays the one runtime loop. A live run is
// sim.RunOver with this package's sim.Network: the engine keeps the
// clock, cutoffs, adversary, crashes, fault verdicts, commit order, Stats,
// trace and Outcome, and calls the network to send each calendar copy, to
// wait at the ack barrier once per active step, and to take each due copy
// off the wire. The run is therefore a pure function of (Config, Seed),
// and a live run and a simulated run of the same config agree bit for
// bit; TestLiveMatchesSimExactly holds them to it, and
// TestLiveMatchesSimStatistically in internal/simtest compares their
// distributions over disjoint seeds. DESIGN.md §15 records the design.
//
// Scope: live mode runs every adversary and topology the simulator does —
// UGF rewriting δ/d and crashing nodes, omission, crash-recovery,
// rewiring — plus the link-fault plan, whose corrupt verdicts flip a real
// payload bit that the receiver's checksum catches. Cancellation and
// wall-clock watchdogs, sharded commits, curve sampling and interval
// stats remain simulator-only; FromSimConfig rejects configs that ask for
// them.
package live

import (
	"errors"
	"fmt"

	"github.com/ugf-sim/ugf/internal/sim"
)

// Config describes one live run. The zero value of every optional field
// means "off"; every field but Transport has the same meaning as in
// sim.Config.
type Config struct {
	// N is the number of nodes (≥ 1).
	N int
	// F is the adversary's crash budget, 0 ≤ F < N.
	F int
	// Protocol builds the per-node state machines. Required. Every payload
	// kind the protocol sends must have a registered wire codec.
	Protocol sim.Protocol
	// Adversary attacks the run; nil means none.
	Adversary sim.Adversary
	// Seed determines every random choice of the run.
	Seed uint64

	// Horizon, MaxEvents and StallWindow are the simulator's cutoffs;
	// zero means the same defaults.
	Horizon     sim.Step
	MaxEvents   int64
	StallWindow int64

	// Faults is the link-fault plan: the engine rolls each message's
	// verdict, and a corrupt copy crosses the wire with a payload bit
	// flipped.
	Faults *sim.FaultPlan
	// Topology restricts communication to the edges of a graph.
	Topology *sim.Topology

	// Transport moves frames between nodes; nil uses the in-process
	// channel transport. The run closes the transport when it ends.
	Transport Transport

	// Trace receives the run's event stream; nil disables tracing.
	Trace sim.TraceSink
	// KeepPerProcess retains per-node send counters in the Outcome.
	KeepPerProcess bool
}

// FromSimConfig projects a simulator config onto a live one, rejecting
// with an error the features live mode does not cover: curve sampling,
// interval stats, wall-clock watchdogs and sharded commits.
func FromSimConfig(cfg sim.Config) (Config, error) {
	switch {
	case cfg.Sample != nil || cfg.SampleEvery != 0:
		return Config{}, errors.New("live: dissemination-curve sampling is simulator-only")
	case cfg.StatsEvery != 0:
		return Config{}, errors.New("live: the interval-stats series is simulator-only")
	case cfg.MaxWall != 0 || cfg.Cancel != nil:
		return Config{}, errors.New("live: wall-clock watchdogs are simulator-only")
	case cfg.Workers > 1:
		return Config{}, errors.New("live: Workers shards the simulator's commit phase; live runs commit serially")
	}
	return Config{
		N: cfg.N, F: cfg.F, Protocol: cfg.Protocol, Adversary: cfg.Adversary, Seed: cfg.Seed,
		Horizon: cfg.Horizon, MaxEvents: cfg.MaxEvents, StallWindow: cfg.StallWindow,
		Faults: cfg.Faults, Topology: cfg.Topology, Trace: cfg.Trace, KeepPerProcess: cfg.KeepPerProcess,
	}, nil
}

// Run executes one live run to quiescence (or cutoff) and returns its
// Outcome, which is sim.Run's for the same configuration. The returned
// error reports configuration or network failures; cutoffs return a
// valid Outcome with HorizonHit set.
func Run(cfg Config) (sim.Outcome, error) {
	if cfg.N < 1 {
		return sim.Outcome{}, fmt.Errorf("live: N = %d, need N ≥ 1", cfg.N)
	}
	tr := cfg.Transport
	if tr == nil {
		tr = NewChanTransport(cfg.N)
	}
	nw := newNetwork(cfg.N, tr)
	defer nw.close()
	return sim.RunOver(sim.Config{
		N: cfg.N, F: cfg.F, Protocol: cfg.Protocol, Adversary: cfg.Adversary, Seed: cfg.Seed,
		Horizon: cfg.Horizon, MaxEvents: cfg.MaxEvents, StallWindow: cfg.StallWindow,
		Faults: cfg.Faults, Topology: cfg.Topology, Trace: cfg.Trace, KeepPerProcess: cfg.KeepPerProcess,
	}, nw)
}
