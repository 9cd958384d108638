package service

import (
	"context"
	"fmt"

	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/spec"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// SweepBackend is the executor's view of a coordinator: submit a grid,
// stream its results. Coordinator implements it in-process; Client
// implements it over HTTP.
type SweepBackend interface {
	Submit(req SweepRequest) (SubmitResponse, error)
	Stream(ctx context.Context, id string, from int, fn func(ResultEvent) error) error
}

// ExecuteSpecs runs a batch of runner specs through a sweep backend
// instead of the local worker pool, folding the service's result feed
// back into the runner's exact result contract through a
// runner.Collector — same Outcomes order, same Errors/Flaky
// classification, same OnRun feed — so everything downstream (stats,
// tables, CSV writers) produces byte-identical artifacts whether the runs
// were computed locally, by remote workers, or served from the
// coordinator's cache.
//
// Requirements beyond runner.ExecuteContext: every spec's protocol and
// adversary must be registry types (custom implementations have no spec
// encoding to ship over the wire), opts.Trace must be nil (traces are
// local-only), and opts.Cache must be nil (the coordinator owns the
// result store). opts.Workers and opts.MaxWall are execution-placement
// knobs with no meaning here and are ignored.
func ExecuteSpecs(ctx context.Context, be SweepBackend, specs []runner.Spec, opts runner.Options) ([]runner.Result, error) {
	if opts.Trace != nil {
		return nil, fmt.Errorf("service: per-run tracing is local-only; run without -coord to trace")
	}
	if opts.Cache != nil {
		return nil, fmt.Errorf("service: the coordinator owns the result store; run without a local cache")
	}
	col, err := runner.NewCollector(specs, opts)
	if err != nil {
		return nil, err
	}
	type slot struct{ si, run int }
	var (
		grid  []spec.Spec
		slots []slot
	)
	for si, s := range specs {
		for r := 0; r < s.Runs; r++ {
			cfg := s.Base
			cfg.Seed = xrand.Derive(s.BaseSeed, uint64(r))
			sp, err := spec.FromConfig(cfg)
			if err != nil {
				return nil, fmt.Errorf("service: spec %q is not service-executable: %w", s.Name, err)
			}
			grid = append(grid, sp)
			slots = append(slots, slot{si, r})
		}
	}
	if len(grid) == 0 {
		return col.Results(), nil
	}
	resp, err := be.Submit(SweepRequest{Name: "exec", Specs: grid})
	if err != nil {
		return nil, fmt.Errorf("service: submit: %w", err)
	}
	err = be.Stream(ctx, resp.ID, 0, func(ev ResultEvent) error {
		if ev.Index < 0 || ev.Index >= len(slots) {
			return fmt.Errorf("service: event index %d outside sweep of %d runs", ev.Index, len(slots))
		}
		if ev.Outcome == nil && ev.Err == nil {
			return fmt.Errorf("service: event %d carries neither an outcome nor an error", ev.Index)
		}
		sl := slots[ev.Index]
		col.Add(sl.si, sl.run, ev.Outcome, ev.Err, ev.Cached)
		return nil
	})
	if err != nil && ctx.Err() == nil {
		return nil, err
	}
	// Partial results on cancellation, runner-style: completed runs are
	// valid; the rest never arrived.
	return col.Results(), ctx.Err()
}
