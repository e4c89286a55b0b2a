package dp

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"evvo/internal/par"
)

// DepartureOption is one evaluated departure time.
type DepartureOption struct {
	// DepartTime is the absolute departure evaluated.
	DepartTime float64
	// Result is the optimized plan for that departure.
	Result *Result
}

// SweepDepartures optimizes the same trip for every departure time in
// [from, to] at the given step and returns the options in departure order.
// cfg.DepartTime is overridden per evaluation; cfg.Windows should cover the
// whole sweep horizon. Departures whose optimization fails outright (e.g.
// an impossible trip budget) abort the sweep with an error.
//
// Signal cycles make departure timing matter: leaving a few seconds later
// can align every signal arrival with a zero-queue window and save both
// energy and a red-light wait. This extends the paper's system the way its
// vehicular-cloud framing suggests — the cloud already knows the windows,
// so it can advise *when* to leave, not just how to drive.
//
// Departures are evaluated concurrently on a bounded worker pool
// (cfg.Workers goroutines, default runtime.GOMAXPROCS(0)); the options come
// back in departure order and a failure reports the earliest failing
// departure, exactly as a serial loop would. Each departure is indexed as
// from + i·step rather than accumulated, so long sweeps stay on-grid
// instead of drifting in floating point.
//
//lint:certify pure
func SweepDepartures(cfg Config, from, to, step float64) ([]DepartureOption, error) {
	return SweepDeparturesCtx(context.Background(), cfg, from, to, step)
}

// SweepDeparturesCtx is SweepDepartures with cooperative cancellation:
// each departure's DP observes ctx at its stage boundaries, and departures
// not yet dispatched when ctx dies are skipped. The pool is always joined
// before returning, so cancellation leaks no goroutines. A cancelled sweep
// reports an error wrapping ctx.Err() (match with errors.Is).
//
//lint:certify pure
func SweepDeparturesCtx(ctx context.Context, cfg Config, from, to, step float64) ([]DepartureOption, error) {
	if step <= 0 {
		return nil, fmt.Errorf("dp: sweep step %.2f s must be positive", step)
	}
	if to < from {
		return nil, fmt.Errorf("dp: sweep range [%.1f, %.1f] inverted", from, to)
	}
	count := int(math.Floor((to-from)/step+1e-9)) + 1
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]DepartureOption, count)
	err := par.ForEach(workers, count, func(i int) error {
		depart := from + float64(float64(i)*step)
		c := cfg
		c.DepartTime = depart
		// The sweep already saturates the pool; keep each DP serial so the
		// goroutine count stays bounded by `workers` (results are identical
		// for any worker count).
		c.Workers = 1
		res, err := OptimizeCtx(ctx, c)
		if err != nil {
			return fmt.Errorf("dp: sweep at depart %.1f s: %w", depart, err)
		}
		out[i] = DepartureOption{DepartTime: depart, Result: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BestDeparture picks the option with the lowest charge among non-penalized
// plans; if every plan is penalized it falls back to the lowest charge
// overall. An empty slice is an error.
func BestDeparture(opts []DepartureOption) (DepartureOption, error) {
	if len(opts) == 0 {
		return DepartureOption{}, fmt.Errorf("dp: no departure options")
	}
	best, bestClean := -1, -1
	lo, loClean := math.Inf(1), math.Inf(1)
	for i, o := range opts {
		if o.Result.ChargeAh < lo {
			lo, best = o.Result.ChargeAh, i
		}
		if !o.Result.Penalized && o.Result.ChargeAh < loClean {
			loClean, bestClean = o.Result.ChargeAh, i
		}
	}
	if bestClean >= 0 {
		return opts[bestClean], nil
	}
	return opts[best], nil
}
