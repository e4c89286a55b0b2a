// Coarse-to-fine approximate DP (DESIGN.md §12).
//
// The fast path solves the DP twice: once on a velocity grid coarsened by a
// factor (factor² fewer (j, j2) transition pairs, so roughly factor²
// cheaper), then again on the exact grid with each stage's velocity band
// restricted to a corridor of ±2·factor·Δv around the coarse winner. This
// is the reduced-state approximate-DP idea of Deshpande et al. (arXiv
// 2010.03620) applied as a *bracketing* pass: the coarse solution locates
// the optimum's neighborhood, the fine pass recovers grid-exact physics
// inside it.
//
// Error contract: the refined result is always a feasible fine-grid
// trajectory evaluated with the exact transition costs, so its cost is an
// upper bound on nothing less than the exact DP optimum. It equals the
// exact optimum whenever the corridor contains the true optimal velocity
// sequence — guaranteed for corridors wide enough to leave every band
// uncut, and holding in practice at 2·factor·Δv, which covers the coarse
// grid's quantization error of at most factor·Δv per stage twice over.
// When the coarse grid or the corridor turns out infeasible, the solver
// falls back to the full exact DP and flags it (RefineDiag.FellBack), so
// the fast path never loses feasibility.
package dp

import (
	"context"
	"fmt"
	"math"
)

// RefineDiag reports how a coarse-refined result was produced.
type RefineDiag struct {
	// CoarseChargeAh and CoarseStatesExpanded describe the coarse pass
	// (zero when it failed and the solver fell back).
	CoarseChargeAh       float64
	CoarseStatesExpanded int
	// FellBack is true when the coarse grid or the corridor was infeasible
	// and the result is the full exact DP's.
	FellBack bool
}

// corridor restricts each stage's admissible velocity-index band; indexes
// are fine-grid, one entry per stage.
type corridor struct {
	minJ, maxJ []int
}

// apply intersects the corridor with each stage's own band in place. An
// empty intersection (the coarse winner sat outside a stage's band, which
// only arises next to forced-zero stages) keeps the stage's original band:
// being conservative there costs a few columns, never feasibility.
func (c *corridor) apply(stages []stageInfo) {
	for i := range stages {
		lo := max(stages[i].minJ, c.minJ[i])
		hi := min(stages[i].maxJ, c.maxJ[i])
		if lo <= hi {
			stages[i].minJ, stages[i].maxJ = lo, hi
		}
	}
}

// corridorAround brackets a coarse winning velocity sequence with
// fine-grid bands of half-width marginMS.
func corridorAround(js []int, coarseDv, fineDv, marginMS float64, jMaxFine int) *corridor {
	c := &corridor{minJ: make([]int, len(js)), maxJ: make([]int, len(js))}
	for i, j := range js {
		v := gridSpeed(j, coarseDv)
		c.minJ[i], c.maxJ[i] = fineBand(v-marginMS, v+marginMS, fineDv, jMaxFine)
	}
	return c
}

// fineBand converts a velocity interval [vLo, vHi] m/s to inclusive
// fine-grid index bounds, clamped to [0, jMax]. The epsilons keep exact
// grid multiples inside the band despite FP division.
func fineBand(vLo, vHi, dv float64, jMax int) (lo, hi int) {
	lo = int(math.Ceil(vLo/dv - 1e-9))
	hi = int(math.Floor(vHi/dv + 1e-9))
	if lo < 0 {
		lo = 0
	}
	if hi > jMax {
		hi = jMax
	}
	return lo, hi
}

// OptimizeCoarseCtx solves cfg through the coarse-to-fine fast path with
// the velocity grid coarsened by factor (≥ 2; 2–4 are the useful range)
// and the corridor 2·factor·Δv. The result carries a Refined diagnostic,
// and its cost meets the error contract above against OptimizeCtx's exact
// optimum. Context errors propagate verbatim, as in OptimizeCtx; any other
// failure of the coarse or corridor pass falls back to the full exact DP.
//
//lint:certify pure
func OptimizeCoarseCtx(ctx context.Context, cfg Config, factor int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if factor < 2 {
		return nil, fmt.Errorf("dp: coarse factor %d must be ≥ 2", factor)
	}
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	margin := 2 * float64(factor) * cfg.DvMS
	coarse := cfg
	coarse.DvMS = cfg.DvMS * float64(factor)

	fallBack := func(coarseRes *Result) (*Result, error) {
		res, _, err := optimizeCore(ctx, cfg, nil)
		if err != nil {
			return nil, err
		}
		diag := &RefineDiag{FellBack: true}
		if coarseRes != nil {
			diag.CoarseChargeAh = coarseRes.ChargeAh
			diag.CoarseStatesExpanded = coarseRes.StatesExpanded
		}
		res.Refined = diag
		return res, nil
	}

	cres, cjs, cerr := optimizeCore(ctx, coarse, nil)
	if cerr != nil {
		if ctx.Err() != nil {
			return nil, cerr
		}
		// The coarsened grid is degenerate (Δv' above the route's max
		// speed) or cannot reach the destination within budget: the fine
		// grid may still be feasible, so solve it exactly.
		return fallBack(nil)
	}

	fg, err := buildGrid(&cfg)
	if err != nil {
		return nil, err
	}
	res, _, err := optimizeCore(ctx, cfg, corridorAround(cjs, coarse.DvMS, cfg.DvMS, margin, fg.jMax))
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		// A corridor that cuts off every path can only arise from coarse/
		// fine reachability mismatches near band edges; the exact solve is
		// the safety net.
		return fallBack(cres)
	}
	res.Refined = &RefineDiag{
		CoarseChargeAh:       cres.ChargeAh,
		CoarseStatesExpanded: cres.StatesExpanded,
	}
	return res, nil
}
