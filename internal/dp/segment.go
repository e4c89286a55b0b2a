// Segment-level DP decomposition for fleet serving (DESIGN.md §11).
//
// A route's interior physics between signalized intersections carries no
// arrival-time constraint: windows (Eq. 10–12) bind only at the signals
// themselves, and the transition costs (Eq. 8–9) depend on the speed pair
// and grade, never on absolute time. Splitting the route at its signals
// therefore yields segments whose traversals are *time-shift invariant* —
// the cost and duration of crossing a segment from entry velocity v₀
// depend only on the path driven inside it, not on when the crossing
// starts. Solving each segment once per admissible entry velocity gives a
// table of crossings (exit velocity, duration, cost) that serves every
// request touching that segment: any departure time, any arrival-rate
// estimate, any optimizer variant. Per-request work collapses to stitching
// — a small DP over the boundary states (velocity index × time bucket at
// each signal) that applies the window penalties of Eq. (12) at the
// boundaries where they actually bind.
//
// This is the reuse insight of approximate-DP eco-driving (Deshpande et
// al., arXiv 2010.03620) applied to the paper's serving tier: a city
// fleet's requests overwhelmingly share road segments, so O(requests) full
// solves become O(hot segments × entry velocities) solves plus cheap
// stitching (internal/cloud wires the cache and coalescing).
package dp

import (
	"context"
	"fmt"
	"math"

	"evvo/internal/ev"
	"evvo/internal/road"
)

// SegmentSpec locates one signal-delimited segment on the discretized
// route. StartStage/EndStage index the stage array the tables were built
// on; both boundary stages are shared with the neighboring segments.
type SegmentSpec struct {
	StartStage, EndStage int
	StartM, EndM         float64
	// BoundaryName names the signal at EndM ("" for the final segment,
	// which ends at the route destination).
	BoundaryName string
}

// crossing is one admissible traversal of a segment for a fixed entry
// velocity: the cheapest path that exits at exitJ·Δv with a duration in
// this crossing's time bucket. Costs include the charge ζ and the
// time-weight price of the duration, but no window penalties — those are
// applied at stitch time, where the absolute arrival time is known.
type crossing struct {
	exitJ  int
	durSec float64 // exact traversal time, interior stop-sign dwell included
	costAh float64
	path   []uint16 // velocity index per stage, len = EndStage-StartStage+1
}

// entryTable holds every crossing of one segment for one entry velocity.
type entryTable struct {
	entryJ    int
	crossings []crossing
}

// RouteTables is the solved per-segment decomposition of one route on one
// DP grid. Build once with BuildRouteTables, then answer any number of
// requests with StitchCtx. The tables are immutable after construction and
// safe for concurrent StitchCtx calls.
type RouteTables struct {
	cfg    Config  // defaulted build config; stitch configs must match its grid
	key    gridKey // comparable grid identity for the compatibility check
	specs  []SegmentSpec
	stages []stageInfo
	grid   dpGrid
	// entries[s] lists the entry tables of segment s in ascending entryJ.
	entries       [][]entryTable
	segmentSolves int
}

// gridKey is the comparable identity of everything baked into the tables:
// any stitch config differing in one of these fields would read tables
// solved for different physics. The route is compared by pointer — Routes
// are immutable after construction, so the same instance means the same
// geometry; callers (the cloud's per-route cache) hold one *road.Route per
// registered name. Window parameters (Windows, margins, PenaltyAh) and
// DepartTime are deliberately absent — they are stitch-time inputs, which
// is exactly what makes the tables shareable.
type gridKey struct {
	route              *road.Route
	vehicle            ev.Params
	dsM, dvMS, dtSec   float64
	maxTripSec         float64
	accelMaxMS2        float64
	decelMaxMS2        float64
	timeWeightAhPerSec float64
	stopDwellSec       float64
	// Tables are exact, so a stitch config asking for the coarse-to-fine
	// fast path (DESIGN.md §12) must not be answered from them.
	coarseFactor     int
	coarseCorridorMS float64
}

func gridKeyOf(cfg *Config) gridKey {
	return gridKey{
		route: cfg.Route, vehicle: cfg.Vehicle,
		dsM: cfg.DsM, dvMS: cfg.DvMS, dtSec: cfg.DtSec,
		maxTripSec:  cfg.MaxTripSec,
		accelMaxMS2: cfg.AccelMaxMS2, decelMaxMS2: cfg.DecelMaxMS2,
		timeWeightAhPerSec: cfg.TimeWeightAhPerSec,
		stopDwellSec:       cfg.StopDwellSec,
		coarseFactor:       cfg.CoarseRefine.Factor,
		coarseCorridorMS:   cfg.CoarseRefine.CorridorMS,
	}
}

// Segments returns the segment layout (copy; callers may modify freely).
func (rt *RouteTables) Segments() []SegmentSpec {
	out := make([]SegmentSpec, len(rt.specs))
	copy(out, rt.specs)
	return out
}

// SegmentSolves reports how many per-(segment, entry-velocity) DP solves
// the build ran — the denominator of the fleet tier's reuse factor.
func (rt *RouteTables) SegmentSolves() int { return rt.segmentSolves }

// Crossings reports the total crossing count across all tables (a size
// diagnostic for cache accounting).
func (rt *RouteTables) Crossings() int {
	total := 0
	for _, ets := range rt.entries {
		for _, et := range ets {
			total += len(et.crossings)
		}
	}
	return total
}

// BuildRouteTables splits cfg.Route at its signal boundaries and solves
// each segment once per admissible entry velocity. cfg.Windows and
// cfg.DepartTime are ignored: windows bind at stitch time only. The
// context is observed at every segment-stage boundary, exactly like
// OptimizeCtx. Tables are always exact: a config asking for the
// coarse-to-fine fast path is rejected.
//
//lint:certify pure
func BuildRouteTables(ctx context.Context, cfg Config) (*RouteTables, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.CoarseRefine.Factor != 0 {
		return nil, fmt.Errorf("dp: segment tables are exact; CoarseRefine applies to OptimizeCtx only")
	}
	g, err := buildGrid(&cfg)
	if err != nil {
		return nil, err
	}
	stages, err := buildStages(cfg, g.n, g.ds, g.jMax)
	if err != nil {
		return nil, err
	}

	bounds := segmentBounds(stages)
	maxM := 0
	for si := 0; si < len(bounds)-1; si++ {
		maxM = max(maxM, bounds[si+1]-bounds[si])
	}

	bands := newAccelBands(&cfg, g.ds, g.jMax)
	trans := newTransitionCache(&cfg, g.ds, g.jMax, bands)
	kw := g.kMax + 1
	width := (g.jMax + 1) * kw
	slabs := grabSlabs(width, maxM*width, cfg.Workers, g.jMax+1, kw)
	defer slabPool.Put(slabs)
	rt := &RouteTables{cfg: cfg, key: gridKeyOf(&cfg), stages: stages, grid: g}
	for si := 0; si < len(bounds)-1; si++ {
		a, b := bounds[si], bounds[si+1]
		spec := SegmentSpec{
			StartStage: a, EndStage: b,
			StartM: stages[a].posM, EndM: stages[b].posM,
		}
		if sig := stages[b].signal; sig != nil {
			spec.BoundaryName = sig.Name
		}
		var ets []entryTable
		for j0 := stages[a].minJ; j0 <= stages[a].maxJ; j0++ {
			// No windows inside a segment: signals sit only at boundaries,
			// where the stitcher applies the penalties.
			cost, exact, _, err := sweep(ctx, &cfg, g, stages, nil, bands, trans, slabs, a, b, j0)
			if err != nil {
				return nil, err
			}
			et, err := crossingsOf(cost, exact, slabs.backs, g, stages, a, b, j0)
			if err != nil {
				return nil, err
			}
			rt.segmentSolves++
			ets = append(ets, et)
		}
		rt.specs = append(rt.specs, spec)
		rt.entries = append(rt.entries, ets)
	}
	return rt, nil
}

// segmentBounds lists the boundary stages of the segment split: source,
// every signal stage, destination. Deriving the split from the stage array
// keeps it consistent with the solver's Δs snapping.
func segmentBounds(stages []stageInfo) []int {
	bounds := []int{0}
	for i, st := range stages {
		if st.signal != nil {
			bounds = append(bounds, i)
		}
	}
	return append(bounds, len(stages)-1)
}

// crossingsOf extracts every finite exit state of a segment sweep over
// stages [a, b] from entry j0 as a crossing table. cost and exact hold
// stage b; backs holds stage a+i+1's backpointers at i*width.
func crossingsOf(cost, exact []float64, backs []int32, g dpGrid, stages []stageInfo, a, b, j0 int) (entryTable, error) {
	m := b - a
	kw := g.kMax + 1
	width := (g.jMax + 1) * kw
	et := entryTable{entryJ: j0}
	for j1 := stages[b].minJ; j1 <= stages[b].maxJ; j1++ {
		for k := 0; k < kw; k++ {
			c := cost[j1*kw+k]
			if c >= inf {
				continue
			}
			path := make([]uint16, m+1)
			path[m] = uint16(j1)
			jj, kk := j1, k
			for i := m; i > 0; i-- {
				bp := backs[(i-1)*width+jj*kw+kk]
				if bp < 0 {
					return entryTable{}, fmt.Errorf("dp: broken segment backpointer at stage %d of [%d,%d] entry %d", i, a, b, j0)
				}
				jj, kk = int(bp>>16), int(bp&0xffff)
				path[i-1] = uint16(jj)
			}
			et.crossings = append(et.crossings, crossing{
				exitJ: j1, durSec: exact[j1*kw+k], costAh: c, path: path,
			})
		}
	}
	return et, nil
}

// stitchBack records how a boundary state was reached: the predecessor
// boundary state and the crossing that bridged them.
type stitchBack struct {
	prevJ, prevK int32
	cr           *crossing
}

// StitchCtx assembles the optimal profile for one request from the solved
// segment tables: a DP over boundary states (velocity index × time bucket
// at each signal) whose transitions are the precomputed crossings, with
// window penalties applied at the boundaries. cfg supplies the per-request
// inputs — DepartTime, Windows, margins, PenaltyAh — and must match the
// build config on every grid-defining field (route, vehicle, Δs/Δv/Δt,
// trip budget, accel bounds, time weight, dwell), or an error is returned.
//
// The stitched optimum agrees with OptimizeCtx up to time-bucket merging:
// the monolithic DP buckets paths by absolute elapsed time at every stage,
// the stitcher by segment-relative time inside a segment and absolute time
// at boundaries, so the two can merge different path pairs into one bucket.
// Both carry exact times alongside the buckets, so the disagreement is
// bounded by the bucket quantization, not accumulated (pinned within
// tolerance by TestStitchMatchesMonolithicFig6).
//
//lint:certify pure
func (rt *RouteTables) StitchCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if gridKeyOf(&cfg) != rt.key {
		return nil, fmt.Errorf("dp: stitch config does not match the grid the segment tables were built on")
	}

	windows := shrunkWindows(&cfg, rt.stages)
	m := len(rt.specs)
	kw := rt.grid.kMax + 1
	width := (rt.grid.jMax + 1) * kw
	cost := make([][]float64, m+1)
	exact := make([][]float64, m+1)
	back := make([][]stitchBack, m+1)
	for i := range cost {
		cost[i] = make([]float64, width)
		exact[i] = make([]float64, width)
		back[i] = make([]stitchBack, width)
		for x := range cost[i] {
			cost[i][x] = inf
		}
	}
	cost[0][0] = 0 // v = 0, elapsed = 0 at the source

	expanded := 0
	for s := 0; s < m; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ws, hasWin := windows[rt.specs[s].EndStage]
		nxtCost, nxtExact, nxtBack := cost[s+1], exact[s+1], back[s+1]
		for ei := range rt.entries[s] {
			et := &rt.entries[s][ei]
			srcCost := cost[s][et.entryJ*kw : (et.entryJ+1)*kw]
			srcExact := exact[s][et.entryJ*kw : (et.entryJ+1)*kw]
			for k := 0; k < kw; k++ {
				c0 := srcCost[k]
				if c0 >= inf {
					continue
				}
				elapsed := srcExact[k]
				for ci := range et.crossings {
					cr := &et.crossings[ci]
					total := elapsed + cr.durSec
					if total > cfg.MaxTripSec {
						continue
					}
					k2 := int(math.Round(total / cfg.DtSec))
					if k2 > rt.grid.kMax {
						k2 = rt.grid.kMax
					}
					penal := 0.0
					if hasWin && !inAnyWindow(ws, cfg.DepartTime+total) {
						penal = cfg.PenaltyAh
					}
					expanded++
					nc := c0 + cr.costAh + penal
					idx := cr.exitJ*kw + k2
					if nc < nxtCost[idx] {
						nxtCost[idx] = nc
						nxtExact[idx] = total
						nxtBack[idx] = stitchBack{prevJ: int32(et.entryJ), prevK: int32(k), cr: cr}
					}
				}
			}
		}
	}

	// Destination boundary: the final segment ends at the forced-zero
	// destination stage, so only velocity column 0 is populated.
	bestK, bestCost := -1, inf
	for k := 0; k < kw; k++ {
		if c := cost[m][k]; c < bestCost {
			bestCost, bestK = c, k
		}
	}
	if bestK < 0 {
		return nil, fmt.Errorf("dp: no feasible stitched trajectory within %.0f s (grid Δs=%.0f Δv=%.2f Δt=%.1f)",
			cfg.MaxTripSec, rt.grid.ds, cfg.DvMS, cfg.DtSec)
	}

	// Reconstruct the full velocity sequence by concatenating the winning
	// crossings' stage paths (boundary stages are shared, so segment s's
	// first index overwrites segment s-1's last with the same value).
	js := make([]int, rt.grid.n+1)
	jj, kk := 0, bestK
	for s := m; s > 0; s-- {
		sb := back[s][jj*kw+kk]
		if sb.cr == nil {
			return nil, fmt.Errorf("dp: broken stitch backpointer at boundary %d", s)
		}
		a := rt.specs[s-1].StartStage
		for i, v := range sb.cr.path {
			js[a+i] = int(v)
		}
		jj, kk = int(sb.prevJ), int(sb.prevK)
	}
	return assemble(cfg, rt.stages, js, rt.grid.ds, windows, bestCost, expanded)
}
