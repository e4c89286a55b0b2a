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
	"math/bits"
	"sync"

	"evvo/internal/ev"
	"evvo/internal/queue"
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

// entryTable holds every crossing of one segment for one entry velocity, as
// parallel arrays indexed by crossing. A crossing is one admissible
// traversal: the cheapest path that exits at exitJ·Δv with a duration in
// that crossing's time bucket. Costs include the charge ζ and the
// time-weight price of the duration, but no window penalties — those are
// applied at stitch time, where the absolute arrival time is known.
// Crossings are ordered by ascending (exit velocity, duration bucket), the
// order crossingsOf extracts them in.
type entryTable struct {
	entryJ int
	exitJ  []int32
	durSec []float64 // exact traversal time, interior stop-sign dwell included
	costAh []float64
	// paths holds crossing c's velocity index per stage at
	// [c*stride, (c+1)*stride), stride = EndStage-StartStage+1.
	paths []uint16
}

// path returns crossing c's stage path.
func (et *entryTable) path(c, stride int) []uint16 { return et.paths[c*stride : (c+1)*stride] }

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

	// Stitch geometry, derived from the filled tables by index: boundary
	// s's banded backpointer cells start at backOff[s] (len(specs)+2
	// offsets), maxBand is the widest boundary velocity band and maxCross
	// the largest entry table (the lane-buffer length).
	backOff           []int
	maxBand, maxCross int
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
			total += len(et.exitJ)
		}
	}
	return total
}

// boundary returns the stage index of stitch boundary s: segment s's start
// stage, or the destination for s == len(specs).
func (rt *RouteTables) boundary(s int) int {
	if s == len(rt.specs) {
		return rt.specs[s-1].EndStage
	}
	return rt.specs[s].StartStage
}

// index derives the stitch geometry from the filled specs and entries.
// Every boundary keeps only its stage's [minJ, maxJ] band, so the
// backpointer slab is Σ band·(kMax+1) cells rather than a full velocity
// width per boundary.
func (rt *RouteTables) index() {
	kw := rt.grid.kMax + 1
	rt.backOff = make([]int, len(rt.specs)+2)
	for s := 0; s <= len(rt.specs); s++ {
		st := rt.stages[rt.boundary(s)]
		band := st.maxJ - st.minJ + 1
		rt.backOff[s+1] = rt.backOff[s] + band*kw
		rt.maxBand = max(rt.maxBand, band)
	}
	for _, ets := range rt.entries {
		for i := range ets {
			rt.maxCross = max(rt.maxCross, len(ets[i].exitJ))
		}
	}
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
	rt.index()
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
// stages [a, b] from entry j0 as a crossing table, in ascending (exit
// velocity, bucket) order. cost and exact hold stage b; backs holds stage
// a+i+1's backpointers at i*width. The table's arrays are sized exactly
// (one counting pass first), so a build's resident tables carry no append
// slack.
func crossingsOf(cost, exact []float64, backs []int32, g dpGrid, stages []stageInfo, a, b, j0 int) (entryTable, error) {
	m := b - a
	stride := m + 1
	kw := g.kMax + 1
	width := (g.jMax + 1) * kw
	lo, hi := stages[b].minJ*kw, (stages[b].maxJ+1)*kw
	count := 0
	for _, c := range cost[lo:hi] {
		if c < inf {
			count++
		}
	}
	et := entryTable{
		entryJ: j0,
		exitJ:  make([]int32, 0, count),
		durSec: make([]float64, 0, count),
		costAh: make([]float64, 0, count),
		paths:  make([]uint16, count*stride),
	}
	for x := lo; x < hi; x++ {
		c := cost[x]
		if c >= inf {
			continue
		}
		j1, k := x/kw, x%kw
		path := et.path(len(et.exitJ), stride)
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
		et.exitJ = append(et.exitJ, int32(j1))
		et.durSec = append(et.durSec, exact[x])
		et.costAh = append(et.costAh, c)
	}
	return et, nil
}

// stitchSlabs recycles a stitch's working memory across StitchCtx calls:
// the cost/exact arrays of the two live boundaries (the one being read and
// the one being written), the banded backpointer pairs of every boundary,
// and the lane buffers relaxEval fills. All of it is pointer-free, so the
// GC never scans it. Recycling is safe because each boundary's cost and
// backpointer band is re-seeded (inf / -1) before it is written, exact
// cells are read only behind a finite cost, and lane cells only behind a
// mask bit set by the same relaxEval call.
type stitchSlabs struct {
	vals []float64 // 4 * maxBand*(kMax+1): curCost, nxtCost, curExact, nxtExact
	// A boundary cell's backpointer pair: from packs the predecessor
	// boundary state as entry<<16 | k (entry indexes the segment's entry
	// tables, -1 = unreached); cross is the bridging crossing's index in
	// that entry table.
	from, cross []int32
	lanes       relaxScratch
}

var stitchPool = sync.Pool{New: func() any { return new(stitchSlabs) }}

// grabStitchSlabs returns recycled stitch slabs grown to hold `cells` value
// cells per boundary, `backs` backpointer cells and `lanes` crossings per
// relaxEval call.
func grabStitchSlabs(cells, backs, lanes int) *stitchSlabs {
	sl := stitchPool.Get().(*stitchSlabs)
	if cap(sl.vals) < 4*cells {
		sl.vals = make([]float64, 4*cells)
	}
	sl.vals = sl.vals[:4*cells]
	if cap(sl.from) < backs {
		sl.from = make([]int32, backs)
		sl.cross = make([]int32, backs)
	}
	sl.from, sl.cross = sl.from[:backs], sl.cross[:backs]
	if cap(sl.lanes.cand) < lanes {
		sl.lanes = newRelaxScratch(lanes)
	}
	return sl
}

// stitchStep is one boundary transition's commit state: the window test at
// the destination boundary and that boundary's banded slabs, indexed
// [(exitJ-minJ)*kw + k2].
type stitchStep struct {
	ws              []queue.Window // sorted by Start (shrunkWindows' contract)
	hasWin          bool
	depart, penalty float64
	kw, minJ        int

	cost, exact []float64
	from, cross []int32
}

// commit is the scalar half of one (entry, k) source cell's relaxation:
// relaxEval has evaluated the entry's n crossings as lanes, and commit walks
// the mask bits in ascending crossing order, adds the window penalty at the
// absolute arrival time and keeps strict improvements. Visit order across
// calls is (entry, k, crossing), so ties keep the first-visited predecessor.
// Arrival times ascend with the bucket inside one exit velocity and drop at
// the next, so the sorted-window cursor restarts whenever the arrival time
// decreases — correct for any crossing order. It returns the number of
// crossings expanded (those within the trip budget).
//
//lint:hot
func (st *stitchStep) commit(et *entryTable, lanes *relaxScratch, n int, from int32) int {
	expanded := 0
	wi, last := 0, 0.0
	tt, cd, kf := lanes.tot[:n], lanes.cand[:n], lanes.k2f[:n]
	exitJ := et.exitJ[:n]
	nb := (n + 3) >> 2
	for bi := 0; bi < nb; bi++ {
		m := lanes.mask[bi]
		if m == 0 {
			continue
		}
		expanded += bits.OnesCount8(m)
		base := bi << 2
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros8(m)
			if i >= n {
				break // unreachable: mask bits past n are never set
			}
			tot := tt[i]
			nc := cd[i]
			if st.hasWin {
				t := st.depart + tot
				if t < last {
					wi = 0
				}
				last = t
				for wi < len(st.ws) && st.ws[wi].End <= t {
					wi++
				}
				if wi >= len(st.ws) || t < st.ws[wi].Start {
					nc += st.penalty
				}
			}
			idx := (int(exitJ[i])-st.minJ)*st.kw + int(kf[i])
			if nc < st.cost[idx] {
				st.cost[idx] = nc
				st.exact[idx] = tot
				st.from[idx] = from
				st.cross[idx] = int32(i)
			}
		}
	}
	return expanded
}

// StitchCtx assembles the optimal profile for one request from the solved
// segment tables: a DP over boundary states (velocity index × time bucket
// at each signal) whose transitions are the precomputed crossings, with
// window penalties applied at the boundaries. cfg supplies the per-request
// inputs — DepartTime, Windows, margins, PenaltyAh — and must match the
// build config on every grid-defining field (route, vehicle, Δs/Δv/Δt,
// trip budget, accel bounds, time weight, dwell), or an error is returned.
//
// The boundary DP runs on the sweep's machinery (DESIGN.md §11–12): for
// each finite source cell (entry velocity, bucket k), relaxEval evaluates
// the entry's crossings as lanes — candidate cost costAh+c0, arrival
// durSec+elapsed, bucket floor(t·(1/Δt)+0.5), trip-budget mask — and
// stitchStep.commit resolves the scatter. Both sums are the scalar ones
// with commuted operands, so they are bit-identical to the per-crossing
// loop they replace.
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
	cells := rt.maxBand * kw
	sl := grabStitchSlabs(cells, rt.backOff[m+1], rt.maxCross)
	defer stitchPool.Put(sl)
	curCost, nxtCost := sl.vals[0*cells:1*cells], sl.vals[1*cells:2*cells]
	curExact, nxtExact := sl.vals[2*cells:3*cells], sl.vals[3*cells:4*cells]
	// Boundary 0 is the source, whose band is velocity 0 alone: elapsed 0.
	fillF64(curCost[:kw], inf)
	curCost[0], curExact[0] = 0, 0

	useAsm := useAsmKernels
	invDt, kMaxF := 1/cfg.DtSec, float64(rt.grid.kMax)
	lanes := &sl.lanes
	expanded := 0
	for s := 0; s < m; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		src, dst := rt.stages[rt.specs[s].StartStage], rt.stages[rt.specs[s].EndStage]
		band := (dst.maxJ - dst.minJ + 1) * kw
		lo, hi := rt.backOff[s+1], rt.backOff[s+2]
		fillF64(nxtCost[:band], inf)
		fillI32(sl.from[lo:hi], -1)
		ws, hasWin := windows[rt.specs[s].EndStage]
		step := stitchStep{
			ws: ws, hasWin: hasWin, depart: cfg.DepartTime, penalty: cfg.PenaltyAh,
			kw: kw, minJ: dst.minJ,
			cost: nxtCost[:band], exact: nxtExact[:band],
			from: sl.from[lo:hi], cross: sl.cross[lo:hi],
		}
		for e := range rt.entries[s] {
			et := &rt.entries[s][e]
			n := len(et.exitJ)
			if n == 0 {
				continue
			}
			col := (et.entryJ - src.minJ) * kw
			for k := 0; k < kw; k++ {
				c0 := curCost[col+k]
				if c0 >= inf {
					continue
				}
				relaxEval(lanes.cand[:n], lanes.tot[:n], lanes.k2f[:n], lanes.mask[:(n+3)>>2],
					et.costAh, et.durSec, c0, 0, curExact[col+k], cfg.MaxTripSec, invDt, kMaxF, useAsm)
				expanded += step.commit(et, lanes, n, int32(e)<<16|int32(k))
			}
		}
		curCost, nxtCost = nxtCost, curCost
		curExact, nxtExact = nxtExact, curExact
	}

	// Destination boundary: the final segment ends at the forced-zero
	// destination stage, whose band is velocity 0 alone.
	bestK, bestCost := -1, inf
	for k := 0; k < kw; k++ {
		if c := curCost[k]; c < bestCost {
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
		st := rt.stages[rt.boundary(s)]
		cell := rt.backOff[s] + (jj-st.minJ)*kw + kk
		from := sl.from[cell]
		if from < 0 {
			return nil, fmt.Errorf("dp: broken stitch backpointer at boundary %d", s)
		}
		spec := rt.specs[s-1]
		et := &rt.entries[s-1][from>>16]
		for i, v := range et.path(int(sl.cross[cell]), spec.EndStage-spec.StartStage+1) {
			js[spec.StartStage+i] = int(v)
		}
		jj, kk = et.entryJ, int(from&0xffff)
	}
	return assemble(cfg, rt.stages, js, rt.grid.ds, windows, bestCost, expanded)
}
