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
	"math/bits"
	"sync"

	"evvo/internal/ev"
	"evvo/internal/par"
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

	// rowOff[c] is crossing c's row in its exit boundary's banded slab,
	// (exitJ[c]-minJ)*(kMax+1), and maxRowOff the largest of them. Both
	// are derived by RouteTables.index, never shipped on the wire.
	rowOff    []int32
	maxRowOff int
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
	// entries[s] lists the entry tables of segment s, one per entry
	// velocity of its start stage's band, in ascending entryJ.
	entries [][]entryTable

	// Stitch geometry, derived from the filled tables by index: boundary
	// s's banded backpointer cells start at backOff[s] (len(specs)+2
	// offsets), maxBand is the widest boundary velocity band and maxCross
	// the largest entry table (the lane-buffer length).
	backOff           []int
	maxBand, maxCross int

	// togo[s][j-minJ] is the cheapest windowless completion from boundary
	// s at velocity j: 0 at the destination, +Inf where no chain of
	// crossings reaches the destination. Windows only add penalties, so it
	// is a lower bound on any stitched completion, the bound StitchCtx
	// prunes by.
	// costScale is Σ over segments of the largest |costAh|, which bounds
	// every partial sum of crossing costs (the pruning margin's scale).
	// Both are derived by index, never shipped on the wire.
	togo      [][]float64
	costScale float64
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
}

func gridKeyOf(cfg *Config) gridKey {
	return gridKey{
		route: cfg.Route, vehicle: cfg.Vehicle,
		dsM: cfg.DsM, dvMS: cfg.DvMS, dtSec: cfg.DtSec,
		maxTripSec:  cfg.MaxTripSec,
		accelMaxMS2: cfg.AccelMaxMS2, decelMaxMS2: cfg.DecelMaxMS2,
		timeWeightAhPerSec: cfg.TimeWeightAhPerSec,
		stopDwellSec:       cfg.StopDwellSec,
	}
}

// Segments returns the segment layout (copy; callers may modify freely).
func (rt *RouteTables) Segments() []SegmentSpec {
	out := make([]SegmentSpec, len(rt.specs))
	copy(out, rt.specs)
	return out
}

// SegmentSolves reports how many per-(segment, entry-velocity) DP solves
// a build of these tables runs, one per entry table: the denominator of
// the fleet tier's reuse factor.
func (rt *RouteTables) SegmentSolves() int {
	total := 0
	for _, ets := range rt.entries {
		total += len(ets)
	}
	return total
}

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
// width per boundary. Each entry table gets its crossings' row offsets in
// the exit boundary's band; BuildRouteTables and ImportRouteTables both
// keep exits inside that band, and the stitch's unchecked gather relies on
// it, so an exit outside it panics here. The cost-to-go runs backward
// from the destination over the same exits.
func (rt *RouteTables) index() {
	kw := rt.grid.kMax + 1
	rt.backOff = make([]int, len(rt.specs)+2)
	for s := 0; s <= len(rt.specs); s++ {
		st := rt.stages[rt.boundary(s)]
		band := st.maxJ - st.minJ + 1
		rt.backOff[s+1] = rt.backOff[s] + band*kw
		rt.maxBand = max(rt.maxBand, band)
	}
	for s, ets := range rt.entries {
		dst := rt.stages[rt.specs[s].EndStage]
		for i := range ets {
			et := &ets[i]
			rt.maxCross = max(rt.maxCross, len(et.exitJ))
			et.rowOff = make([]int32, len(et.exitJ))
			for c, j := range et.exitJ {
				if int(j) < dst.minJ || int(j) > dst.maxJ {
					panic(fmt.Sprintf("dp: crossing exits at velocity %d outside its boundary band [%d,%d]", j, dst.minJ, dst.maxJ))
				}
				off := (int(j) - dst.minJ) * kw
				et.rowOff[c] = int32(off)
				et.maxRowOff = max(et.maxRowOff, off)
			}
		}
	}

	m := len(rt.specs)
	rt.togo = make([][]float64, m+1)
	rt.togo[m] = []float64{0} // the destination band is velocity 0 alone
	for s := m - 1; s >= 0; s-- {
		dst, next := rt.stages[rt.specs[s].EndStage], rt.togo[s+1]
		row := make([]float64, len(rt.entries[s]))
		worst := 0.0
		for e := range rt.entries[s] {
			et := &rt.entries[s][e]
			row[e] = math.Inf(1)
			for c, j := range et.exitJ {
				row[e] = min(row[e], et.costAh[c]+next[int(j)-dst.minJ])
				worst = max(worst, math.Abs(et.costAh[c]))
			}
		}
		rt.togo[s] = row
		rt.costScale += worst
	}
}

// BuildRouteTables splits cfg.Route at its signal boundaries and solves
// each segment once per admissible entry velocity. cfg.Windows and
// cfg.DepartTime are ignored: windows bind at stitch time only.
//
// The (segment, entry velocity) sweeps are independent, so the build fans
// them out as one flat job list over cfg.Workers goroutines (par.ForEach)
// and runs each sweep serially: a segment sweep's stages are too narrow
// to split profitably, and one goroutine per job keeps the build's
// goroutine count at cfg.Workers. Each job sweeps on its own pooled slabs,
// whose backpointers are banded to its segment's stages, and writes only
// its own entry-table slot, so the tables are bit-identical for any worker
// count. The context is observed at every segment-stage boundary, exactly
// like OptimizeCtx; a failure reports the lowest failing job's error, as a
// serial loop would, and the workers are joined before the build returns.
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
	g, err := buildGrid(&cfg)
	if err != nil {
		return nil, err
	}
	stages, err := buildStages(cfg, g.n, g.ds, g.jMax)
	if err != nil {
		return nil, err
	}

	rt := &RouteTables{cfg: cfg, key: gridKeyOf(&cfg), stages: stages, grid: g, specs: segmentSpecs(stages)}
	type job struct{ seg, j0 int }
	var jobs []job
	for si, spec := range rt.specs {
		entry := stages[spec.StartStage]
		rt.entries = append(rt.entries, make([]entryTable, entry.maxJ-entry.minJ+1))
		for j0 := entry.minJ; j0 <= entry.maxJ; j0++ {
			jobs = append(jobs, job{si, j0})
		}
	}

	sw := newSweeper(&cfg, g, stages)
	kw := g.kMax + 1
	err = par.ForEach(cfg.Workers, len(jobs), func(i int) error {
		jb := jobs[i]
		a, b := rt.specs[jb.seg].StartStage, rt.specs[jb.seg].EndStage
		slabs := grabSlabs((g.jMax+1)*kw, 1, g.jMax+1, kw)
		defer slabPool.Put(slabs)
		// No windows inside a segment: signals sit only at boundaries,
		// where the stitcher applies the penalties.
		cost, exact, _, err := sw.sweep(ctx, nil, slabs, 1, a, b, jb.j0)
		if err != nil {
			return err
		}
		et, err := sw.crossingsOf(cost, exact, slabs, a, b, jb.j0)
		if err != nil {
			return err
		}
		rt.entries[jb.seg][jb.j0-stages[a].minJ] = et
		return nil
	})
	if err != nil {
		return nil, err
	}
	rt.index()
	return rt, nil
}

// segmentSpecs splits the stage array at its signals: one spec per
// segment, its boundaries running source, every signal stage, destination.
// Deriving the split from the stage array keeps it consistent with the
// solver's Δs snapping; a build and an import derive the same specs.
func segmentSpecs(stages []stageInfo) []SegmentSpec {
	bounds := []int{0}
	for i, st := range stages {
		if st.signal != nil {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(stages)-1)
	specs := make([]SegmentSpec, len(bounds)-1)
	for s := range specs {
		a, b := bounds[s], bounds[s+1]
		specs[s] = SegmentSpec{StartStage: a, EndStage: b, StartM: stages[a].posM, EndM: stages[b].posM}
		if sig := stages[b].signal; sig != nil {
			specs[s].BoundaryName = sig.Name
		}
	}
	return specs
}

// crossingsOf extracts every finite exit state of a segment sweep over
// stages [a, b] from entry j0 as a crossing table, in ascending (exit
// velocity, bucket) order. cost and exact hold stage b; slabs holds the
// sweep's banded backpointers. The table's arrays are sized exactly (one
// counting pass first), so a build's resident tables carry no append
// slack.
func (sw *sweeper) crossingsOf(cost, exact []float64, slabs *solveSlabs, a, b, j0 int) (entryTable, error) {
	m := b - a
	stride := m + 1
	kw := sw.g.kMax + 1
	lo, hi := sw.stages[b].minJ*kw, (sw.stages[b].maxJ+1)*kw
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
			bp := slabs.back(i-1, sw.stages[a+i], jj, kk, kw)
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
// the penalty floor of the windowed boundary being written, and the lane
// buffers relaxEval fills. All of it is pointer-free, so the GC never
// scans it. Recycling is safe because each boundary's cost and backpointer
// band is re-seeded (inf / -1) before it is written, the floor is
// rewritten whole before each windowed boundary, exact cells are read only
// behind a finite cost, and lane cells only behind a mask bit set by the
// same relaxEval call.
type stitchSlabs struct {
	vals []float64 // 4 * maxBand*(kMax+1): curCost, nxtCost, curExact, nxtExact
	// A boundary cell's backpointer pair: from packs the predecessor
	// boundary state as entry<<16 | k (entry indexes the segment's entry
	// tables, -1 = unreached); cross is the bridging crossing's index in
	// that entry table.
	from, cross []int32
	floor       []float64 // kMax+1 buckets, see penaltyFloor
	lanes       relaxScratch
}

var stitchPool = sync.Pool{New: func() any { return new(stitchSlabs) }}

// grabStitchSlabs returns recycled stitch slabs grown to hold `cells` value
// cells per boundary, `backs` backpointer cells, a kw-bucket penalty floor
// and `lanes` crossings per relaxEval call.
func grabStitchSlabs(cells, backs, kw, lanes int) *stitchSlabs {
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
	if cap(sl.floor) < kw {
		sl.floor = make([]float64, kw)
	}
	sl.floor = sl.floor[:kw]
	if cap(sl.lanes.cand) < lanes {
		sl.lanes = newRelaxScratch(lanes)
	}
	return sl
}

// stitchStep is one boundary transition's commit state: the window test at
// the destination boundary and that boundary's banded slabs, indexed
// [rowOff + k2].
type stitchStep struct {
	ws              []queue.Window // sorted by Start (shrunkWindows' contract)
	hasWin          bool
	depart, penalty float64

	cost, exact []float64
	from, cross []int32
}

// commit is the scalar half of one (entry, k) source cell's relaxation:
// relaxEval has evaluated the entry's n crossings as lanes and improveFilter
// has cleared the lanes that cannot beat their destination even after the
// boundary's penalty floor, and StitchCtx calls commit only when a lane
// survived. commit walks the surviving mask bits in ascending crossing
// order, adds the exact window penalty at the absolute arrival time and
// keeps strict improvements against the live cell. Visit order across
// calls is (entry, k, crossing), so ties keep the first-visited
// predecessor. Arrival times ascend with the bucket inside one exit
// velocity and drop at the next, so the sorted-window cursor restarts
// whenever the arrival time decreases — correct for any crossing order,
// and so for any subset of it.
//
// The filter is exact (DESIGN.md §12): the floor never exceeds the
// penalty added here, so a dropped lane's cand+floor equals or undercuts
// this nc, and destination costs only fall during a boundary step, so it
// could never pass nc < cost during the step.
func (st *stitchStep) commit(et *entryTable, lanes *relaxScratch, n int, from int32) {
	wi, last := 0, 0.0
	tt, cd, kf := lanes.tot[:n], lanes.cand[:n], lanes.k2f[:n]
	rowOff := et.rowOff[:n]
	nb := (n + 3) >> 2
	for bi := 0; bi < nb; bi++ {
		m := lanes.mask[bi]
		if m == 0 {
			continue
		}
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
			idx := int(rowOff[i]) + int(kf[i])
			if nc < st.cost[idx] {
				st.cost[idx] = nc
				st.exact[idx] = tot
				st.from[idx] = from
				st.cross[idx] = int32(i)
			}
		}
	}
}

// floorMargin widens each bucket's arrival span in penaltyFloor, relative to
// the largest absolute time the row covers. An arrival's bucket comes from
// floor(tot·(1/Δt)+0.5) and its window test from depart+tot, a handful of
// roundings of at most 2⁻⁵³ relative each; 1e-9 covers them by six orders
// of magnitude, and costs a bucket its floor only when a window edge lies
// within nanoseconds of the bucket's span.
const floorMargin = 1e-9

// penaltyFloor fills floor[k2], one entry per destination time bucket
// k2 = 0..len(floor)-1, with a lower bound on the window penalty that
// stitchStep.commit adds to an arrival rounding into that bucket: penalty
// when the bucket's arrival span depart + [(k2−½)Δt, (k2+½)Δt), widened
// by the margin, misses every window, and 0 otherwise. The first bucket's
// span is open below (improveFilter clamps lower buckets into it) and the
// last, the clamp bucket, open above. ws is sorted by Start
// (shrunkWindows' contract); the windows need not be disjoint. A cursor
// drops each window whose End lies at or below the span, for this and every
// later bucket, so the row costs O(len(floor) + len(ws)); the first window
// left decides, since every later one starts no earlier.
func penaltyFloor(floor []float64, ws []queue.Window, depart, dtSec, penalty float64) {
	kMax := len(floor) - 1
	margin := float64(floorMargin * (math.Abs(depart) + float64(float64(len(floor))*dtSec)))
	wi := 0
	for k := range floor {
		lo, hi := math.Inf(-1), math.Inf(1)
		if k > 0 {
			lo = depart + float64((float64(k)-0.5)*dtSec) - margin
		}
		if k < kMax {
			hi = depart + float64((float64(k)+0.5)*dtSec) + margin
		}
		for wi < len(ws) && ws[wi].End <= lo {
			wi++
		}
		if wi < len(ws) && ws[wi].Start <= hi {
			floor[k] = 0
		} else {
			floor[k] = penalty
		}
	}
}

// boundMargin widens the stitch's pruning bound (stitchPass), relative to
// scale, which bounds the magnitude of every cost sum one request forms:
// costScale, every window penalty and |U|. The exactness argument
// (DESIGN.md §12) compares real sums, and the floats the pass compares are
// each a few additions away from them, every one off by at most 2⁻⁵³ of
// that scale. The margin at boundary s is boundMargin·(m−s)·scale: six
// orders of magnitude above the drift left between s and the destination,
// and larger by a whole step than at s+1, so a cell pruned at s stays
// pruned along every chain that leaves it.
const boundMargin = 1e-9

// StitchCtx assembles the optimal profile for one request from the solved
// segment tables: a DP over boundary states (velocity index × time bucket
// at each signal) whose transitions are the precomputed crossings, with
// window penalties applied at the boundaries. cfg supplies the per-request
// inputs — DepartTime, Windows, margins, PenaltyAh — and must match the
// build config on every grid-defining field (route, vehicle, Δs/Δv/Δt,
// trip budget, accel bounds, time weight, dwell), or an error is returned.
//
// The boundary DP runs as passes under a cost bound U (stitchPass): a
// source cell whose cost plus windowless cost-to-go (RouteTables.togo,
// plus the penalty of each window list ahead that admits no arrival)
// exceeds U is never relaxed. Penalties are non-negative, so that sum is a
// true lower bound on every completion of the cell, and a pass whose best
// destination cost is within U, or that pruned no cell that could reach
// the destination, returns the unpruned DP's plan bit for bit (DESIGN.md
// §12). The first bound sits four time buckets' worth of time weight above
// the windowless optimum LB. A pass that reaches the destination above U
// hands its cost on as the next bound, which is then exact; one that
// reaches nothing doubles the slack, at least to the cheapest cell it
// pruned, up to a penalty at every windowed boundary that is not a toll,
// and past that the last pass runs unbounded, today's full DP.
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
	return rt.stitch(ctx, cfg, true)
}

// stitch is StitchCtx with the bound schedule switchable: bounded=false
// runs the single pass at U = +Inf, the unpruned DP the schedule must
// reproduce bit for bit (TestStitchBoundedMatchesUnbounded).
func (rt *RouteTables) stitch(ctx context.Context, cfg Config, bounded bool) (*Result, error) {
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
	sl := grabStitchSlabs(rt.maxBand*kw, rt.backOff[m+1], kw, rt.maxCross)
	defer stitchPool.Put(sl)

	// A window list that admits no arrival (an oversaturated signal) is a
	// toll: every completion pays its penalty, so stitchPass adds it to
	// the cost-to-go. Every signal is a boundary, so widest prices a
	// penalty at each other windowed one: with that much slack the
	// windowless optimum itself fits under U, and a pass that still
	// reaches nothing was cut by the trip budget, which the bound does not
	// see.
	tolls := 0
	for _, sp := range rt.specs {
		if ws, ok := windows[sp.EndStage]; ok && len(ws) == 0 {
			tolls++
		}
	}
	lb := rt.togo[0][0] + float64(float64(tolls)*cfg.PenaltyAh)
	widest := float64(len(windows)-tolls) * cfg.PenaltyAh
	slack := float64(4 * cfg.TimeWeightAhPerSec * cfg.DtSec)
	u := math.Inf(1)
	if bounded {
		u = lb + slack
	}
	expanded := 0
	for {
		bestK, bestCost, least, exp, err := rt.stitchPass(ctx, &cfg, windows, tolls, sl, u,
			rt.costScale+float64(float64(len(windows))*cfg.PenaltyAh)+math.Abs(u))
		expanded += exp
		switch {
		case err != nil:
			return nil, err
		case bestK >= 0 && bestCost <= u, math.IsInf(least, 1):
			// Within the bound, or nothing that reaches the destination
			// was pruned: the pass is the unpruned DP's.
			return rt.reconstruct(cfg, windows, sl, bestK, bestCost, expanded)
		case bestK >= 0:
			u = bestCost // the optimum lies in (u, bestCost], so this bound is exact
		default:
			// Double the slack, and at least reach the cheapest pruned
			// cell, which no bound below it would relax.
			if next := min(max(2*slack, least-lb), widest); next > slack {
				slack, u = next, lb+next
			} else {
				u = math.Inf(1)
			}
		}
	}
}

// stitchPass runs the boundary DP once under the bound u, on the sweep's
// machinery (DESIGN.md §11–12). A finite source cell (entry velocity,
// bucket k) is relaxed when its cost plus windowless cost-to-go, plus the
// penalties of the tolls (window lists that admit no arrival) still
// ahead, stays within u plus boundary s's margin (boundMargin): relaxEval
// evaluates the entry's crossings as lanes — candidate cost costAh+c0,
// arrival durSec+elapsed, bucket floor(t·(1/Δt)+0.5), trip-budget mask —
// improveFilter drops the lanes that cannot improve their destination even
// after the boundary's penalty floor, and stitchStep.commit resolves the
// scatter for the rest. Both sums are the scalar ones with commuted
// operands, so they are bit-identical to the per-crossing loop they
// replace. At u = +Inf nothing is pruned.
//
// It leaves every boundary's backpointers in sl and returns the
// destination's cheapest bucket (-1 when the pass reached none), its cost,
// the least cost plus cost-to-go among the cells it pruned (+Inf when it
// pruned none that reach the destination) and the lanes it evaluated.
func (rt *RouteTables) stitchPass(ctx context.Context, cfg *Config, windows map[int][]queue.Window, tolls int,
	sl *stitchSlabs, u, scale float64) (bestK int, bestCost, least float64, expanded int, err error) {

	m := len(rt.specs)
	kw := rt.grid.kMax + 1
	cells := rt.maxBand * kw
	curCost, nxtCost := sl.vals[0*cells:1*cells], sl.vals[1*cells:2*cells]
	curExact, nxtExact := sl.vals[2*cells:3*cells], sl.vals[3*cells:4*cells]
	// Boundary 0 is the source, whose band is velocity 0 alone: elapsed 0.
	fillF64(curCost[:kw], inf)
	curCost[0], curExact[0] = 0, 0

	useAsm := useAsmKernels
	invDt, kMaxF := 1/cfg.DtSec, float64(rt.grid.kMax)
	lanes := &sl.lanes
	least = math.Inf(1)
	for s := 0; s < m; s++ {
		if err := ctx.Err(); err != nil {
			return -1, inf, least, expanded, err
		}
		src, dst := rt.stages[rt.specs[s].StartStage], rt.stages[rt.specs[s].EndStage]
		band := (dst.maxJ - dst.minJ + 1) * kw
		lo, hi := rt.backOff[s+1], rt.backOff[s+2]
		fillF64(nxtCost[:band], inf)
		fillI32(sl.from[lo:hi], -1)
		ws, hasWin := windows[rt.specs[s].EndStage]
		var floor []float64 // nil: no window binds, so no penalty to price
		if hasWin {
			floor = sl.floor
			penaltyFloor(floor, ws, cfg.DepartTime, cfg.DtSec, cfg.PenaltyAh)
		}
		step := stitchStep{
			ws: ws, hasWin: hasWin, depart: cfg.DepartTime, penalty: cfg.PenaltyAh,
			cost: nxtCost[:band], exact: nxtExact[:band],
			from: sl.from[lo:hi], cross: sl.cross[lo:hi],
		}
		limit := u + float64(boundMargin*float64(m-s)*scale)
		toll := float64(float64(tolls) * cfg.PenaltyAh)
		if hasWin && len(ws) == 0 {
			tolls--
		}
		for e := range rt.entries[s] {
			et := &rt.entries[s][e]
			n := len(et.exitJ)
			if n == 0 {
				continue
			}
			col, togo := (et.entryJ-src.minJ)*kw, rt.togo[s][e]+toll
			for k := 0; k < kw; k++ {
				c0 := curCost[col+k]
				if c0 >= inf {
					continue
				}
				if f := c0 + togo; f > limit {
					least = min(least, f)
					continue
				}
				mask := lanes.mask[:(n+3)>>2]
				relaxEval(lanes.cand[:n], lanes.tot[:n], lanes.k2f[:n], mask,
					et.costAh, et.durSec, c0, 0, curExact[col+k], cfg.MaxTripSec, invDt, kMaxF, useAsm)
				exp, kept := improveFilter(mask, lanes.cand[:n], lanes.k2f[:n], floor, et.rowOff, et.maxRowOff,
					step.cost, kMaxF, useAsm)
				expanded += exp
				if kept > 0 {
					step.commit(et, lanes, n, int32(e)<<16|int32(k))
				}
			}
		}
		curCost, nxtCost = nxtCost, curCost
		curExact, nxtExact = nxtExact, curExact
	}

	// Destination boundary: the final segment ends at the forced-zero
	// destination stage, whose band is velocity 0 alone.
	bestK, bestCost = -1, inf
	for k := 0; k < kw; k++ {
		if c := curCost[k]; c < bestCost {
			bestCost, bestK = c, k
		}
	}
	return bestK, bestCost, least, expanded, nil
}

// reconstruct assembles the plan a pass left in sl's backpointers, ending
// at destination bucket bestK (-1: no feasible trajectory).
func (rt *RouteTables) reconstruct(cfg Config, windows map[int][]queue.Window, sl *stitchSlabs,
	bestK int, bestCost float64, expanded int) (*Result, error) {

	if bestK < 0 {
		return nil, fmt.Errorf("dp: no feasible stitched trajectory within %.0f s (grid Δs=%.0f Δv=%.2f Δt=%.1f)",
			cfg.MaxTripSec, rt.grid.ds, cfg.DvMS, cfg.DtSec)
	}
	// Concatenate the winning crossings' stage paths (boundary stages are
	// shared, so segment s's first index overwrites segment s-1's last
	// with the same value).
	kw := rt.grid.kMax + 1
	js := make([]int, rt.grid.n+1)
	jj, kk := 0, bestK
	for s := len(rt.specs); s > 0; s-- {
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
