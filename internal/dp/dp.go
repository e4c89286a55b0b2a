// Package dp implements the dynamic-programming velocity optimizers of
// Kang et al. (ICDCS 2017) Section II-C.
//
// The route is discretized into equal-distance points s_0..s_N (Eq. 7); the
// DP searches over discrete (position, velocity, elapsed-time) states for
// the velocity profile minimizing pack charge (Eq. 8–9), subject to speed
// and acceleration limits (Eq. 7a–b), mandatory stops (Eq. 7c–d), and —
// for signalized intersections — arrival-time windows (Eq. 10–12).
//
// The arrival-window source distinguishes the optimizer variants:
//
//   - nil windows: prior DP in the style of Ozatay et al. [2] — signals
//     are ignored entirely.
//   - GreenWindows: the "current DP method" the paper compares against —
//     the EV must arrive during a green phase but queues are ignored.
//   - QueueAwareWindows: the paper's contribution — the EV must arrive
//     inside the zero-queue window T_q predicted by the QL model
//     (internal/queue), so it never meets a standing queue.
//
// One deliberate deviation from Eq. (12): the paper multiplies the
// transition cost by a large constant M outside the window. Since the EV
// model yields *negative* costs under regenerative braking, a
// multiplicative penalty would reward violations on regen segments; we use
// an additive penalty (PenaltyAh per violating arrival) which preserves the
// intended ordering for all cost signs.
package dp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"evvo/internal/ev"
	"evvo/internal/profile"
	"evvo/internal/queue"
	"evvo/internal/road"
)

// WindowsFunc returns the admissible absolute arrival-time windows at a
// signalized control, or nil when arrivals are unconstrained.
type WindowsFunc func(c road.Control) []queue.Window

// Config parameterizes Optimize. Zero fields take the documented defaults.
type Config struct {
	// Route is the drive geometry (required).
	Route *road.Route
	// Vehicle is the EV energy model (required; validated).
	Vehicle ev.Params
	// DepartTime is the absolute departure time in seconds; signal windows
	// are expressed in absolute time.
	DepartTime float64

	// MaxTripSec bounds the trip duration (default 600).
	MaxTripSec float64
	// DsM is the position discretization Δs in metres (default 50).
	DsM float64
	// DvMS is the velocity discretization Δv in m/s (default 0.5).
	DvMS float64
	// DtSec is the elapsed-time discretization Δt in seconds (default 1).
	DtSec float64

	// AccelMaxMS2 and DecelMaxMS2 are the acceleration bounds (both
	// positive magnitudes; defaults 2.5 and 1.5, the paper's comfort range).
	AccelMaxMS2, DecelMaxMS2 float64

	// PenaltyAh is the additive cost for arriving at a signal outside its
	// window (default 1.0 Ah, far above any trip's total).
	PenaltyAh float64
	// TimeWeightAhPerSec prices trip time so the optimizer does not crawl
	// to the time budget: the paper's method does not increase trip time
	// (Fig. 8), and its reference [2] bounds total travel time in the same
	// way. The default 0.0008 Ah/s puts the unconstrained optimum just
	// under the US-25 40 km/h minimum band (so the band binds and the EV
	// cruises its lower edge, as the paper's Fig. 6(b) profile does),
	// while still pricing a crawl out of ramp zones. Set negative to
	// force exactly 0.
	TimeWeightAhPerSec float64
	// WindowMarginSec shrinks each window's start to absorb the DP's
	// time-quantization drift (default 1 s).
	WindowMarginSec float64
	// WindowEndMarginSec shrinks each window's end. Arriving near a
	// window's end is fragile in execution — any traffic-induced delay
	// tips the arrival into the following red — so robust deployments set
	// this above the expected execution drift. Defaults to
	// WindowMarginSec.
	WindowEndMarginSec float64
	// StopDwellSec is the dwell at each stop sign (default 0, matching the
	// paper's Eq. 7c which only pins v = 0).
	StopDwellSec float64

	// Windows supplies arrival windows per signal; nil ignores signals.
	Windows WindowsFunc

	// Workers bounds the goroutines a solve or build uses. OptimizeCtx
	// splits each stage's relaxation over them; BuildRouteTables instead
	// fans its (segment, entry velocity) sweeps out over them and runs
	// each sweep serially. 0 uses runtime.GOMAXPROCS(0); 1 forces a
	// serial pass. Any worker count produces bit-identical results (see
	// parallel.go and segment.go), so this is purely a throughput knob.
	Workers int
}

func (c *Config) applyDefaults() {
	if c.MaxTripSec == 0 {
		c.MaxTripSec = 600
	}
	if c.DsM == 0 {
		c.DsM = 50
	}
	if c.DvMS == 0 {
		c.DvMS = 0.5
	}
	if c.DtSec == 0 {
		c.DtSec = 1
	}
	if c.AccelMaxMS2 == 0 {
		c.AccelMaxMS2 = 2.5
	}
	if c.DecelMaxMS2 == 0 {
		c.DecelMaxMS2 = 1.5
	}
	if c.PenaltyAh == 0 {
		c.PenaltyAh = 1.0
	}
	switch {
	case c.TimeWeightAhPerSec == 0:
		c.TimeWeightAhPerSec = 0.0008
	case c.TimeWeightAhPerSec < 0:
		c.TimeWeightAhPerSec = 0
	}
	if c.WindowMarginSec == 0 {
		c.WindowMarginSec = 1.0
	}
	if c.WindowEndMarginSec == 0 {
		c.WindowEndMarginSec = c.WindowMarginSec
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

func (c *Config) validate() error {
	if c.Route == nil {
		return fmt.Errorf("dp: config needs a route")
	}
	if err := c.Vehicle.Validate(); err != nil {
		return fmt.Errorf("dp: %w", err)
	}
	switch {
	case c.MaxTripSec <= 0:
		return fmt.Errorf("dp: max trip %.1f s must be positive", c.MaxTripSec)
	case c.DsM <= 0 || c.DvMS <= 0 || c.DtSec <= 0:
		return fmt.Errorf("dp: grid Δs=%.2f Δv=%.2f Δt=%.2f must all be positive", c.DsM, c.DvMS, c.DtSec)
	case c.AccelMaxMS2 <= 0 || c.DecelMaxMS2 <= 0:
		return fmt.Errorf("dp: accel bounds %.2f/%.2f must be positive", c.AccelMaxMS2, c.DecelMaxMS2)
	case c.StopDwellSec < 0:
		return fmt.Errorf("dp: stop dwell %.1f s must be non-negative", c.StopDwellSec)
	case !(c.PenaltyAh >= 0) || math.IsInf(c.PenaltyAh, 1):
		// Eq. (12) makes a red-light arrival cost more, never less, and the
		// improvement pre-test (improveFilter) of the sweep and the stitch
		// is exact only for a non-negative penalty. The negated compare
		// also rejects NaN.
		return fmt.Errorf("dp: window penalty %g Ah must be finite and non-negative", c.PenaltyAh)
	case c.WindowMarginSec < 0 || c.WindowEndMarginSec < 0:
		return fmt.Errorf("dp: window margins %.1f/%.1f s must be non-negative", c.WindowMarginSec, c.WindowEndMarginSec)
	case c.MaxTripSec/c.DtSec > 65534:
		return fmt.Errorf("dp: %.0f time buckets exceed the backpointer packing limit; raise Δt or lower MaxTripSec", c.MaxTripSec/c.DtSec)
	case c.Workers < 0:
		return fmt.Errorf("dp: worker count %d must be non-negative", c.Workers)
	}
	return nil
}

// maxPackedJ is the largest velocity index the int32 backpointer packing
// (j<<16 | k) can carry: one more and the shifted index reaches the sign
// bit, silently corrupting reconstruction. Optimize validates the velocity
// grid against it; the time buckets are bounded by validate above.
const maxPackedJ = 1<<15 - 1

// SignalArrival reports when the optimized profile reaches a signal and
// whether that arrival fell inside the admissible window.
type SignalArrival struct {
	Name       string
	PositionM  float64
	ArrivalSec float64 // absolute time
	InWindow   bool    // true when unconstrained
}

// Result is an optimized velocity profile with diagnostics.
type Result struct {
	// Profile is the optimal trajectory (absolute times).
	Profile *profile.Profile
	// ChargeAh is the modelled pack charge of the trajectory.
	ChargeAh float64
	// TripSec is the trip duration.
	TripSec float64
	// Arrivals describes each signal crossing.
	Arrivals []SignalArrival
	// Penalized is true when any signal arrival missed its window (the
	// trajectory is then best-effort, not queue-free).
	Penalized bool
	// StatesExpanded counts DP relaxations, for benchmarks. For a
	// coarse-refined result this is the fine (corridor) pass only; the
	// coarse pass's count is in Refined.
	StatesExpanded int
	// Refined is non-nil when the coarse-to-fine fast path produced this
	// result (OptimizeCoarseCtx, refine.go).
	Refined *RefineDiag
}

const inf = math.MaxFloat64

// stageInfo is the per-position discretized route description.
type stageInfo struct {
	posM       float64
	minJ, maxJ int           // admissible velocity-index band
	forceZero  bool          // stop sign / source / destination
	signal     *road.Control // non-nil if a signal sits here
	dwellSec   float64       // dwell after stopping here (stop signs)
}

// Optimize runs the DP and returns the minimum-charge velocity profile.
//
//lint:certify pure
func Optimize(cfg Config) (*Result, error) {
	return OptimizeCtx(context.Background(), cfg)
}

// dpGrid is the discretization shared by the monolithic DP and the
// segment-table solver (segment.go): both must derive the exact same grid
// from a Config or the stitched results would not be comparable to the
// monolithic ones.
type dpGrid struct {
	n    int     // stage count (route split into n equal Δs pieces)
	ds   float64 // realized Δs after rounding the route length onto n
	jMax int     // velocity indexes run 0..jMax
	kMax int     // time buckets run 0..kMax
}

// buildGrid derives the (position, velocity, time) discretization from a
// defaulted, validated Config.
func buildGrid(cfg *Config) (dpGrid, error) {
	r := cfg.Route
	n := int(math.Round(r.LengthM() / cfg.DsM))
	if n < 2 {
		n = 2
	}
	ds := r.LengthM() / float64(n)

	// Velocity grid: 0..jMax covering the fastest zone on the route. The
	// scan probes zone boundaries as well as stage points so a zone shorter
	// than Δs cannot shrink the grid (see routeMaxSpeed).
	maxSpeed := routeMaxSpeed(r, n, ds)
	jMax := int(math.Floor(maxSpeed/cfg.DvMS + 1e-9))
	if jMax < 1 {
		return dpGrid{}, fmt.Errorf("dp: velocity grid empty: max speed %.2f m/s below Δv %.2f", maxSpeed, cfg.DvMS)
	}
	if jMax > maxPackedJ {
		return dpGrid{}, fmt.Errorf("dp: %d velocity levels exceed the backpointer packing limit (%d); raise Δv above %.5f m/s for max speed %.2f m/s",
			jMax+1, maxPackedJ+1, maxSpeed/float64(maxPackedJ), maxSpeed)
	}
	kMax := int(math.Ceil(cfg.MaxTripSec / cfg.DtSec))
	return dpGrid{n: n, ds: ds, jMax: jMax, kMax: kMax}, nil
}

// shrunkWindows collects the admissible windows per signal stage,
// margin-shrunk and sorted by start time — the relaxation's commit loop
// walks them with a cursor and relies on the order. A stage present in the
// map with an empty slice means no admissible arrival at all (oversaturated
// queue): every arrival there is penalized. Stages absent from the map are
// unconstrained.
func shrunkWindows(cfg *Config, stages []stageInfo) map[int][]queue.Window {
	windows := make(map[int][]queue.Window)
	for i, st := range stages {
		if st.signal == nil || cfg.Windows == nil {
			continue
		}
		raw := cfg.Windows(*st.signal)
		if raw == nil {
			continue // unconstrained signal
		}
		ws := make([]queue.Window, 0, len(raw))
		for _, w := range raw {
			s, e := w.Start+cfg.WindowMarginSec, w.End-cfg.WindowEndMarginSec
			if e > s {
				ws = append(ws, queue.Window{Start: s, End: e})
			}
		}
		sort.Slice(ws, func(a, b int) bool { return ws[a].Start < ws[b].Start })
		windows[i] = ws
	}
	return windows
}

// OptimizeCtx is Optimize with cooperative cancellation. The context is
// checked at every stage boundary of the relaxation loop, so cancellation
// is observed within at most one stage's worth of work; the per-stage
// worker goroutines are always joined before the check, so an abandoned
// run leaks no goroutines and leaves no shared state behind (every array
// the pass touches is owned by this call). The returned error is ctx.Err()
// verbatim, so callers can match context.Canceled / DeadlineExceeded with
// errors.Is.
//
//lint:certify pure
func OptimizeCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res, _, err := optimizeCore(ctx, cfg, nil)
	return res, err
}

// optimizeCore runs the full DP on an already defaulted and validated
// Config. corr, when non-nil, restricts each stage's velocity band (the
// refine pass); nil solves the exact problem.
// Alongside the Result it returns the winning velocity-index sequence, the
// input the refine pass's corridor is built from.
func optimizeCore(ctx context.Context, cfg Config, corr *corridor) (*Result, []int, error) {
	g, err := buildGrid(&cfg)
	if err != nil {
		return nil, nil, err
	}
	n, ds, jMax, kMax := g.n, g.ds, g.jMax, g.kMax

	stages, err := buildStages(cfg, n, ds, jMax)
	if err != nil {
		return nil, nil, err
	}
	if corr != nil {
		corr.apply(stages)
	}

	windows := shrunkWindows(&cfg, stages)

	sw := newSweeper(&cfg, g, stages)
	kw := kMax + 1
	slabs := grabSlabs((jMax+1)*kw, cfg.Workers, jMax+1, kw)
	defer slabPool.Put(slabs)
	curCost, _, expanded, err := sw.sweep(ctx, windows, slabs, cfg.Workers, 0, n, 0)
	if err != nil {
		return nil, nil, err
	}

	// Destination: v = 0, best over arrival buckets (cur now holds stage n).
	bestK, bestCost := -1, inf
	for k := 0; k <= kMax; k++ {
		if c := curCost[k]; c < bestCost {
			bestCost, bestK = c, k
		}
	}
	if bestK < 0 {
		return nil, nil, fmt.Errorf("dp: no feasible trajectory within %.0f s (grid Δs=%.0f Δv=%.2f Δt=%.1f)",
			cfg.MaxTripSec, ds, cfg.DvMS, cfg.DtSec)
	}

	// Reconstruct velocity sequence.
	js := make([]int, n+1)
	ks := make([]int, n+1)
	js[n], ks[n] = 0, bestK
	for i := n; i > 0; i-- {
		bp := slabs.back(i-1, stages[i], js[i], ks[i], kw)
		if bp < 0 {
			return nil, nil, fmt.Errorf("dp: broken backpointer at stage %d", i)
		}
		js[i-1], ks[i-1] = int(bp>>16), int(bp&0xffff)
	}

	res, err := assemble(cfg, stages, js, ds, windows, bestCost, expanded)
	if err != nil {
		return nil, nil, err
	}
	return res, js, nil
}

// sweeper holds what every sweep over one grid shares: the defaulted
// config, the grid and its stages, the acceleration bands, the transposed
// traversal times and each stage's grade table. It is read-only once built
// — newSweeper fills every grade table the stages need, so no sweep writes
// the transition cache's map — and the table build's concurrent entry
// sweeps share one.
type sweeper struct {
	cfg    *Config
	g      dpGrid
	stages []stageInfo
	bands  *accelBands
	dTauT  []float64
	grades []*gradeTable // grades[i]: the piece from stage i to i+1
}

// newSweeper hoists the transition physics: the traversal time, charge ζ
// and power mask of a (j, j2) transition depend only on the speed pair and
// the stage grade — never on the time bucket — so they are computed once
// per pair per distinct grade instead of once per relaxation (a
// factor-kMax redundancy in the innermost loop otherwise).
func newSweeper(cfg *Config, g dpGrid, stages []stageInfo) *sweeper {
	bands := newAccelBands(cfg, g.ds, g.jMax)
	trans := newTransitionCache(cfg, g.ds, g.jMax, bands)
	grades := make([]*gradeTable, len(stages)-1)
	for i := range grades {
		grades[i] = trans.forGrade(cfg.Route.GradeAt(stages[i].posM + float64(g.ds/2)))
	}
	return &sweeper{cfg: cfg, g: g, stages: stages, bands: bands, dTauT: trans.dTauT, grades: grades}
}

// sweep relaxes stages a..b-1 on pooled slabs across at most `workers`
// goroutines per stage, starting from the one seeded state at stage a:
// velocity index j0, elapsed 0. It is the single stage loop of the package
// — the monolithic DP runs it over the whole route (0, n, 0), the
// segment-table build over each segment once per entry velocity. windows
// is keyed by absolute stage index; nil leaves every arrival
// unconstrained. Stage a+i+1's incoming backpointers land in band i of
// slabs.backs (solveSlabs.back); the returned cost and exact arrays hold
// stage b and alias slabs.vals, so they are valid until the slabs are
// reused.
//
// Value arrays are flattened [j*(kMax+1)+k]. The time bucket k discretizes
// the state space; exact carries the true elapsed time of each bucket's
// best path so window checks and the assembled profile do not suffer
// accumulated rounding drift. Only two stages are ever alive at once — the
// stage being read and the stage being written — so cost and exact are
// double-buffered rather than allocated per stage. Cells the relaxation
// never writes keep stale exact values from two stages back; they are
// unreachable, because every read is guarded by the freshly inf-seeded
// cost.
func (sw *sweeper) sweep(ctx context.Context, windows map[int][]queue.Window, slabs *solveSlabs,
	workers, a, b, j0 int) (cost, exact []float64, expanded int, err error) {

	cfg, g := sw.cfg, sw.g
	kw := g.kMax + 1
	width := (g.jMax + 1) * kw
	curCost := slabs.vals[0*width : 1*width]
	nxtCost := slabs.vals[1*width : 2*width]
	curExact := slabs.vals[2*width : 3*width]
	nxtExact := slabs.vals[3*width : 4*width]
	slabs.band(sw.stages[a+1:b+1], kw)
	fillF64(curCost, inf)
	curCost[j0*kw] = 0  // velocity j0, elapsed 0 at the entry stage
	curExact[j0*kw] = 0 // the one exact cell read without a commit having written it
	pool := slabs.pool
	pool.seed(j0, 0, kw)

	for i := 0; i < b-a; i++ {
		// Stage boundary: the previous stage's workers are already joined
		// (relaxPool.run waits on its WaitGroup), so returning here
		// abandons only this call's private arrays.
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
		cur, nxt := sw.stages[a+i], sw.stages[a+i+1]
		curLo, curHi := cur.minJ, cur.maxJ
		if i == 0 {
			// Only the seeded column is populated; narrowing the scan band
			// skips the guaranteed-inf columns.
			curLo, curHi = j0, j0
		}
		ws, hasWin := windows[a+i+1]
		// Only the destination band's columns are ever written or read back
		// (the next stage's predecessor scan stays inside it), so the
		// inf/-1 seeding is banded too — on recycled slabs the cells outside
		// hold stale values that no read can reach.
		nxtBack := slabs.backs[slabs.backOff[i]:slabs.backOff[i+1]]
		fillF64(nxtCost[nxt.minJ*kw:(nxt.maxJ+1)*kw], inf)
		fillI32(nxtBack, -1)
		pool.stage = stageRelax{
			kMax: g.kMax, tw: g.jMax + 1,
			curMinJ: curLo, curMaxJ: curHi,
			nxtMinJ: nxt.minJ, nxtMaxJ: nxt.maxJ,
			bands:   sw.bands,
			tr:      sw.grades[a+i],
			dTauT:   sw.dTauT,
			curCost: curCost, curExact: curExact,
			nxtCost: nxtCost, nxtExact: nxtExact,
			nxtBack: nxtBack,
			dwell:   cur.dwellSec, timeW: cfg.TimeWeightAhPerSec,
			maxTrip: cfg.MaxTripSec, invDt: 1 / cfg.DtSec,
			depart: cfg.DepartTime, penalty: cfg.PenaltyAh,
			ws: ws, hasWin: hasWin,
		}
		expanded += pool.run(workers)
		curCost, nxtCost = nxtCost, curCost
		curExact, nxtExact = nxtExact, curExact
		pool.advance()
	}
	return curCost, curExact, expanded, nil
}

// assemble rebuilds the continuous-time profile and diagnostics from the
// optimal velocity sequence.
func assemble(cfg Config, stages []stageInfo, js []int, ds float64,
	windows map[int][]queue.Window, _ float64, expanded int) (*Result, error) {

	n := len(stages) - 1
	var pts []profile.Point
	t := cfg.DepartTime
	var charge float64
	var arrivals []SignalArrival
	penalized := false

	pts = append(pts, profile.Point{T: t, Pos: stages[0].posM, V: 0})
	for i := 0; i < n; i++ {
		v, v2 := gridSpeed(js[i], cfg.DvMS), gridSpeed(js[i+1], cfg.DvMS)
		if d := stages[i].dwellSec; d > 0 {
			t += d
			pts = append(pts, profile.Point{T: t, Pos: stages[i].posM, V: 0})
		}
		vAvg := (v + v2) / 2
		if vAvg <= 0 {
			return nil, fmt.Errorf("dp: reconstructed zero-speed segment at stage %d", i)
		}
		dTau := ds / vAvg
		acc := (v2 - v) / dTau
		charge += cfg.Vehicle.Charge(vAvg, acc, cfg.Route.GradeAt(stages[i].posM+float64(ds/2)), dTau)
		// Emit the constant-acceleration kinematics densely (≈10 m steps)
		// so position-indexed consumers (simulator replay, plotting) see
		// the physical v(s) = sqrt(v² + 2a·s) curve rather than a single
		// coarse linear wedge across the whole Δs.
		// (With acceleration constant in time, v(s)² = v² + 2·acc·s and the
		// sub-segment time is (v(s) − v)/acc.)
		nSub := int(math.Ceil(ds / 10))
		for k := 1; k < nSub; k++ {
			sOff := ds * float64(k) / float64(nSub)
			vk := math.Sqrt(math.Max(0, float64(v*v)+float64(2*acc*sOff)))
			var tk float64
			if math.Abs(acc) < 1e-12 {
				tk = sOff / vAvg
			} else {
				tk = (vk - v) / acc
			}
			pts = append(pts, profile.Point{T: t + tk, Pos: stages[i].posM + sOff, V: vk})
		}
		t += dTau
		pts = append(pts, profile.Point{T: t, Pos: stages[i+1].posM, V: v2})

		if sig := stages[i+1].signal; sig != nil {
			in := true
			if ws, ok := windows[i+1]; ok {
				in = inAnyWindow(ws, t)
			}
			if !in {
				penalized = true
			}
			arrivals = append(arrivals, SignalArrival{
				Name: sig.Name, PositionM: sig.PositionM, ArrivalSec: t, InWindow: in,
			})
		}
	}
	prof, err := profile.New(pts)
	if err != nil {
		return nil, fmt.Errorf("dp: assembling profile: %w", err)
	}
	return &Result{
		Profile:        prof,
		ChargeAh:       charge,
		TripSec:        t - cfg.DepartTime,
		Arrivals:       arrivals,
		Penalized:      penalized,
		StatesExpanded: expanded,
	}, nil
}

func inAnyWindow(ws []queue.Window, t float64) bool {
	for _, w := range ws {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// buildStages discretizes the route: speed bands per stage, zero-forcing at
// the source, destination and stop signs, ramp-zone relaxation of minimum
// speed limits near mandatory stops, and signal annotations.
func buildStages(cfg Config, n int, ds float64, jMax int) ([]stageInfo, error) {
	r := cfg.Route
	stages := make([]stageInfo, n+1)

	// Zero points: places the EV must be at rest.
	zeroPos := []float64{0, r.LengthM()}
	for _, c := range r.StopSigns() {
		zeroPos = append(zeroPos, c.PositionM)
	}
	// Ramp distance: room to get between 0 and the local minimum band.
	rampDist := func(vmin float64) float64 {
		up := vmin * vmin / (2 * cfg.AccelMaxMS2)
		down := vmin * vmin / (2 * cfg.DecelMaxMS2)
		return math.Max(up, down) + ds
	}

	snap := func(pos float64) int { return int(math.Round(pos / ds)) }

	for i := 0; i <= n; i++ {
		pos := math.Min(float64(i)*ds, r.LengthM())
		mn, mx := r.SpeedLimits(math.Min(pos, r.LengthM()-1e-9))
		st := stageInfo{posM: pos}
		near := false
		for _, z := range zeroPos {
			if math.Abs(pos-z) <= rampDist(mn) {
				near = true
				break
			}
		}
		if near {
			mn = 0
		}
		st.minJ = int(math.Ceil(mn/cfg.DvMS - 1e-9))
		st.maxJ = int(math.Floor(mx/cfg.DvMS + 1e-9))
		if st.maxJ > jMax {
			st.maxJ = jMax
		}
		if st.minJ > st.maxJ {
			st.minJ = st.maxJ
		}
		stages[i] = st
	}

	used := map[int]string{0: "source", n: "destination"}
	stages[0].forceZero, stages[n].forceZero = true, true
	stages[0].minJ, stages[0].maxJ = 0, 0
	stages[n].minJ, stages[n].maxJ = 0, 0

	for _, c := range r.Controls() {
		i := snap(c.PositionM)
		if i <= 0 || i >= n {
			return nil, fmt.Errorf("dp: control %q at %.0f m snaps to route endpoint; refine Δs", c.Name, c.PositionM)
		}
		if prev, ok := used[i]; ok {
			return nil, fmt.Errorf("dp: control %q collides with %s at stage %d; refine Δs below %.0f m", c.Name, prev, i, ds)
		}
		used[i] = c.Name
		switch c.Kind {
		case road.ControlStopSign:
			stages[i].forceZero = true
			stages[i].minJ, stages[i].maxJ = 0, 0
			stages[i].dwellSec = cfg.StopDwellSec
		case road.ControlSignal:
			sig := c
			stages[i].signal = &sig
		}
	}
	return stages, nil
}
