package dp

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"evvo/internal/ev"
	"evvo/internal/queue"
	"evvo/internal/road"
)

// stitchGrids are the grids TestStitchGolden pins: the production default,
// the coarse test grid with a stop dwell, a Δt that does not divide the
// crossing durations evenly, and an off-ratio grid with a 1 s dwell.
func stitchGrids() []Config {
	base := func(ds, dv, dt, dwell float64) Config {
		return Config{Route: road.US25(), Vehicle: ev.SparkEV(),
			DsM: ds, DvMS: dv, DtSec: dt, StopDwellSec: dwell}
	}
	return []Config{
		base(0, 0, 0, 0),
		base(100, 1, 2, 2),
		base(50, 0.5, 0.7, 0),
		base(75, 0.75, 1.5, 1),
	}
}

// stitchRequest is request i of the golden stream on the grid cfg: departure
// i·3.7 s, arrival rate 100+10·(i%16) veh/h, and a window variant cycling
// queue-aware, green, none.
func stitchRequest(t testing.TB, cfg Config, i int) Config {
	t.Helper()
	cfg.DepartTime = 3.7 * float64(i)
	switch i % 3 {
	case 0:
		wf, err := QueueAwareWindows(queue.US25Params(),
			ConstantArrivalRate(queue.VehPerHour(float64(100+10*(i%16)))), 0, 1200)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Windows = wf
	case 1:
		cfg.Windows = GreenWindows(0, 1200)
	}
	return cfg
}

// resultHash digests a plan bit for bit: charge and trip bits, the penalty
// flag, the expansion count and every profile point.
func resultHash(h interface{ Write([]byte) (int, error) }, res *Result) {
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:])
	}
	put(math.Float64bits(res.ChargeAh))
	put(math.Float64bits(res.TripSec))
	if res.Penalized {
		put(1)
	} else {
		put(0)
	}
	put(uint64(res.StatesExpanded))
	for _, p := range res.Profile.Points() {
		put(math.Float64bits(p.T))
		put(math.Float64bits(p.Pos))
		put(math.Float64bits(p.V))
	}
}

// planHash digests the plan alone: resultHash of res with its expansion
// count zeroed, so a change to the work a solve does leaves it unchanged.
func planHash(h interface{ Write([]byte) (int, error) }, res *Result) {
	plan := *res
	plan.StatesExpanded = 0
	resultHash(h, &plan)
}

// TestStitchGolden pins stitched plans bit for bit across four grids and a
// 60-request stream each (240 plans), with the lane kernels forced on and
// off: the stitch's boundary DP is a performance target, and any change to
// its visit order, tie-break, bucket rule, window test, improvement
// pre-test or pruning bound shows up here as a different plan digest. The
// digest is the one the unpruned stitch produced. The lanes the bounded
// passes evaluate (StatesExpanded summed over the stream) are pinned
// apart from it, and must stay below the unpruned stitch's count.
func TestStitchGolden(t *testing.T) {
	const (
		wantPlans     = 0xda610445f22b9b88
		wantLanes     = 17214376
		unprunedLanes = 355512282
	)
	grids := stitchGrids()
	tables := make([]*RouteTables, len(grids))
	for gi, grid := range grids {
		tables[gi] = buildTestTables(t, grid)
	}
	defer SetAsmKernels(SetAsmKernels(true))
	for _, asm := range []bool{true, false} {
		SetAsmKernels(asm)
		h := fnv.New64a()
		lanes := 0
		for gi, grid := range grids {
			for i := 0; i < 60; i++ {
				res, err := tables[gi].StitchCtx(context.Background(), stitchRequest(t, grid, i))
				if err != nil {
					t.Fatalf("kernels=%v grid %d request %d: %v", KernelsEnabled(), gi, i, err)
				}
				planHash(h, res)
				lanes += res.StatesExpanded
			}
		}
		if got := h.Sum64(); got != wantPlans {
			t.Fatalf("kernels=%v: stitched plans hash %#016x, want %#016x", KernelsEnabled(), got, uint64(wantPlans))
		}
		if lanes != wantLanes || lanes >= unprunedLanes {
			t.Fatalf("kernels=%v: stitch evaluated %d lanes, want %d (unpruned: %d)", KernelsEnabled(), lanes, wantLanes, unprunedLanes)
		}
	}
}

// boundCorridor draws a random corridor for TestStitchBoundedMatchesUnbounded:
// 1.0–1.8 km, one to three signals with a stop sign between two of them
// at random, and a downhill stretch steep enough that its crossings
// regenerate charge.
func boundCorridor(t *testing.T, rng *rand.Rand) *road.Route {
	t.Helper()
	length := 50 * math.Round((1000+800*rng.Float64())/50)
	var controls []road.Control
	for pos := 400.0; pos < length-300; pos += 350 + 250*rng.Float64() {
		c := road.Control{Kind: road.ControlSignal, PositionM: 50 * math.Round(pos/50),
			Timing: road.SignalTiming{RedSec: 15 + 20*rng.Float64(), GreenSec: 15 + 25*rng.Float64(), OffsetSec: 40 * rng.Float64()}}
		if len(controls) > 0 && rng.Intn(4) == 0 {
			c = road.Control{Kind: road.ControlStopSign, PositionM: c.PositionM}
		}
		c.Name = fmt.Sprintf("c%d", len(controls))
		controls = append(controls, c)
	}
	start := 50 * math.Round(length*rng.Float64()/100)
	r, err := road.NewRoute(road.RouteConfig{
		LengthM: length, DefaultMaxMS: 14 + 4*rng.Float64(), Controls: controls,
		GradeZones: []road.GradeZone{{StartM: start, EndM: start + length/2, ThetaRad: -0.04 - 0.05*rng.Float64()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStitchBoundedMatchesUnbounded: on seeded random corridors, StitchCtx's
// bound schedule returns the plan of the single unpruned pass (the
// bounded=false hook, U = +Inf) bit for bit, or the same error. The
// requests cover queue-aware windows from light to oversaturated traffic,
// green windows, no windows, windows that admit no arrival (every plan
// penalized), a penalty small enough that a penalized plan wins, downhill
// grades, a zero time weight and a trip budget no stitch meets, and the
// test checks that the penalized, negative-charge and infeasible cases
// occurred.
func TestStitchBoundedMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	qp := queue.US25Params()
	saturated := qp.VMinMS/qp.SpacingM + 0.5
	windows := map[string]func(depart float64) WindowsFunc{
		"none":  func(float64) WindowsFunc { return nil },
		"green": func(d float64) WindowsFunc { return GreenWindows(d, d+900) },
		"empty": func(float64) WindowsFunc {
			return func(road.Control) []queue.Window { return []queue.Window{} }
		},
		"queue-aware": func(d float64) WindowsFunc {
			rate := queue.VehPerHour(100 + 400*rng.Float64())
			if rng.Intn(4) == 0 {
				rate = saturated
			}
			wf, err := QueueAwareWindows(qp, ConstantArrivalRate(rate), d, d+900)
			if err != nil {
				t.Fatal(err)
			}
			return wf
		},
	}
	names := []string{"none", "green", "empty", "queue-aware"}
	var plans, penalized, smallPenaltyWins, regenerating, infeasible int
	for trial := 0; trial < 5; trial++ {
		route := boundCorridor(t, rng)
		for _, tables := range []struct {
			name        string
			timeWeight  float64
			maxTripSec  float64
			wantFailure bool
		}{{"default", 0, 300, false}, {"zero time weight", -1, 300, false}, {"tight budget", 0, 45, true}} {
			grid := Config{Route: route, Vehicle: ev.SparkEV(), DsM: 50, DvMS: 1, DtSec: 2,
				MaxTripSec: tables.maxTripSec, TimeWeightAhPerSec: tables.timeWeight}
			rt := buildTestTables(t, grid)
			for i := 0; i < 12; i++ {
				cfg := grid
				cfg.DepartTime = 200 * rng.Float64()
				name := names[i%len(names)]
				cfg.Windows = windows[name](cfg.DepartTime)
				small := i%8 >= 4
				if small {
					cfg.PenaltyAh = 0.0005 + 0.005*rng.Float64()
				}
				want, wantErr := rt.stitch(context.Background(), cfg, false)
				got, gotErr := rt.stitch(context.Background(), cfg, true)
				label := fmt.Sprintf("trial %d %s %s (penalty %g, depart %.1f)", trial, tables.name, name, cfg.PenaltyAh, cfg.DepartTime)
				if (wantErr != nil) != tables.wantFailure {
					t.Fatalf("%s: unbounded stitch error %v, want failure %v", label, wantErr, tables.wantFailure)
				}
				if wantErr != nil {
					if gotErr == nil || gotErr.Error() != wantErr.Error() {
						t.Fatalf("%s: bounded error %v, unbounded %v", label, gotErr, wantErr)
					}
					infeasible++
					continue
				}
				if gotErr != nil {
					t.Fatalf("%s: bounded stitch failed: %v", label, gotErr)
				}
				hw, hg := fnv.New64a(), fnv.New64a()
				planHash(hw, want)
				planHash(hg, got)
				if hw.Sum64() != hg.Sum64() {
					t.Fatalf("%s: bounded plan (%.9f Ah, %.3f s) differs from unbounded (%.9f Ah, %.3f s)",
						label, got.ChargeAh, got.TripSec, want.ChargeAh, want.TripSec)
				}
				plans++
				if want.Penalized {
					penalized++
					if small && name != "empty" {
						smallPenaltyWins++
					}
				}
				if want.ChargeAh < 0 {
					regenerating++
				}
			}
		}
	}
	t.Logf("%d plans (%d penalized, %d by a small penalty, %d regenerating), %d infeasible",
		plans, penalized, smallPenaltyWins, regenerating, infeasible)
	if penalized == 0 || smallPenaltyWins == 0 || regenerating == 0 || infeasible == 0 {
		t.Fatalf("the stream missed a case: %d penalized, %d by a small penalty, %d regenerating, %d infeasible",
			penalized, smallPenaltyWins, regenerating, infeasible)
	}
}

// TestStitchCtxConcurrentPooled: concurrent stitches on one RouteTables
// share the pooled slabs without interference — every result equals the
// serial stitch of the same request. The name matches `make chaos`'s Ctx
// filter, so the check also runs under the race detector.
func TestStitchCtxConcurrentPooled(t *testing.T) {
	const goroutines, perG = 4, 6
	grid := stitchGrids()[1]
	rt := buildTestTables(t, grid)
	cfgs := make([]Config, goroutines*perG)
	want := make([]uint64, len(cfgs))
	for i := range cfgs {
		cfgs[i] = stitchRequest(t, grid, i)
		res, err := rt.StitchCtx(context.Background(), cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		resultHash(h, res)
		want[i] = h.Sum64()
	}
	got := make([]uint64, len(want))
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < perG; r++ {
				// Interleave the requests so goroutines hand slabs of
				// different windows and departures through the pool.
				i := r*goroutines + g
				res, err := rt.StitchCtx(context.Background(), cfgs[i])
				if err != nil {
					errs[g] = err
					return
				}
				h := fnv.New64a()
				resultHash(h, res)
				got[i] = h.Sum64()
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d: concurrent stitch hash %#016x, serial %#016x", i, got[i], want[i])
		}
	}
}

// TestStitchCtxWarmAllocs: with the slab pool warm, a production-grid
// US-25 stitch allocates only its result and per-request window set — the
// boundary slabs, backpointers and lanes all come from the pool.
func TestStitchCtxWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	const budget = 256 << 10 // bytes per stitch
	grid := stitchGrids()[0]
	rt := buildTestTables(t, grid)
	cfg := stitchRequest(t, grid, 0)
	if _, err := rt.StitchCtx(context.Background(), cfg); err != nil {
		t.Fatal(err) // warm the pool
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := rt.StitchCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Fatalf("warm StitchCtx allocates %d B per call, budget %d B", per, budget)
	} else {
		t.Logf("warm StitchCtx allocates %d B per call", per)
	}
}

// TestStitchCommitAllocFree pins the stitch's scalar commit as
// allocation-free: it runs once per finite source cell of every boundary
// of every request. The lanes are one real entry table's crossings into
// the coarse grid's first windowed boundary, unfiltered, so every
// in-budget lane reaches the window test and the cell compare.
func TestStitchCommitAllocFree(t *testing.T) {
	grid := stitchGrids()[1]
	rt := buildTestTables(t, grid)
	cfg := stitchRequest(t, grid, 0)
	cfg.applyDefaults()
	windows := shrunkWindows(&cfg, rt.stages)
	s := 0
	for ; s < len(rt.specs); s++ {
		if _, ok := windows[rt.specs[s].EndStage]; ok {
			break
		}
	}
	if s == len(rt.specs) {
		t.Fatal("no windowed boundary on the test route")
	}
	et := &rt.entries[s][0]
	n := len(et.exitJ)
	if n == 0 {
		t.Fatalf("segment %d entry 0 has no crossings", s)
	}
	kw := rt.grid.kMax + 1
	dst := rt.stages[rt.specs[s].EndStage]
	band := (dst.maxJ - dst.minJ + 1) * kw
	ws, hasWin := windows[rt.specs[s].EndStage]
	step := stitchStep{
		ws: ws, hasWin: hasWin, depart: cfg.DepartTime, penalty: cfg.PenaltyAh,
		cost: make([]float64, band), exact: make([]float64, band),
		from: make([]int32, band), cross: make([]int32, band),
	}
	fillF64(step.cost, inf)
	lanes := newRelaxScratch(n)
	relaxEval(lanes.cand, lanes.tot, lanes.k2f, lanes.mask, et.costAh, et.durSec,
		0, 0, 0, cfg.MaxTripSec, 1/cfg.DtSec, float64(rt.grid.kMax), false)
	step.commit(et, &lanes, n, 0)
	reached := 0
	for _, c := range step.cost {
		if c < inf {
			reached++
		}
	}
	if reached == 0 {
		t.Fatalf("commit into boundary %d reached no cell", s)
	}
	allocs := testing.AllocsPerRun(20, func() {
		step.commit(et, &lanes, n, 0)
	})
	if allocs != 0 {
		t.Errorf("stitchStep.commit allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkStitchUS25 times a warm production-grid stitch (tables built
// outside the timer), the per-request cost a serving node pays, once per
// window variant: the improvement pre-test passes a different share of
// lanes for queue-aware, green and window-free requests.
func BenchmarkStitchUS25(b *testing.B) {
	grid := stitchGrids()[0]
	rt, err := BuildRouteTables(context.Background(), grid)
	if err != nil {
		b.Fatal(err)
	}
	// stitchRequest cycles queue-aware, green, none with i%3.
	for i, name := range []string{"queue-aware", "green", "no-window"} {
		cfg := stitchRequest(b, grid, i)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := rt.StitchCtx(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
