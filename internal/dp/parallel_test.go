package dp

import (
	"context"
	"hash/fnv"
	"math/rand"
	"testing"

	"evvo/internal/ev"
	"evvo/internal/queue"
	"evvo/internal/road"
)

// requireIdenticalResults asserts bit-identical outcomes: equal charge,
// trip time, expansion count, arrivals and every profile point.
func requireIdenticalResults(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if want.ChargeAh != got.ChargeAh {
		t.Fatalf("%s: ChargeAh %v != serial %v", label, got.ChargeAh, want.ChargeAh)
	}
	if want.TripSec != got.TripSec {
		t.Fatalf("%s: TripSec %v != serial %v", label, got.TripSec, want.TripSec)
	}
	if want.StatesExpanded != got.StatesExpanded {
		t.Fatalf("%s: StatesExpanded %d != serial %d", label, got.StatesExpanded, want.StatesExpanded)
	}
	if want.Penalized != got.Penalized {
		t.Fatalf("%s: Penalized %v != serial %v", label, got.Penalized, want.Penalized)
	}
	if len(want.Arrivals) != len(got.Arrivals) {
		t.Fatalf("%s: %d arrivals != serial %d", label, len(got.Arrivals), len(want.Arrivals))
	}
	for i := range want.Arrivals {
		if want.Arrivals[i] != got.Arrivals[i] {
			t.Fatalf("%s: arrival %d %+v != serial %+v", label, i, got.Arrivals[i], want.Arrivals[i])
		}
	}
	wp, gp := want.Profile.Points(), got.Profile.Points()
	if len(wp) != len(gp) {
		t.Fatalf("%s: %d profile points != serial %d", label, len(gp), len(wp))
	}
	for i := range wp {
		if wp[i] != gp[i] {
			t.Fatalf("%s: profile point %d %+v != serial %+v", label, i, gp[i], wp[i])
		}
	}
}

// TestParallelMatchesSerialFig6 checks the tentpole's determinism claim on
// the paper's corridor: the gather-formulated parallel relaxation must be
// bit-identical to the serial pass for any worker count.
func TestParallelMatchesSerialFig6(t *testing.T) {
	wf, err := QueueAwareWindows(queue.US25Params(),
		ConstantArrivalRate(queue.VehPerHour(153)), 0, 900)
	if err != nil {
		t.Fatal(err)
	}
	cfg := coarseUS25(wf)
	cfg.DepartTime = 40
	cfg.StopDwellSec = 2
	cfg.Workers = 1
	serial, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		c := cfg
		c.Workers = workers
		got, err := Optimize(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireIdenticalResults(t, serial, got, "fig6 corridor")
	}
}

// TestParallelMatchesSerialRandomRoutes repeats the parity check on
// randomized corridors with grades, speed zones, stop signs and signals.
func TestParallelMatchesSerialRandomRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(774421))
	for trial := 0; trial < 6; trial++ {
		length := 1200 + rng.Float64()*1800
		route, err := road.NewRoute(road.RouteConfig{
			LengthM: length, DefaultMaxMS: 14 + rng.Float64()*6,
			Controls: []road.Control{
				{Kind: road.ControlStopSign, PositionM: 300 + rng.Float64()*200, Name: "s0"},
				{Kind: road.ControlSignal, PositionM: length * 0.6,
					Timing: road.SignalTiming{RedSec: 20 + rng.Float64()*20, GreenSec: 25 + rng.Float64()*15}, Name: "l0"},
			},
			SpeedZones: []road.SpeedZone{
				{StartM: length * 0.2, EndM: length * 0.4, MinMS: 0, MaxMS: 10 + rng.Float64()*4},
			},
			GradeZones: []road.GradeZone{
				{StartM: 0, EndM: length * 0.3, ThetaRad: 0.02},
				{StartM: length * 0.5, EndM: length * 0.8, ThetaRad: -0.015},
			},
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cfg := Config{
			Route: route, Vehicle: ev.SparkEV(),
			DsM: 100, DvMS: 1, DtSec: 2, MaxTripSec: 900,
			DepartTime: rng.Float64() * 60,
			Windows:    GreenWindows(0, 1200),
			Workers:    1,
		}
		serial, err := Optimize(cfg)
		if err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}
		par := cfg
		par.Workers = 4
		got, err := Optimize(par)
		if err != nil {
			t.Fatalf("trial %d parallel: %v", trial, err)
		}
		requireIdenticalResults(t, serial, got, "random route")
	}
}

// TestOptimizeGolden pins exact plans bit for bit on the production grid
// and the coarse test grid (stitchGrids()[0:2], 12 and 30 requests of the
// stitch golden stream), with the lane kernels forced on and off and one
// and two stage workers: the gather relaxation is a performance target,
// and any change to its visit order, tie-break, bucket rule, window test,
// improvement pre-test or expansion count shows up here as a different
// digest.
func TestOptimizeGolden(t *testing.T) {
	const want = 0x7cbeae69f61a9cbc
	grids := stitchGrids()[:2]
	requests := []int{12, 30}
	defer SetAsmKernels(SetAsmKernels(true))
	for _, asm := range []bool{true, false} {
		SetAsmKernels(asm)
		for _, workers := range []int{1, 2} {
			h := fnv.New64a()
			for gi, grid := range grids {
				for i := 0; i < requests[gi]; i++ {
					cfg := stitchRequest(t, grid, i)
					cfg.Workers = workers
					res, err := OptimizeCtx(context.Background(), cfg)
					if err != nil {
						t.Fatalf("kernels=%v workers=%d grid %d request %d: %v", KernelsEnabled(), workers, gi, i, err)
					}
					resultHash(h, res)
				}
			}
			if got := h.Sum64(); got != want {
				t.Fatalf("kernels=%v workers=%d: exact plans hash %#016x, want %#016x",
					KernelsEnabled(), workers, got, uint64(want))
			}
		}
	}
}

// TestOptimizeWorkersValidation rejects negative worker counts.
func TestOptimizeWorkersValidation(t *testing.T) {
	cfg := coarseUS25(nil)
	cfg.Workers = -2
	if _, err := Optimize(cfg); err == nil {
		t.Fatal("negative worker count accepted")
	}
}

// TestStageGatherAllocFree pins the sweep's per-stage relaxation as
// allocation-free: gather runs once per worker per stage of every solve
// and table build, so all its buffers come from the relaxPool, and so does
// a parallel stage's fan-out state. The stage is the one entering the
// coarse US-25 grid's first windowed signal, relaxed from a real sweep, so
// the window-penalty path runs too.
func TestStageGatherAllocFree(t *testing.T) {
	cfg := stitchRequest(t, stitchGrids()[1], 0)
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	g, err := buildGrid(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := buildStages(cfg, g.n, g.ds, g.jMax)
	if err != nil {
		t.Fatal(err)
	}
	windows := shrunkWindows(&cfg, stages)
	a := 1
	for ; a < g.n; a++ {
		if _, ok := windows[a+1]; ok {
			break
		}
	}
	if a == g.n {
		t.Fatal("no windowed stage on the test route")
	}
	sw := newSweeper(&cfg, g, stages)
	kw := g.kMax + 1
	width := (g.jMax + 1) * kw
	slabs := &solveSlabs{vals: make([]float64, 4*width), pool: newRelaxPool(1, g.jMax+1, kw)}
	cost, exact, _, err := sw.sweep(context.Background(), windows, slabs, 1, 0, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	cur, nxt := stages[a], stages[a+1]
	nxtCost, nxtBack := make([]float64, width), make([]int32, (nxt.maxJ-nxt.minJ+1)*kw)
	fillF64(nxtCost, inf)
	fillI32(nxtBack, -1)
	ws, hasWin := windows[a+1]
	pool := slabs.pool
	for _, asm := range []bool{false, asmSupported} {
		sr := &stageRelax{
			kMax: g.kMax, tw: g.jMax + 1,
			curMinJ: cur.minJ, curMaxJ: cur.maxJ,
			nxtMinJ: nxt.minJ, nxtMaxJ: nxt.maxJ,
			bands:   sw.bands,
			tr:      sw.grades[a],
			dTauT:   sw.dTauT,
			curCost: cost, curExact: exact,
			nxtCost: nxtCost, nxtExact: make([]float64, width),
			nxtBack: nxtBack,
			dwell:   cur.dwellSec, timeW: cfg.TimeWeightAhPerSec,
			maxTrip: cfg.MaxTripSec, invDt: 1 / cfg.DtSec,
			depart: cfg.DepartTime, penalty: cfg.PenaltyAh,
			ws: ws, hasWin: hasWin,
			kLo: pool.kLo, kHi: pool.kHi, nxtKLo: pool.nxtKLo, nxtKHi: pool.nxtKHi,
			useAsm: asm,
		}
		if n := sr.gather(sr.nxtMinJ, sr.nxtMaxJ, &pool.per[0]); n == 0 {
			t.Fatalf("%s: stage %d relaxed no states", kernelName(asm), a)
		}
		allocs := testing.AllocsPerRun(20, func() {
			sr.gather(sr.nxtMinJ, sr.nxtMaxJ, &pool.per[0])
		})
		if allocs != 0 {
			t.Errorf("%s: stageRelax.gather allocates %.1f times per call, want 0", kernelName(asm), allocs)
		}
	}

	// A two-worker stage starts its helpers from the pool's prebuilt
	// closures and counts into the pool, so the fan-out allocates nothing
	// either. The race detector allocates per goroutine, so it skips this.
	if raceEnabled {
		return
	}
	two := newRelaxPool(2, g.jMax+1, kw)
	copy(two.kLo, pool.kLo)
	copy(two.kHi, pool.kHi)
	two.stage = stageRelax{
		kMax: g.kMax, tw: g.jMax + 1,
		curMinJ: cur.minJ, curMaxJ: cur.maxJ,
		nxtMinJ: nxt.minJ, nxtMaxJ: nxt.maxJ,
		bands: sw.bands, tr: sw.grades[a], dTauT: sw.dTauT,
		curCost: cost, curExact: exact,
		nxtCost: nxtCost, nxtExact: make([]float64, width),
		nxtBack: nxtBack,
		dwell:   cur.dwellSec, timeW: cfg.TimeWeightAhPerSec,
		maxTrip: cfg.MaxTripSec, invDt: 1 / cfg.DtSec,
		depart: cfg.DepartTime, penalty: cfg.PenaltyAh,
		ws: ws, hasWin: hasWin,
	}
	if n := two.run(2); n == 0 {
		t.Fatalf("two-worker stage %d relaxed no states", a)
	}
	if allocs := testing.AllocsPerRun(20, func() { two.run(2) }); allocs != 0 {
		t.Errorf("relaxPool.run at two workers allocates %.1f times per stage, want 0", allocs)
	}
}

// BenchmarkOptimizeUS25 times an exact production-grid solve, the cost of
// every exact-rung request and the per-request work that a warm stitch
// (BenchmarkStitchUS25) replaces, once per window variant: the gather's
// improvement pre-test passes a different share of lanes for queue-aware,
// green and window-free requests.
func BenchmarkOptimizeUS25(b *testing.B) {
	grid := stitchGrids()[0]
	// stitchRequest cycles queue-aware, green, none with i%3.
	for i, name := range []string{"queue-aware", "green", "no-window"} {
		cfg := stitchRequest(b, grid, i)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := OptimizeCtx(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
