package dp

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"evvo/internal/ev"
	"evvo/internal/queue"
	"evvo/internal/road"
)

func buildTestTables(t *testing.T, cfg Config) *RouteTables {
	t.Helper()
	rt, err := BuildRouteTables(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestRouteTablesLayout pins the segment decomposition of US-25: three
// segments split at the two signals, with the stop sign interior to the
// first segment, and the solve count = Σ per-segment entry velocities.
func TestRouteTablesLayout(t *testing.T) {
	rt := buildTestTables(t, coarseUS25(nil))
	segs := rt.Segments()
	if len(segs) != 3 {
		t.Fatalf("US-25 split into %d segments, want 3: %+v", len(segs), segs)
	}
	if segs[0].BoundaryName != "light-1" || segs[1].BoundaryName != "light-2" || segs[2].BoundaryName != "" {
		t.Fatalf("boundaries = %q %q %q", segs[0].BoundaryName, segs[1].BoundaryName, segs[2].BoundaryName)
	}
	if segs[0].StartM != 0 || segs[2].EndM != road.US25().LengthM() {
		t.Fatalf("segments do not span the route: %+v", segs)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].StartM != segs[i-1].EndM || segs[i].StartStage != segs[i-1].EndStage {
			t.Fatalf("segments %d/%d not contiguous: %+v", i-1, i, segs)
		}
	}
	if rt.SegmentSolves() < 3 {
		t.Fatalf("segmentSolves = %d, want at least one per segment", rt.SegmentSolves())
	}
	if rt.Crossings() == 0 {
		t.Fatal("no crossings extracted")
	}
	// Each boundary sits on the stage nearest its signal.
	const dsM = 100 // coarseUS25 grid
	for i, c := range road.US25().Signals() {
		if segs[i].BoundaryName != c.Name || !almost(segs[i].EndM, c.PositionM, dsM/2) {
			t.Fatalf("segment %d ends at %q %g m, signal %q sits at %g m",
				i, segs[i].BoundaryName, segs[i].EndM, c.Name, c.PositionM)
		}
	}
}

// stitchVsMonolith compares the stitched and monolithic solutions for one
// config. The two bucket elapsed time differently inside segments (the
// stitcher uses segment-relative buckets), so they may merge different path
// pairs; the disagreement must stay within bucket-quantization tolerance,
// never accumulate.
func stitchVsMonolith(t *testing.T, rt *RouteTables, cfg Config, chargeTolAh float64) {
	t.Helper()
	mono, err := OptimizeCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.StitchCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Penalized != mono.Penalized {
		t.Fatalf("penalized: stitched %v, monolithic %v", st.Penalized, mono.Penalized)
	}
	if !almost(st.ChargeAh, mono.ChargeAh, chargeTolAh) {
		t.Fatalf("charge: stitched %.6f Ah, monolithic %.6f Ah (tol %.6f)",
			st.ChargeAh, mono.ChargeAh, chargeTolAh)
	}
	if !almost(st.TripSec, mono.TripSec, 3*cfg.DtSec+1) {
		t.Fatalf("trip: stitched %.1f s, monolithic %.1f s", st.TripSec, mono.TripSec)
	}
	if len(st.Arrivals) != len(mono.Arrivals) {
		t.Fatalf("arrivals: stitched %d, monolithic %d", len(st.Arrivals), len(mono.Arrivals))
	}
	for i := range st.Arrivals {
		if st.Arrivals[i].InWindow != mono.Arrivals[i].InWindow {
			t.Fatalf("arrival %d in-window: stitched %v, monolithic %v",
				i, st.Arrivals[i].InWindow, mono.Arrivals[i].InWindow)
		}
	}
	// The stitched trajectory must be drivable end to end.
	if st.Profile.Distance() < cfg.Route.LengthM()-1 {
		t.Fatalf("stitched profile covers %.0f m of %.0f", st.Profile.Distance(), cfg.Route.LengthM())
	}
}

// TestStitchMatchesMonolithicFig6 is the tentpole parity gate: on the
// paper's Fig-6 scenario (US-25, queue-aware windows at the measured 153
// veh/h) the segment-stitched solver must agree with the monolithic
// queue-aware DP within bucket tolerance, across departures and variants —
// one table build serving all of them.
func TestStitchMatchesMonolithicFig6(t *testing.T) {
	const chargeTol = 0.01 // Ah; trips run ~0.3 Ah, penalties are 1.0
	wf, err := QueueAwareWindows(queue.US25Params(),
		ConstantArrivalRate(queue.VehPerHour(153)), 0, 1200)
	if err != nil {
		t.Fatal(err)
	}
	// One table build serves every departure and variant below. The route
	// instance is shared: tables key on the *road.Route identity.
	base := coarseUS25(nil)
	rt := buildTestTables(t, base)
	for _, depart := range []float64{0, 20, 40, 95} {
		cfg := base
		cfg.Windows = wf
		cfg.DepartTime = depart
		t.Run("queue-aware", func(t *testing.T) { stitchVsMonolith(t, rt, cfg, chargeTol) })
	}
	green := base
	green.Windows = GreenWindows(0, 1200)
	green.DepartTime = 40
	stitchVsMonolith(t, rt, green, chargeTol)
	free := base
	free.DepartTime = 40
	stitchVsMonolith(t, rt, free, chargeTol)
}

// TestStitchOpenRoadExact: without signals the route is one segment whose
// table solve runs the identical relaxation to the monolithic DP, so the
// stitched answer is exact, not just within tolerance.
func TestStitchOpenRoadExact(t *testing.T) {
	r, err := road.NewRoute(road.RouteConfig{LengthM: 1000, DefaultMaxMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Route: r, Vehicle: ev.SparkEV(), DsM: 50, DvMS: 1, DtSec: 1, MaxTripSec: 300}
	rt := buildTestTables(t, cfg)
	if got := len(rt.Segments()); got != 1 {
		t.Fatalf("open road split into %d segments", got)
	}
	mono, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.StitchCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(st.ChargeAh, mono.ChargeAh, 1e-12) || !almost(st.TripSec, mono.TripSec, 1e-9) {
		t.Fatalf("single-segment stitch diverged: charge %.9f vs %.9f, trip %.3f vs %.3f",
			st.ChargeAh, mono.ChargeAh, st.TripSec, mono.TripSec)
	}
}

// TestStitchConfigMismatch: a stitch config differing in a grid-defining
// field must be rejected, not silently answered off the wrong tables.
func TestStitchConfigMismatch(t *testing.T) {
	base := coarseUS25(nil)
	rt := buildTestTables(t, base)
	bad := base
	bad.DvMS = 0.5
	if _, err := rt.StitchCtx(context.Background(), bad); err == nil {
		t.Fatal("mismatched Δv accepted")
	}
	bad = base
	bad.TimeWeightAhPerSec = 0.002
	if _, err := rt.StitchCtx(context.Background(), bad); err == nil {
		t.Fatal("mismatched time weight accepted")
	}
	// A different route instance means different tables, even for the same
	// geometry: tables key on the immutable *road.Route identity.
	bad = base
	bad.Route = road.US25()
	if _, err := rt.StitchCtx(context.Background(), bad); err == nil {
		t.Fatal("foreign route instance accepted")
	}
	// Stitch-time fields may differ freely: DepartTime, windows, margins.
	ok := base
	ok.Windows = GreenWindows(0, 900)
	ok.DepartTime = 123
	ok.WindowMarginSec = 2
	if _, err := rt.StitchCtx(context.Background(), ok); err != nil {
		t.Fatalf("stitch-time fields rejected: %v", err)
	}
}

// TestBuildRouteTablesCancel: build and stitch both honor cancellation, and
// a build cancelled mid-fan-out returns ctx's error with its workers
// joined.
func TestBuildRouteTablesCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildRouteTables(ctx, coarseUS25(nil)); err == nil {
		t.Fatal("cancelled build returned tables")
	}
	base := coarseUS25(nil)
	rt := buildTestTables(t, base)
	if _, err := rt.StitchCtx(ctx, base); err == nil {
		t.Fatal("cancelled stitch returned a result")
	}

	// The production grid's 23 entry sweeps observe the context once per
	// stage. Dying at check 400 lands mid-fan-out: some sweeps have
	// finished and others are in flight on the workers.
	cfg := stitchGrids()[0]
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		baseline := runtime.NumGoroutine()
		cc := &countdownCtx{Context: context.Background()}
		cc.left.Store(400)
		if _, err := BuildRouteTables(cc, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if cc.left.Load() > 0 {
			t.Fatalf("workers=%d: build finished before the context died", workers)
		}
		waitGoroutinesBack(t, baseline)
	}
}

// countdownCtx reports context.Canceled from its left-th Err call on,
// which cancels a solve at a deterministic stage check.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSweepBackpointerBand pins the banded backpointer slab on the
// production grid: a sweep keeps only each destination stage's [minJ,
// maxJ] band, Σ band·(kMax+1) cells, for the whole-route sweep OptimizeCtx
// runs and for a segment sweep of the table build.
func TestSweepBackpointerBand(t *testing.T) {
	cfg := stitchGrids()[0]
	cfg.applyDefaults()
	g, err := buildGrid(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := buildStages(cfg, g.n, g.ds, g.jMax)
	if err != nil {
		t.Fatal(err)
	}
	sw := newSweeper(&cfg, g, stages)
	kw := g.kMax + 1
	width := (g.jMax + 1) * kw
	seg := segmentSpecs(stages)[2]
	cases := []struct {
		name      string
		a, b, j0  int
		wantCells int
	}{
		{"optimize", 0, g.n, 0, 612_419},
		{"segment-2", seg.StartStage, seg.EndStage, stages[seg.StartStage].minJ, 106_978},
	}
	for _, tc := range cases {
		slabs := grabSlabs(width, 1, g.jMax+1, kw)
		if _, _, _, err := sw.sweep(context.Background(), nil, slabs, 1, tc.a, tc.b, tc.j0); err != nil {
			t.Fatal(err)
		}
		sum := 0
		for i := tc.a + 1; i <= tc.b; i++ {
			sum += (stages[i].maxJ - stages[i].minJ + 1) * kw
		}
		if got := len(slabs.backs); got != sum || got != tc.wantCells {
			t.Errorf("%s: backpointer slab holds %d cells; Σ band·(kMax+1) = %d, pinned %d",
				tc.name, got, sum, tc.wantCells)
		}
		t.Logf("%s: %d cells, %.1f%% of the %d full-width cells", tc.name, len(slabs.backs),
			100*float64(len(slabs.backs))/float64((tc.b-tc.a)*width), (tc.b-tc.a)*width)
		slabPool.Put(slabs)
	}
}

// tablesHash digests everything a build hands to its consumers: the
// segment specs, the solve count and every crossing (entry and exit
// velocity, duration and cost bits, stage path), in table order.
func tablesHash(rt *RouteTables) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			_, _ = h.Write(b[:])
		}
	}
	put(uint64(len(rt.specs)), uint64(rt.SegmentSolves()))
	for _, sp := range rt.specs {
		put(uint64(sp.StartStage), uint64(sp.EndStage), math.Float64bits(sp.StartM), math.Float64bits(sp.EndM))
		_, _ = h.Write([]byte(sp.BoundaryName))
	}
	for s, ets := range rt.entries {
		stride := rt.specs[s].EndStage - rt.specs[s].StartStage + 1
		put(uint64(len(ets)))
		for i := range ets {
			et := &ets[i]
			put(uint64(et.entryJ), uint64(len(et.exitJ)))
			for c, j := range et.exitJ {
				put(uint64(j), math.Float64bits(et.durSec[c]), math.Float64bits(et.costAh[c]), uint64(stride))
				for _, v := range et.path(c, stride) {
					put(uint64(v))
				}
			}
		}
	}
	return h.Sum64()
}

// TestRouteTablesGolden pins the built tables bit for bit: the segment
// solver is a refactoring target, and any change to its relaxation order,
// seeding, improvement pre-test or extraction shows up here as a different
// digest. Neither the worker count nor the kernel dispatch may matter
// (parallel.go's bit-identity contract).
func TestRouteTablesGolden(t *testing.T) {
	dwell := coarseUS25(nil)
	dwell.StopDwellSec = 2
	cases := []struct {
		name              string
		cfg               Config
		solves, crossings int
		hash              uint64
	}{
		{"production/w1", Config{Route: road.US25(), Vehicle: ev.SparkEV(), Workers: 1}, 23, 10876, 0x23ffc557688582cd},
		{"production/w2", Config{Route: road.US25(), Vehicle: ev.SparkEV(), Workers: 2}, 23, 10876, 0x23ffc557688582cd},
		{"production/w3", Config{Route: road.US25(), Vehicle: ev.SparkEV(), Workers: 3}, 23, 10876, 0x23ffc557688582cd},
		// More workers than the build has (segment, entry velocity) jobs.
		{"production/w64", Config{Route: road.US25(), Vehicle: ev.SparkEV(), Workers: 64}, 23, 10876, 0x23ffc557688582cd},
		{"coarse-dwell", dwell, 11, 1669, 0x43dbe6c360042b90},
	}
	defer SetAsmKernels(SetAsmKernels(true))
	for _, tc := range cases {
		// Kernels-off runs are the "/go" subtests.
		for _, asm := range []bool{true, false} {
			name := tc.name
			if !asm {
				name += "/go"
			}
			t.Run(name, func(t *testing.T) {
				SetAsmKernels(asm)
				rt := buildTestTables(t, tc.cfg)
				got := tablesHash(rt)
				if rt.SegmentSolves() != tc.solves || rt.Crossings() != tc.crossings || got != tc.hash {
					t.Fatalf("tables: %d solves, %d crossings, hash %#016x; want %d, %d, %#016x",
						rt.SegmentSolves(), rt.Crossings(), got, tc.solves, tc.crossings, tc.hash)
				}
			})
		}
	}
}

// BenchmarkBuildRouteTablesUS25 times a cold production-grid table build,
// the first request's cost on a node that holds no tables: "w1" runs every
// entry sweep on the calling goroutine, "default" fans them out over
// GOMAXPROCS workers.
func BenchmarkBuildRouteTablesUS25(b *testing.B) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"w1", 1}, {"default", 0}} {
		cfg := stitchGrids()[0]
		cfg.Workers = tc.workers
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := BuildRouteTables(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
