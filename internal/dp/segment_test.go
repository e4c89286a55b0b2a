package dp

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
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

// TestBuildRouteTablesCancel: build and stitch both honor cancellation.
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
}

// tablesHash digests everything a build hands to its consumers: the
// segment specs, the solve count and every crossing (entry and exit
// velocity, duration and cost bits, stage path), in table order.
func tablesHash(w *TablesWire) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			_, _ = h.Write(b[:])
		}
	}
	put(uint64(len(w.Specs)), uint64(w.SegmentSolves))
	for _, sp := range w.Specs {
		put(uint64(sp.StartStage), uint64(sp.EndStage), math.Float64bits(sp.StartM), math.Float64bits(sp.EndM))
		_, _ = h.Write([]byte(sp.BoundaryName))
	}
	for _, ets := range w.Entries {
		put(uint64(len(ets)))
		for _, ew := range ets {
			put(uint64(ew.EntryJ), uint64(len(ew.Crossings)))
			for _, cw := range ew.Crossings {
				put(uint64(cw.ExitJ), math.Float64bits(cw.DurSec), math.Float64bits(cw.CostAh), uint64(len(cw.Path)))
				for _, j := range cw.Path {
					put(uint64(j))
				}
			}
		}
	}
	return h.Sum64()
}

// TestRouteTablesGolden pins the built tables bit for bit: the segment
// solver is a refactoring target, and any change to its relaxation order,
// seeding or extraction shows up here as a different digest. The worker
// count must not matter (parallel.go's bit-identity contract).
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
		{"coarse-dwell", dwell, 11, 1669, 0x43dbe6c360042b90},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := buildTestTables(t, tc.cfg)
			got := tablesHash(rt.Export())
			if rt.SegmentSolves() != tc.solves || rt.Crossings() != tc.crossings || got != tc.hash {
				t.Fatalf("tables: %d solves, %d crossings, hash %#016x; want %d, %d, %#016x",
					rt.SegmentSolves(), rt.Crossings(), got, tc.solves, tc.crossings, tc.hash)
			}
		})
	}
}
