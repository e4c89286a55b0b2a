package dp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"evvo/internal/ev"
	"evvo/internal/queue"
	"evvo/internal/road"
)

// refineEpsAh is the documented error bound for the coarse-to-fine fast
// path at the default corridor: the refined charge never exceeds the exact
// optimum by more than this (DESIGN.md §12). Measured headroom on the
// randomized-route property test is ~100× below the bound.
const refineEpsAh = 1e-3

func TestCoarseRefineValidation(t *testing.T) {
	cfg := coarseUS25(nil)
	cfg.CoarseRefine = CoarseRefine{Factor: 1}
	if _, err := Optimize(cfg); err == nil {
		t.Fatal("factor 1 accepted")
	}
	cfg.CoarseRefine = CoarseRefine{Factor: -2}
	if _, err := Optimize(cfg); err == nil {
		t.Fatal("negative factor accepted")
	}
	cfg.CoarseRefine = CoarseRefine{Factor: 2, CorridorMS: -1}
	if _, err := Optimize(cfg); err == nil {
		t.Fatal("negative corridor accepted")
	}
}

// TestCoarseRefineFig6 pins the fast path's contract on the paper's
// corridor: a feasible result carrying the Refined diagnostic, within
// refineEpsAh of the exact optimum, for the useful factor range.
func TestCoarseRefineFig6(t *testing.T) {
	wf, err := QueueAwareWindows(queue.US25Params(),
		ConstantArrivalRate(queue.VehPerHour(153)), 0, 900)
	if err != nil {
		t.Fatal(err)
	}
	base := coarseUS25(wf)
	base.DepartTime = 40
	base.StopDwellSec = 2
	exact, err := Optimize(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, factor := range []int{2, 3, 4} {
		cfg := base
		cfg.CoarseRefine = CoarseRefine{Factor: factor}
		res, err := Optimize(cfg)
		if err != nil {
			t.Fatalf("factor %d: %v", factor, err)
		}
		if res.Refined == nil {
			t.Fatalf("factor %d: missing Refined diagnostic", factor)
		}
		if res.Refined.Factor != factor {
			t.Fatalf("factor %d: diag reports %d", factor, res.Refined.Factor)
		}
		if res.Refined.CorridorMS != 2*float64(factor)*cfg.DvMS {
			t.Fatalf("factor %d: default corridor %v", factor, res.Refined.CorridorMS)
		}
		if res.ChargeAh < exact.ChargeAh-1e-12 {
			t.Fatalf("factor %d: refined %v beats the exact optimum %v", factor, res.ChargeAh, exact.ChargeAh)
		}
		if res.ChargeAh > exact.ChargeAh+refineEpsAh {
			t.Fatalf("factor %d: refined %v exceeds exact %v by more than ε=%v",
				factor, res.ChargeAh, exact.ChargeAh, refineEpsAh)
		}
		if !res.Refined.FellBack && res.Refined.CoarseStatesExpanded == 0 {
			t.Fatalf("factor %d: coarse pass reported 0 states", factor)
		}
		if res.StatesExpanded >= exact.StatesExpanded {
			t.Fatalf("factor %d: fine pass expanded %d ≥ exact %d — corridor not restricting",
				factor, res.StatesExpanded, exact.StatesExpanded)
		}
	}
}

// TestCoarseRefineWideCorridorIsExact: a corridor wide enough to leave
// every stage band uncut must reproduce the exact DP bit-for-bit.
func TestCoarseRefineWideCorridorIsExact(t *testing.T) {
	wf, err := QueueAwareWindows(queue.US25Params(),
		ConstantArrivalRate(queue.VehPerHour(153)), 0, 900)
	if err != nil {
		t.Fatal(err)
	}
	base := coarseUS25(wf)
	base.DepartTime = 40
	base.StopDwellSec = 2
	exact, err := Optimize(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.CoarseRefine = CoarseRefine{Factor: 2, CorridorMS: 1000}
	res, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refined == nil || res.Refined.FellBack {
		t.Fatalf("wide corridor: diag %+v", res.Refined)
	}
	requireIdenticalResults(t, exact, res, "wide corridor")
}

// TestCoarseRefineRandomRoutes is the randomized property test: on routes
// with grades, zones, stops and signals, the fast path must always return
// a feasible trajectory whose charge is within refineEpsAh of the exact
// DP's, and the profile must respect the same kinematic invariants (the
// fine pass shares all transition physics, so feasibility comes for free —
// this pins it anyway).
func TestCoarseRefineRandomRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(90210))
	worst := 0.0
	for trial := 0; trial < 8; trial++ {
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
		}
		exact, err := Optimize(cfg)
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		for _, factor := range []int{2, 3} {
			c := cfg
			c.CoarseRefine = CoarseRefine{Factor: factor}
			res, err := Optimize(c)
			if err != nil {
				t.Fatalf("trial %d factor %d: %v", trial, factor, err)
			}
			if res.Refined == nil {
				t.Fatalf("trial %d factor %d: missing diagnostic", trial, factor)
			}
			gap := res.ChargeAh - exact.ChargeAh
			if gap < -1e-12 {
				t.Fatalf("trial %d factor %d: refined %v beats exact %v", trial, factor, res.ChargeAh, exact.ChargeAh)
			}
			if gap > refineEpsAh {
				t.Fatalf("trial %d factor %d: gap %v Ah exceeds ε=%v", trial, factor, gap, refineEpsAh)
			}
			worst = math.Max(worst, gap)
			if res.TripSec <= 0 || res.TripSec > cfg.MaxTripSec {
				t.Fatalf("trial %d factor %d: trip %v s outside (0, %v]", trial, factor, res.TripSec, cfg.MaxTripSec)
			}
		}
	}
	t.Logf("worst refined-vs-exact gap: %.3g Ah (bound %g)", worst, refineEpsAh)
}

// TestCoarseRefineInfeasibleCoarseFallsBack forces a degenerate coarse grid
// (Δv' above the route's max speed leaves no nonzero velocity column) and
// requires a clean fallback to the exact DP with the FellBack flag.
func TestCoarseRefineInfeasibleCoarseFallsBack(t *testing.T) {
	route, err := road.NewRoute(road.RouteConfig{LengthM: 1000, DefaultMaxMS: 15})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Route: route, Vehicle: ev.SparkEV(),
		DsM: 100, DvMS: 1, DtSec: 2, MaxTripSec: 600,
		CoarseRefine: CoarseRefine{Factor: 40}, // Δv' = 40 m/s > 15 m/s limit
	}
	exact := cfg
	exact.CoarseRefine = CoarseRefine{}
	want, err := Optimize(exact)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(cfg)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if res.Refined == nil || !res.Refined.FellBack {
		t.Fatalf("expected FellBack diagnostic, got %+v", res.Refined)
	}
	requireIdenticalResults(t, want, res, "coarse fallback")
}

// TestCoarseRefineSegmentTables: segment tables are exact only. A build
// asking for the coarse-to-fine fast path is rejected, and exact tables
// refuse to serve a stitch config that asks for it (gridKey separation).
func TestCoarseRefineSegmentTables(t *testing.T) {
	base := coarseUS25(nil)
	cfg := base
	cfg.CoarseRefine = CoarseRefine{Factor: 2}
	if _, err := BuildRouteTables(context.Background(), cfg); err == nil {
		t.Fatal("coarse-refined segment tables were built")
	}
	rt := buildTestTables(t, base)
	if _, err := rt.StitchCtx(context.Background(), cfg); err == nil {
		t.Fatal("exact tables served a coarse stitch config")
	}
}
