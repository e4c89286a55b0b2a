package dp

import (
	"math"
	"strings"
	"testing"

	"evvo/internal/ev"
	"evvo/internal/queue"
	"evvo/internal/road"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// openRoad is a plain 1 km route with no controls and no minimum limit.
func openRoad(t *testing.T) *road.Route {
	t.Helper()
	r, err := road.NewRoute(road.RouteConfig{LengthM: 1000, DefaultMaxMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// coarseUS25 returns a Config for the paper's route at a test-friendly grid.
func coarseUS25(windows WindowsFunc) Config {
	return Config{
		Route:   road.US25(),
		Vehicle: ev.SparkEV(),
		DsM:     100, DvMS: 1, DtSec: 2,
		MaxTripSec: 600,
		Windows:    windows,
	}
}

func TestOptimizeValidation(t *testing.T) {
	if _, err := Optimize(Config{Vehicle: ev.SparkEV()}); err == nil {
		t.Fatal("nil route accepted")
	}
	if _, err := Optimize(Config{Route: openRoad(t)}); err == nil {
		t.Fatal("invalid vehicle accepted")
	}
	bad := Config{Route: openRoad(t), Vehicle: ev.SparkEV(), DtSec: 0.001, MaxTripSec: 600}
	if _, err := Optimize(bad); err == nil || !strings.Contains(err.Error(), "bucket") {
		t.Fatalf("bucket overflow not caught: %v", err)
	}
	neg := Config{Route: openRoad(t), Vehicle: ev.SparkEV(), StopDwellSec: -1}
	if _, err := Optimize(neg); err == nil {
		t.Fatal("negative dwell accepted")
	}
	// A negative penalty would reward red-light arrivals (Eq. 12); NaN and
	// +Inf are not a price at all.
	for _, p := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := Config{Route: openRoad(t), Vehicle: ev.SparkEV(), PenaltyAh: p}
		if _, err := Optimize(cfg); err == nil || !strings.Contains(err.Error(), "penalty") {
			t.Fatalf("PenaltyAh %v: err %v, want a penalty rejection", p, err)
		}
	}
}

func TestOptimizeOpenRoadBasics(t *testing.T) {
	res, err := Optimize(Config{
		Route: openRoad(t), Vehicle: ev.SparkEV(),
		DsM: 50, DvMS: 1, DtSec: 1, MaxTripSec: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if !almost(p.Distance(), 1000, 1e-6) {
		t.Fatalf("distance %v, want 1000", p.Distance())
	}
	pts := p.Points()
	if pts[0].V != 0 || pts[len(pts)-1].V != 0 {
		t.Fatalf("endpoints must be at rest: %v, %v", pts[0].V, pts[len(pts)-1].V)
	}
	if res.ChargeAh <= 0 {
		t.Fatalf("charge %v, want positive", res.ChargeAh)
	}
	if res.TripSec <= 0 || res.TripSec > 300 {
		t.Fatalf("trip %v s out of range", res.TripSec)
	}
	if res.Penalized {
		t.Fatal("open road should not be penalized")
	}
	if len(res.Arrivals) != 0 {
		t.Fatalf("open road reported arrivals: %+v", res.Arrivals)
	}
	if res.StatesExpanded <= 0 {
		t.Fatal("no states expanded?")
	}
}

func TestOptimizeRespectsSpeedAndAccelLimits(t *testing.T) {
	cfg := Config{
		Route: openRoad(t), Vehicle: ev.SparkEV(),
		DsM: 50, DvMS: 1, DtSec: 1, MaxTripSec: 300,
		AccelMaxMS2: 2.0, DecelMaxMS2: 1.0,
	}
	res, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Profile.Points()
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if b.V > 20+1e-9 {
			t.Fatalf("speed %v exceeds limit at %v m", b.V, b.Pos)
		}
		dt := b.T - a.T
		if dt <= 0 {
			continue
		}
		acc := (b.V - a.V) / dt
		if acc > cfg.AccelMaxMS2+1e-6 || acc < -cfg.DecelMaxMS2-1e-6 {
			t.Fatalf("acceleration %v outside [%v, %v] at %v m", acc, -cfg.DecelMaxMS2, cfg.AccelMaxMS2, b.Pos)
		}
	}
}

// bruteForceMinCharge enumerates every velocity sequence on a tiny grid and
// returns the minimum total charge, mirroring the DP's cost arithmetic.
func bruteForceMinCharge(t *testing.T, cfg Config, n int, ds float64, jMax int) float64 {
	t.Helper()
	best := math.Inf(1)
	seq := make([]int, n+1)
	var rec func(i int)
	rec = func(i int) {
		if i == n+1 {
			cost := 0.0
			tt := 0.0
			for k := 0; k < n; k++ {
				v, v2 := float64(seq[k])*cfg.DvMS, float64(seq[k+1])*cfg.DvMS
				vAvg := (v + v2) / 2
				if vAvg <= 0 {
					return
				}
				dTau := ds / vAvg
				acc := (v2 - v) / dTau
				if acc > cfg.AccelMaxMS2+1e-9 || acc < -cfg.DecelMaxMS2-1e-9 {
					return
				}
				cost += cfg.Vehicle.Charge(vAvg, acc, 0, dTau)
				tt += dTau
			}
			if tt > cfg.MaxTripSec {
				return
			}
			if cost < best {
				best = cost
			}
			return
		}
		lo, hi := 0, jMax
		if i == 0 || i == n {
			lo, hi = 0, 0
		}
		for j := lo; j <= hi; j++ {
			seq[i] = j
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestOptimizeMatchesBruteForceOnTinyInstance(t *testing.T) {
	r, err := road.NewRoute(road.RouteConfig{LengthM: 400, DefaultMaxMS: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Route: r, Vehicle: ev.SparkEV(),
		DsM: 100, DvMS: 2, DtSec: 1, MaxTripSec: 400,
		AccelMaxMS2: 2.5, DecelMaxMS2: 1.5,
		TimeWeightAhPerSec: -1, // pure-charge objective to mirror brute force
	}
	res, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceMinCharge(t, cfg, 4, 100, 4)
	if !almost(res.ChargeAh, want, 1e-9) {
		t.Fatalf("DP charge %v, brute force %v", res.ChargeAh, want)
	}
}

func TestOptimizeStopsAtStopSign(t *testing.T) {
	res, err := Optimize(coarseUS25(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Stop sign at 490 m snaps to the 500 m stage on the 100 m grid.
	if v := res.Profile.SpeedAtPos(500); v > 1e-9 {
		t.Fatalf("speed at stop sign stage = %v, want 0", v)
	}
}

func TestOptimizeStopDwellDelaysTrip(t *testing.T) {
	base, err := Optimize(coarseUS25(nil))
	if err != nil {
		t.Fatal(err)
	}
	cfg := coarseUS25(nil)
	cfg.StopDwellSec = 10
	dwell, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dwell.TripSec < base.TripSec+9 {
		t.Fatalf("dwell should add ≈10 s: base %v, dwell %v", base.TripSec, dwell.TripSec)
	}
}

func TestOptimizeGreenWindowsHitsGreens(t *testing.T) {
	cfg := coarseUS25(GreenWindows(0, 600))
	res, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Penalized {
		t.Fatalf("green-window DP should be feasible; arrivals: %+v", res.Arrivals)
	}
	if len(res.Arrivals) != 2 {
		t.Fatalf("want 2 signal arrivals, got %+v", res.Arrivals)
	}
	for _, a := range res.Arrivals {
		timing := road.SignalTiming{RedSec: 30, GreenSec: 30}
		if green, _ := timing.PhaseAt(a.ArrivalSec); !green {
			t.Errorf("arrival at %s t=%.1f is in red", a.Name, a.ArrivalSec)
		}
		if !a.InWindow {
			t.Errorf("arrival %+v flagged out-of-window", a)
		}
	}
}

func TestOptimizeQueueAwareHitsZeroQueueWindows(t *testing.T) {
	vin := queue.VehPerHour(153)
	wf, err := QueueAwareWindows(queue.US25Params(), ConstantArrivalRate(vin), 0, 600)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(coarseUS25(wf))
	if err != nil {
		t.Fatal(err)
	}
	if res.Penalized {
		t.Fatalf("queue-aware DP should be feasible; arrivals: %+v", res.Arrivals)
	}
	qp := queue.US25Params()
	for _, a := range res.Arrivals {
		m, err := queue.NewModel(qp, road.SignalTiming{RedSec: 30, GreenSec: 30})
		if err != nil {
			t.Fatal(err)
		}
		clear, ok := m.QueueClearTime(vin)
		if !ok {
			t.Fatal("queue should clear")
		}
		into := math.Mod(a.ArrivalSec, 60)
		if into < clear {
			t.Errorf("arrival at %s lands %.1fs into cycle, before queue clears at %.1fs", a.Name, into, clear)
		}
	}
}

func TestOptimizeQueueAwareStricterThanGreen(t *testing.T) {
	// Every queue-aware admissible arrival is also green-admissible.
	vin := queue.VehPerHour(153)
	wf, err := QueueAwareWindows(queue.US25Params(), ConstantArrivalRate(vin), 0, 600)
	if err != nil {
		t.Fatal(err)
	}
	gf := GreenWindows(0, 600)
	sig := road.US25().Signals()[0]
	qws := wf(sig)
	gws := gf(sig)
	if len(qws) == 0 || len(gws) == 0 {
		t.Fatal("providers returned no windows")
	}
	for _, q := range qws {
		inside := false
		for _, g := range gws {
			if q.Start >= g.Start && q.End <= g.End {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("queue window %+v not contained in green windows", q)
		}
	}
}

func TestOptimizeOversaturatedIsPenalized(t *testing.T) {
	qp := queue.US25Params()
	// Arrivals beyond discharge capacity: queue never clears.
	vin := qp.VMinMS/qp.SpacingM + 0.5
	wf, err := QueueAwareWindows(qp, ConstantArrivalRate(vin), 0, 600)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(coarseUS25(wf))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Penalized {
		t.Fatal("oversaturated signals should force a penalized result")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	a, err := Optimize(coarseUS25(GreenWindows(0, 600)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(coarseUS25(GreenWindows(0, 600)))
	if err != nil {
		t.Fatal(err)
	}
	if a.ChargeAh != b.ChargeAh || a.TripSec != b.TripSec {
		t.Fatalf("nondeterministic results: %v/%v vs %v/%v", a.ChargeAh, a.TripSec, b.ChargeAh, b.TripSec)
	}
}

func TestOptimizeDepartTimeShiftsWindows(t *testing.T) {
	// Departing 30 s later shifts which green phases are reachable; the
	// optimizer must still find in-window arrivals.
	cfg := coarseUS25(GreenWindows(0, 900))
	cfg.DepartTime = 30
	res, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Penalized {
		t.Fatalf("arrivals: %+v", res.Arrivals)
	}
	if res.Profile.Points()[0].T != 30 {
		t.Fatalf("profile starts at %v, want 30", res.Profile.Points()[0].T)
	}
}

func TestOptimizeControlCollisionError(t *testing.T) {
	// Δs so coarse that the stop sign and a signal share a stage.
	r, err := road.NewRoute(road.RouteConfig{
		LengthM: 4000, DefaultMaxMS: 17,
		Controls: []road.Control{
			{Kind: road.ControlStopSign, PositionM: 1990, Name: "s"},
			{Kind: road.ControlSignal, PositionM: 2010, Timing: road.SignalTiming{RedSec: 30, GreenSec: 30}, Name: "l"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Optimize(Config{Route: r, Vehicle: ev.SparkEV(), DsM: 1000, DvMS: 1, DtSec: 2})
	if err == nil || !strings.Contains(err.Error(), "collides") {
		t.Fatalf("want collision error, got %v", err)
	}
}

func TestOptimizeInfeasibleTripTime(t *testing.T) {
	// 4.2 km in 60 s is impossible at ≤ 60 km/h.
	cfg := coarseUS25(nil)
	cfg.MaxTripSec = 60
	if _, err := Optimize(cfg); err == nil {
		t.Fatal("impossible trip budget accepted")
	}
}

func TestOptimizeMinimumSpeedBandHolds(t *testing.T) {
	// Away from stops the US-25 profile must respect the 40 km/h minimum.
	res, err := Optimize(coarseUS25(nil))
	if err != nil {
		t.Fatal(err)
	}
	vmin := road.KmhToMs(40)
	for _, pt := range res.Profile.Points() {
		// Skip ramp zones near mandatory stops (source, 490 m sign, dest).
		nearStop := pt.Pos < 300 || math.Abs(pt.Pos-500) < 300 || pt.Pos > 3900
		if nearStop {
			continue
		}
		if pt.V < vmin-1e-9 {
			t.Fatalf("speed %v below 40 km/h band at %v m", pt.V, pt.Pos)
		}
	}
}

func TestGreenWindowsIgnoresStopSigns(t *testing.T) {
	wf := GreenWindows(0, 600)
	if ws := wf(road.Control{Kind: road.ControlStopSign, PositionM: 100}); ws != nil {
		t.Fatalf("stop sign got windows: %+v", ws)
	}
}

func TestQueueAwareWindowsValidation(t *testing.T) {
	if _, err := QueueAwareWindows(queue.Params{}, ConstantArrivalRate(0.1), 0, 600); err == nil {
		t.Fatal("invalid queue params accepted")
	}
}

func TestIntegratedQueueWindowsMatchClosedForm(t *testing.T) {
	qp := queue.US25Params()
	vin := queue.VehPerHour(153)
	iwf, err := IntegratedQueueWindows(qp,
		func(road.Control) queue.RateFunc { return queue.ConstantRate(vin) },
		0, 300, 120, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cwf, err := QueueAwareWindows(qp, ConstantArrivalRate(vin), 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	sig := road.US25().Signals()[0]
	got, want := iwf(sig), cwf(sig)
	if len(got) != len(want) {
		t.Fatalf("integrated windows %+v vs closed form %+v", got, want)
	}
	for i := range got {
		if math.Abs(got[i].Start-want[i].Start) > 1 || math.Abs(got[i].End-want[i].End) > 1 {
			t.Fatalf("window %d: integrated %+v, closed form %+v", i, got[i], want[i])
		}
	}
}

// TestOptimizeVelocityGridPackingLimit is the regression test for the
// silent backpointer corruption: a fine Δv with a high speed limit used to
// push the velocity index past 15 bits, flipping the packed int32's sign
// and failing reconstruction with an unhelpful "broken backpointer". It
// must now be rejected up front with an actionable error.
func TestOptimizeVelocityGridPackingLimit(t *testing.T) {
	r, err := road.NewRoute(road.RouteConfig{LengthM: 100, DefaultMaxMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Route: r, Vehicle: ev.SparkEV(),
		DsM: 50, DvMS: 0.0005, DtSec: 1, MaxTripSec: 600,
	}
	_, err = Optimize(cfg)
	if err == nil {
		t.Fatal("oversized velocity grid accepted")
	}
	if !strings.Contains(err.Error(), "packing limit") || !strings.Contains(err.Error(), "Δv") {
		t.Fatalf("error not actionable: %v", err)
	}
}

// TestRouteMaxSpeedSeesShortZone is the regression test for the velocity
// grid sizing scan: a speed zone shorter than Δs lying strictly between
// stage points was invisible to the stage-point-only scan, shrinking jMax
// below the route's true fastest legal speed.
func TestRouteMaxSpeedSeesShortZone(t *testing.T) {
	r, err := road.NewRoute(road.RouteConfig{
		LengthM: 1000, DefaultMaxMS: 10,
		// 30 m zone between the 400 m and 500 m stage points of a 100 m grid.
		SpeedZones: []road.SpeedZone{{StartM: 410, EndM: 440, MinMS: 0, MaxMS: 25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := routeMaxSpeed(r, 10, 100); got != 25 {
		t.Fatalf("routeMaxSpeed = %v, want 25 (short zone missed)", got)
	}
	// Stage points alone must still be honored.
	open, err := road.NewRoute(road.RouteConfig{LengthM: 1000, DefaultMaxMS: 18})
	if err != nil {
		t.Fatal(err)
	}
	if got := routeMaxSpeed(open, 10, 100); got != 18 {
		t.Fatalf("routeMaxSpeed = %v, want 18", got)
	}
}

func BenchmarkOptimizeCoarse(b *testing.B) {
	cfg := coarseUS25(GreenWindows(0, 600))
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOptimizeRespectsPowerEnvelope(t *testing.T) {
	// A weak motor cannot sustain hard acceleration at speed: the profile's
	// high-speed accelerations must stay inside the power envelope.
	veh := ev.SparkEV()
	veh.MaxPowerKW = 25
	res, err := Optimize(Config{
		Route: openRoad(t), Vehicle: veh,
		DsM: 50, DvMS: 1, DtSec: 1, MaxTripSec: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Profile.Points()
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		dt := b.T - a.T
		if dt <= 0 {
			continue
		}
		vAvg := (a.V + b.V) / 2
		acc := (b.V - a.V) / dt
		if pw := veh.TractivePower(vAvg, acc, 0); pw > veh.MaxPowerKW*1000+100 {
			t.Fatalf("profile needs %.0f W at %v m, envelope is %.0f W", pw, b.Pos, veh.MaxPowerKW*1000)
		}
	}
	// The weak motor must slow the trip relative to an unlimited one.
	free, err := Optimize(Config{
		Route: openRoad(t), Vehicle: ev.SparkEV(),
		DsM: 50, DvMS: 1, DtSec: 1, MaxTripSec: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TripSec < free.TripSec {
		t.Fatalf("weak motor produced a faster trip: %v vs %v", res.TripSec, free.TripSec)
	}
}
