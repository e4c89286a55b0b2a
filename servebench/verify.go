package main

import (
	"fmt"
	"math"

	"evvo/internal/cloud"
	"evvo/internal/dp"
	"evvo/internal/road"
)

// Output verifier. Every plan of every pass gets the structural checks; the
// traced pass adds bit-identity against a direct replay. A failed check
// fails the call that carried the plan.

const (
	// dsM is the production position grid (dp default Δs) and accelMS2 /
	// decelMS2 the dp default comfort bounds; together they locate the
	// ramps near rest points where the DP relaxes the minimum speed.
	dsM, accelMS2, decelMS2 = 50.0, 2.5, 1.5
	// tolM and tolMS absorb float rounding in positions and speeds.
	tolM, tolMS = 1e-6, 1e-9
)

// checkPlan validates one served plan against its request and route: a
// profile monotone in t and pos spanning 0..route length and starting at
// the departure, speeds inside the route's band (the minimum is waived on
// the ramps into and out of rest points, exactly as the DP waives it), a
// trip time matching the profile, and a Penalized flag matching the
// arrivals.
func checkPlan(req cloud.Request, r *road.Route, resp *cloud.Response) error {
	pts := resp.Profile
	if len(pts) < 2 {
		return fmt.Errorf("%s@%g: profile has %d points", req.Route, req.DepartTime, len(pts))
	}
	if pts[0].Pos != 0 || pts[0].T != req.DepartTime {
		return fmt.Errorf("%s@%g: profile starts at pos %g t %g", req.Route, req.DepartTime, pts[0].Pos, pts[0].T)
	}
	last := pts[len(pts)-1]
	if math.Abs(last.Pos-r.LengthM()) > tolM {
		return fmt.Errorf("%s@%g: profile ends at %g m, route is %g m", req.Route, req.DepartTime, last.Pos, r.LengthM())
	}
	if math.Abs(last.T-req.DepartTime-resp.TripSec) > 1e-6 {
		return fmt.Errorf("%s@%g: tripSec %g disagrees with profile span %g", req.Route, req.DepartTime, resp.TripSec, last.T-req.DepartTime)
	}
	rest := []float64{0, r.LengthM()}
	for _, c := range r.StopSigns() {
		rest = append(rest, c.PositionM)
	}
	for i, p := range pts {
		if i > 0 && (p.T <= pts[i-1].T || p.Pos < pts[i-1].Pos) {
			return fmt.Errorf("%s@%g: profile not monotone at point %d", req.Route, req.DepartTime, i)
		}
		mn, mx := r.SpeedLimits(math.Min(p.Pos, r.LengthM()-1e-9))
		if p.V < -tolMS || p.V > mx+tolMS {
			return fmt.Errorf("%s@%g: speed %g m/s at %g m outside [0, %g]", req.Route, req.DepartTime, p.V, p.Pos, mx)
		}
		ramp := math.Max(mn*mn/(2*accelMS2), mn*mn/(2*decelMS2)) + 2*dsM
		onRamp := false
		for _, z := range rest {
			if math.Abs(p.Pos-z) <= ramp {
				onRamp = true
				break
			}
		}
		if !onRamp && p.V < mn-tolMS {
			return fmt.Errorf("%s@%g: speed %g m/s at %g m below band minimum %g", req.Route, req.DepartTime, p.V, p.Pos, mn)
		}
	}
	if len(resp.Arrivals) != len(r.Signals()) {
		return fmt.Errorf("%s@%g: %d signal arrivals for %d signals", req.Route, req.DepartTime, len(resp.Arrivals), len(r.Signals()))
	}
	penalized := false
	for _, a := range resp.Arrivals {
		penalized = penalized || !a.InWindow
	}
	if penalized != resp.Penalized {
		return fmt.Errorf("%s@%g: penalized flag %v disagrees with arrivals", req.Route, req.DepartTime, resp.Penalized)
	}
	if resp.ChargeAh <= 0 || math.IsNaN(resp.ChargeAh) {
		return fmt.Errorf("%s@%g: charge %g Ah", req.Route, req.DepartTime, resp.ChargeAh)
	}
	return nil
}

// checkIdentical requires the served plan's charge and trip time to be
// bit-identical to the direct replay's.
func checkIdentical(req cloud.Request, resp *cloud.Response, want *dp.Result, path string) error {
	if math.Float64bits(resp.ChargeAh) != math.Float64bits(want.ChargeAh) ||
		math.Float64bits(resp.TripSec) != math.Float64bits(want.TripSec) {
		return fmt.Errorf("%s@%g rate %g: served charge %v Ah trip %v s, direct %s gives %v Ah %v s",
			req.Route, req.DepartTime, req.ArrivalRateVehPerHour, resp.ChargeAh, resp.TripSec, path, want.ChargeAh, want.TripSec)
	}
	return nil
}
