// Package profile represents vehicle velocity profiles — trajectories of
// (time, position, speed) — and evaluates them for energy and trip time
// with the internal/ev model. It also provides deterministic "mild" and
// "fast" reference drivers reproducing the two human driving styles the
// paper collected on US-25 (Section III-A-3): mild follows the lower speed
// band and accelerates gradually; fast tracks the speed limit with brisk
// accelerations. Both stop at stop signs and at red lights (plus a queue
// discharge delay), as the collected traces in the paper's Fig. 7(a) do.
package profile

import (
	"fmt"
	"math"
	"sort"

	"evvo/internal/ev"
	"evvo/internal/road"
	"evvo/internal/units"
)

// Point is one sample of a trajectory.
type Point struct {
	// T is time since departure (s).
	T float64
	// Pos is the longitudinal position (m).
	Pos float64
	// V is the speed (m/s).
	V float64
}

// Profile is an immutable sampled trajectory with non-decreasing time and
// position. Construct with New or a driver/optimizer.
type Profile struct {
	pts []Point
}

// New validates points (non-decreasing T and Pos, non-negative V) and
// returns a Profile. The slice is copied.
func New(pts []Point) (*Profile, error) {
	if len(pts) < 2 {
		return nil, fmt.Errorf("profile: need at least 2 points, got %d", len(pts))
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	for i, p := range cp {
		if p.V < 0 {
			return nil, fmt.Errorf("profile: point %d has negative speed %.3f", i, p.V)
		}
		if i == 0 {
			continue
		}
		if p.T < cp[i-1].T {
			return nil, fmt.Errorf("profile: time goes backwards at point %d (%.3f < %.3f)", i, p.T, cp[i-1].T)
		}
		if p.Pos < cp[i-1].Pos {
			return nil, fmt.Errorf("profile: position goes backwards at point %d (%.3f < %.3f)", i, p.Pos, cp[i-1].Pos)
		}
	}
	return &Profile{pts: cp}, nil
}

// Points returns a copy of the samples.
func (p *Profile) Points() []Point {
	out := make([]Point, len(p.pts))
	copy(out, p.pts)
	return out
}

// Len returns the number of samples.
func (p *Profile) Len() int { return len(p.pts) }

// Duration returns total trip time in seconds.
func (p *Profile) Duration() float64 { return p.pts[len(p.pts)-1].T - p.pts[0].T }

// Distance returns total distance covered in metres.
func (p *Profile) Distance() float64 { return p.pts[len(p.pts)-1].Pos - p.pts[0].Pos }

// MaxSpeed returns the maximum sampled speed (m/s).
func (p *Profile) MaxSpeed() float64 {
	max := 0.0
	for _, pt := range p.pts {
		if pt.V > max {
			max = pt.V
		}
	}
	return max
}

// AverageSpeed returns distance divided by duration, 0 for zero duration.
func (p *Profile) AverageSpeed() float64 {
	d := p.Duration()
	if d <= 0 {
		return 0
	}
	return p.Distance() / d
}

// SpeedAtPos returns the linearly interpolated speed at position pos,
// clamped to the profile's position range. Where the vehicle dwells (several
// samples at one position), the speed of the last such sample is used.
func (p *Profile) SpeedAtPos(pos float64) float64 {
	pts := p.pts
	if pos <= pts[0].Pos {
		return pts[0].V
	}
	if pos >= pts[len(pts)-1].Pos {
		return pts[len(pts)-1].V
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Pos > pos })
	// pts[i-1].Pos <= pos < pts[i].Pos
	a, b := pts[i-1], pts[i]
	if b.Pos == a.Pos {
		return b.V
	}
	f := (pos - a.Pos) / (b.Pos - a.Pos)
	// float64(...) rounds a product so arm64 cannot fuse it into a
	// multiply-add: every node computes the same value (make kernel-fma).
	return a.V + float64(f*(b.V-a.V))
}

// TimeAtPos returns the first time the profile reaches position pos,
// linearly interpolated, clamped to the trajectory range.
func (p *Profile) TimeAtPos(pos float64) float64 {
	pts := p.pts
	if pos <= pts[0].Pos {
		return pts[0].T
	}
	if pos >= pts[len(pts)-1].Pos {
		return pts[len(pts)-1].T
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Pos >= pos })
	a, b := pts[i-1], pts[i]
	if b.Pos == a.Pos {
		return a.T
	}
	f := (pos - a.Pos) / (b.Pos - a.Pos)
	return a.T + float64(f*(b.T-a.T))
}

// SpeedAtTime returns the linearly interpolated speed at time t, clamped to
// the trajectory time range.
func (p *Profile) SpeedAtTime(t float64) float64 {
	pts := p.pts
	if t <= pts[0].T {
		return pts[0].V
	}
	if t >= pts[len(pts)-1].T {
		return pts[len(pts)-1].V
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].T > t })
	a, b := pts[i-1], pts[i]
	if b.T == a.T {
		return b.V
	}
	f := (t - a.T) / (b.T - a.T)
	return a.V + float64(f*(b.V-a.V))
}

// Stops returns the number of distinct stops: maximal intervals where speed
// stays below stopSpeed (m/s) for at least minDur seconds. The initial
// standing start and final stop are not counted.
func (p *Profile) Stops(stopSpeed, minDur float64) int {
	n := 0
	var start float64
	in := false
	for _, pt := range p.pts {
		stopped := pt.V <= stopSpeed
		switch {
		case stopped && !in:
			in, start = true, pt.T
		case !stopped && in:
			in = false
			if pt.T-start >= minDur && start > p.pts[0].T+1e-9 {
				n++
			}
		}
	}
	return n
}

// Energy integrates the ev model over the profile and returns the net pack
// charge in ampere-hours (negative segments are regen). gradeAt supplies the
// road gradient (radians) at a position; pass nil for flat ground. Dwell
// intervals (no motion) consume nothing: the paper's model has no idle load.
func (p *Profile) Energy(params ev.Params, gradeAt func(pos float64) float64) (float64, error) {
	if err := params.Validate(); err != nil {
		return 0, err
	}
	var ah float64
	for i := 1; i < len(p.pts); i++ {
		a, b := p.pts[i-1], p.pts[i]
		dt := b.T - a.T
		ds := b.Pos - a.Pos
		if dt <= 0 || ds <= 0 {
			continue // dwell or duplicate sample
		}
		theta := 0.0
		if gradeAt != nil {
			theta = gradeAt((a.Pos + b.Pos) / 2)
		}
		vAvg := (a.V + b.V) / 2
		acc := (b.V - a.V) / dt
		ah += params.Charge(vAvg, acc, theta, dt)
	}
	return ah, nil
}

// EnergyMAh is Energy reported in milliampere-hours, the unit of the
// paper's Fig. 7(b).
func (p *Profile) EnergyMAh(params ev.Params, gradeAt func(pos float64) float64) (float64, error) {
	ah, err := p.Energy(params, gradeAt)
	return units.AhToMAh(ah), err
}

// ResampleByDistance returns a new profile sampled every ds metres
// (plus the exact endpoints).
func (p *Profile) ResampleByDistance(ds float64) (*Profile, error) {
	if ds <= 0 {
		return nil, fmt.Errorf("profile: resample step %.3f must be positive", ds)
	}
	start, end := p.pts[0].Pos, p.pts[len(p.pts)-1].Pos
	var pts []Point
	for pos := start; pos < end; pos += ds {
		pts = append(pts, Point{T: p.TimeAtPos(pos), Pos: pos, V: p.SpeedAtPos(pos)})
	}
	pts = append(pts, Point{T: p.TimeAtPos(end), Pos: end, V: p.SpeedAtPos(end)})
	return New(pts)
}

// ViolatesLimits reports the first position where the profile exceeds the
// route's maximum speed by more than tol m/s, if any.
func (p *Profile) ViolatesLimits(r *road.Route, tol float64) (pos float64, violated bool) {
	for _, pt := range p.pts {
		_, maxMS := r.SpeedLimits(math.Min(pt.Pos, r.LengthM()-1e-9))
		if pt.V > maxMS+tol {
			return pt.Pos, true
		}
	}
	return 0, false
}

// SOCPoint is one sample of pack state of charge along a trajectory.
type SOCPoint struct {
	// T and Pos locate the sample.
	T, Pos float64
	// SOC is the remaining state of charge in [0, 1].
	SOC float64
}

// SOCTrace integrates the ev model along the profile from a full pack and
// returns the state of charge at every sample — range-anxiety telemetry
// for a planned or executed trip.
func (p *Profile) SOCTrace(params ev.Params, gradeAt func(pos float64) float64) ([]SOCPoint, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	soc := ev.NewStateOfCharge(params)
	out := make([]SOCPoint, 0, len(p.pts))
	out = append(out, SOCPoint{T: p.pts[0].T, Pos: p.pts[0].Pos, SOC: soc.Fraction()})
	for i := 1; i < len(p.pts); i++ {
		a, b := p.pts[i-1], p.pts[i]
		dt := b.T - a.T
		ds := b.Pos - a.Pos
		if dt > 0 && ds > 0 {
			theta := 0.0
			if gradeAt != nil {
				theta = gradeAt((a.Pos + b.Pos) / 2)
			}
			vAvg := (a.V + b.V) / 2
			acc := (b.V - a.V) / dt
			soc.Consume(params.Charge(vAvg, acc, theta, dt))
		}
		out = append(out, SOCPoint{T: b.T, Pos: b.Pos, SOC: soc.Fraction()})
	}
	return out, nil
}

// Wear integrates a battery-wear model along the profile and returns the
// equivalent full cycles consumed (see ev.WearModel). Dwell intervals add
// no wear, matching Energy's no-idle-load convention.
func (p *Profile) Wear(m *ev.WearModel, gradeAt func(pos float64) float64) (float64, error) {
	if m == nil {
		return 0, fmt.Errorf("profile: nil wear model")
	}
	var cycles float64
	for i := 1; i < len(p.pts); i++ {
		a, b := p.pts[i-1], p.pts[i]
		dt := b.T - a.T
		ds := b.Pos - a.Pos
		if dt <= 0 || ds <= 0 {
			continue
		}
		theta := 0.0
		if gradeAt != nil {
			theta = gradeAt((a.Pos + b.Pos) / 2)
		}
		vAvg := (a.V + b.V) / 2
		acc := (b.V - a.V) / dt
		cycles += m.StepWear(m.Pack.ChargeRate(vAvg, acc, theta), dt)
	}
	return cycles, nil
}
