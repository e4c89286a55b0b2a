// Package queue implements the traffic-dynamics models of Kang et al.
// (ICDCS 2017) Section II-B: the vehicle-movement (VM) model describing how
// a standing queue discharges when a light turns green (Eq. 4), the leaving
// rate V_out derived from it (Eq. 5), and the queue-length (QL) model
// (Eq. 6) whose zero-crossing defines the zero-queue window T_q used by the
// DP optimizer.
//
// Two arrival-rate regimes are supported: the closed-form single-cycle
// solution with constant V_in (exactly Eq. 6), and a discrete-time
// integrator for time-varying V_in (e.g. from the SAE traffic predictor)
// across many cycles, which also handles oversaturation (residual queues).
//
// Conventions: times are seconds; "intoCycle" times are measured from the
// start of a signal cycle (red onset, as in Eq. 4); arrival/leaving rates
// are vehicles per second; queue length is reported both in vehicles and in
// metres (vehicles × average spacing d).
package queue

import (
	"fmt"
	"math"

	"evvo/internal/road"
	"evvo/internal/units"
)

// VehPerHour converts vehicles/hour to vehicles/second.
func VehPerHour(v float64) float64 { return units.VehPerHourToVehPerSec(v) }

// Params are the VM/QL model parameters from Section II-B.
type Params struct {
	// VMinMS is the minimum speed limit v_min queued vehicles accelerate to
	// (m/s).
	VMinMS float64
	// AMaxMS2 is the maximum acceleration a_max used by discharging
	// vehicles (m/s²).
	AMaxMS2 float64
	// SpacingM is the average inter-vehicle distance d inside the queue (m).
	SpacingM float64
	// StraightRatio is γ, the fraction of queued vehicles that go straight
	// through the intersection, in (0, 1].
	StraightRatio float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.VMinMS <= 0:
		return fmt.Errorf("queue: v_min %.2f m/s must be positive", p.VMinMS)
	case p.AMaxMS2 <= 0:
		return fmt.Errorf("queue: a_max %.2f m/s² must be positive", p.AMaxMS2)
	case p.SpacingM <= 0:
		return fmt.Errorf("queue: spacing %.2f m must be positive", p.SpacingM)
	case p.StraightRatio <= 0 || p.StraightRatio > 1:
		return fmt.Errorf("queue: straight ratio %.3f must be in (0, 1]", p.StraightRatio)
	}
	return nil
}

// US25Params returns the parameters measured at the second US-25 signal in
// the paper's evaluation (Section III-B-2): d = 8.5 m, γ = 76.36%,
// v_min = 40 km/h, a_max = 2.5 m/s².
func US25Params() Params {
	return Params{
		VMinMS:        road.KmhToMs(road.US25MinSpeedKmh),
		AMaxMS2:       2.5,
		SpacingM:      8.5,
		StraightRatio: 0.7636,
	}
}

// Model couples VM/QL parameters with a signal's timing.
type Model struct {
	Params
	Timing road.SignalTiming
}

// NewModel validates inputs and returns a Model.
func NewModel(p Params, timing road.SignalTiming) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	return &Model{Params: p, Timing: timing}, nil
}

// T1 returns the into-cycle time t₁ = t_red + v_min/a_max at which the queue
// head reaches v_min (Eq. 4).
func (m *Model) T1() float64 {
	return m.Timing.RedSec + m.VMinMS/m.AMaxMS2
}

// HeadSpeed returns the VM-model speed v(t) of the discharging queue head at
// intoCycle seconds after red onset (Eq. 4, conditions i–iii): zero during
// red, a_max·(t−t_red) while accelerating, then saturated at v_min.
// Condition (iv) — the EV's own v_opt once the queue is gone — belongs to
// the optimizer, not the queue.
func (m *Model) HeadSpeed(intoCycle float64) float64 {
	switch {
	case intoCycle < m.Timing.RedSec:
		return 0
	case intoCycle < m.T1():
		return m.AMaxMS2 * (intoCycle - m.Timing.RedSec)
	default:
		return m.VMinMS
	}
}

// DischargeCapacity returns the VM-model leaving-rate capacity
// v(t)/(d·γ) in vehicles/second (Eq. 5). This is the rate at which the
// standing queue can discharge; the realised leaving rate also depends on
// whether a queue remains (see LeavingRate).
func (m *Model) DischargeCapacity(intoCycle float64) float64 {
	return m.HeadSpeed(intoCycle) / (m.SpacingM * m.StraightRatio)
}

// LeavingRate returns the realised V_out at intoCycle for constant arrival
// rate vin (veh/s): zero during red, the discharge capacity while a queue
// remains, and V_in (pass-through) once the queue has cleared. This is the
// curve plotted in the paper's Fig. 5(a).
func (m *Model) LeavingRate(intoCycle, vin float64) float64 {
	if intoCycle < m.Timing.RedSec {
		return 0
	}
	if clear, ok := m.QueueClearTime(vin); ok && intoCycle >= clear {
		return vin
	}
	return m.DischargeCapacity(intoCycle)
}

// headDistance returns how far the queue head has travelled by intoCycle
// seconds (zero before green onset).
func (m *Model) headDistance(intoCycle float64) float64 {
	tr := m.Timing.RedSec
	if intoCycle <= tr {
		return 0
	}
	// float64(...) rounds a product so arm64 cannot fuse it into a
	// multiply-add: every node computes the same value (make kernel-fma).
	t1 := m.T1()
	if intoCycle <= t1 {
		dt := intoCycle - tr
		return float64(0.5 * m.AMaxMS2 * dt * dt)
	}
	accelDist := 0.5 * m.VMinMS * m.VMinMS / m.AMaxMS2
	return accelDist + float64(m.VMinMS*(intoCycle-t1))
}

// QueueLenM returns the QL-model queue length L_q in metres at intoCycle
// for constant arrival rate vin (veh/s), per Eq. (6): arrivals accumulate
// at d·V_in metres/second; from green onset the queue erodes by the distance
// the head has travelled. Never negative; zero stays zero for the remainder
// of the cycle (condition iv).
func (m *Model) QueueLenM(intoCycle, vin float64) float64 {
	if intoCycle < 0 {
		return 0
	}
	if clear, ok := m.QueueClearTime(vin); ok && intoCycle >= clear {
		return 0
	}
	l := float64(m.SpacingM*vin*intoCycle) - m.headDistance(intoCycle)
	if l < 0 {
		return 0
	}
	return l
}

// QueueLenVehicles returns L_q in vehicles (metres / spacing).
func (m *Model) QueueLenVehicles(intoCycle, vin float64) float64 {
	return m.QueueLenM(intoCycle, vin) / m.SpacingM
}

// QueueClearTime returns the into-cycle time t₂* at which the queue first
// reaches zero during the green phase, for constant arrival rate vin
// (veh/s). ok is false when the queue does not clear within the cycle
// (oversaturation) — then no zero-queue window exists.
func (m *Model) QueueClearTime(vin float64) (intoCycle float64, ok bool) {
	if vin <= 0 {
		return m.Timing.RedSec, true // nothing ever queues
	}
	tr, t1, cyc := m.Timing.RedSec, m.T1(), m.Timing.CycleSec()
	dv := float64(m.SpacingM * vin) // queue growth in m/s
	// Phase ii: d·vin·t = a_max(t−t_red)²/2, for t in (t_red, t1].
	// Solve ½a t² − (a·tr + dv)·t + ½a·tr² = 0.
	a := m.AMaxMS2
	A, B, C := float64(0.5*a), -(float64(a*tr) + dv), 0.5*a*tr*tr
	if disc := float64(B*B) - float64(4*A*C); disc >= 0 {
		root := (-B - math.Sqrt(disc)) / (2 * A) // earlier root
		if root > tr && root <= t1 {
			if root > cyc {
				return 0, false
			}
			return root, true
		}
		root = (-B + math.Sqrt(disc)) / (2 * A)
		if root > tr && root <= t1 {
			if root > cyc {
				return 0, false
			}
			return root, true
		}
	}
	// Phase iii: d·vin·t = v_min²/(2a_max) + v_min(t − t1), t in (t1, cycle].
	den := m.VMinMS - dv
	if den <= 0 {
		return 0, false // arrivals outpace discharge: never clears
	}
	t := (float64(m.VMinMS*t1) - 0.5*m.VMinMS*m.VMinMS/m.AMaxMS2) / den
	if t <= t1 || t > cyc {
		if t <= t1 {
			// Numerical corner: clears essentially at t1.
			return t1, t1 <= cyc
		}
		return 0, false
	}
	return t, true
}

// Window is a half-open absolute-time interval [Start, End).
type Window struct {
	Start, End float64
}

// Contains reports whether t lies in the window.
func (w Window) Contains(t float64) bool { return t >= w.Start && t < w.End }

// Duration returns End − Start.
func (w Window) Duration() float64 { return w.End - w.Start }

// ZeroQueueWindow returns T_q for one cycle as into-cycle times: the
// interval [t₂*, cycle end) during which the queue is empty and an arriving
// EV passes the light unimpeded. ok is false when the queue never clears.
func (m *Model) ZeroQueueWindow(vin float64) (Window, bool) {
	clear, ok := m.QueueClearTime(vin)
	if !ok {
		return Window{}, false
	}
	cyc := m.Timing.CycleSec()
	if clear >= cyc {
		return Window{}, false
	}
	return Window{Start: clear, End: cyc}, true
}

// ZeroWindowsAbs returns every zero-queue window, in absolute time,
// intersecting [from, to), assuming constant arrival rate vin across all
// cycles. Windows are clipped to [from, to).
func (m *Model) ZeroWindowsAbs(vin, from, to float64) []Window {
	w, ok := m.ZeroQueueWindow(vin)
	if !ok || to <= from {
		return nil
	}
	cyc := m.Timing.CycleSec()
	// First cycle whose window could intersect [from, to).
	first := math.Floor((from-m.Timing.OffsetSec)/cyc) - 1
	var out []Window
	for k := first; ; k++ {
		start := m.Timing.OffsetSec + float64(k*cyc) + w.Start
		end := m.Timing.OffsetSec + float64(k*cyc) + w.End
		if start >= to {
			break
		}
		if end <= from {
			continue
		}
		out = append(out, Window{Start: math.Max(start, from), End: math.Min(end, to)})
	}
	return out
}

// GreenWindowsAbs returns every green-phase window (the baseline DP's
// feasible set, which ignores queues) intersecting [from, to).
func (m *Model) GreenWindowsAbs(from, to float64) []Window {
	if to <= from {
		return nil
	}
	cyc := m.Timing.CycleSec()
	first := math.Floor((from-m.Timing.OffsetSec)/cyc) - 1
	var out []Window
	for k := first; ; k++ {
		start := m.Timing.OffsetSec + float64(k*cyc) + m.Timing.RedSec
		end := m.Timing.OffsetSec + float64((k+1)*cyc)
		if start >= to {
			break
		}
		if end <= from {
			continue
		}
		out = append(out, Window{Start: math.Max(start, from), End: math.Min(end, to)})
	}
	return out
}
