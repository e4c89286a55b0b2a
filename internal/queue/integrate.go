package queue

import (
	"fmt"
	"math"

	"evvo/internal/road"
)

// RateFunc returns the vehicle arrival rate (veh/s) at absolute time t.
// Predictors (e.g. the SAE traffic model) are adapted to this signature.
type RateFunc func(t float64) float64

// ConstantRate returns a RateFunc with a fixed value.
func ConstantRate(vin float64) RateFunc {
	return func(float64) float64 { return vin }
}

// Sample is one step of an integrated queue trajectory.
type Sample struct {
	// T is absolute time (s).
	T float64
	// QueueVeh is the queue length in vehicles.
	QueueVeh float64
	// QueueM is the queue length in metres (vehicles × spacing).
	QueueM float64
	// InRate and OutRate are the instantaneous arrival and leaving rates
	// (veh/s) applied over the step ending at T.
	InRate, OutRate float64
	// Green reports the signal phase at T.
	Green bool
}

// Integrate simulates queue dynamics over [from, to) with step dt under a
// time-varying arrival rate. Unlike the closed-form Eq. (6), it carries
// residual queues across cycles, so oversaturated signals accumulate.
//
// Within each cycle the discharge capacity follows the VM model, with one
// refinement: the head's acceleration ramp restarts at each green onset only
// if a queue is present then.
func (m *Model) Integrate(vin RateFunc, from, to, dt float64) ([]Sample, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("queue: integration step %.3f s must be positive", dt)
	}
	if to <= from {
		return nil, fmt.Errorf("queue: integration window [%.1f, %.1f) is empty", from, to)
	}
	n := int(math.Ceil((to - from) / dt))
	out := make([]Sample, 0, n+1)
	q := 0.0 // vehicles
	for i := 0; i <= n; i++ {
		// float64(...) rounds a product so arm64 cannot fuse it into a
		// multiply-add: every node computes the same value (make kernel-fma).
		t := from + float64(float64(i)*dt)
		if t > to {
			t = to
		}
		green, into := m.Timing.PhaseAt(t)
		in := math.Max(0, vin(t))
		outRate := 0.0
		if green {
			capacity := m.DischargeCapacity(into)
			if q > 0 {
				outRate = capacity
			} else {
				outRate = math.Min(in, capacity)
			}
		}
		if i > 0 {
			q += float64((in - outRate) * dt)
			if q < 0 {
				q = 0
			}
		}
		out = append(out, Sample{
			T: t, QueueVeh: q, QueueM: q * m.SpacingM,
			InRate: in, OutRate: outRate, Green: green,
		})
	}
	return out, nil
}

// ZeroWindowsIntegrated extracts zero-queue windows (absolute time) from an
// integrated trajectory: maximal green intervals where the queue is empty.
// tol is the queue size (vehicles) treated as empty.
func ZeroWindowsIntegrated(samples []Sample, tol float64) []Window {
	var out []Window
	open := false
	var start float64
	for _, s := range samples {
		empty := s.Green && s.QueueVeh <= tol
		switch {
		case empty && !open:
			open, start = true, s.T
		case !empty && open:
			open = false
			out = append(out, Window{Start: start, End: s.T})
		}
	}
	if open {
		out = append(out, Window{Start: start, End: samples[len(samples)-1].T})
	}
	return out
}

// CurrentModel is the prior-work queue model the paper compares against
// (ref. [9] / "current QL model"): arrival rate is assumed pre-known and
// queued vehicles reach v_min instantly at green onset, so the leaving rate
// is a step to v_min/d and the queue drains linearly. Used for Fig. 5.
type CurrentModel struct {
	Params
	Timing road.SignalTiming
}

// NewCurrentModel builds the prior-work comparison model.
func NewCurrentModel(p Params, timing road.SignalTiming) (*CurrentModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	return &CurrentModel{Params: p, Timing: timing}, nil
}

// LeavingRate is the step leaving rate of the current model: v_min/d from
// green onset while a queue remains, V_in afterwards.
func (m *CurrentModel) LeavingRate(intoCycle, vin float64) float64 {
	if intoCycle < m.Timing.RedSec {
		return 0
	}
	if clear, ok := m.QueueClearTime(vin); ok && intoCycle >= clear {
		return vin
	}
	return m.VMinMS / m.SpacingM
}

// QueueLenM is the current model's linear drain: arrivals at d·V_in,
// discharge at v_min from green onset.
func (m *CurrentModel) QueueLenM(intoCycle, vin float64) float64 {
	if intoCycle < 0 {
		return 0
	}
	l := float64(m.SpacingM * vin * intoCycle)
	if intoCycle > m.Timing.RedSec {
		l -= float64(m.VMinMS * (intoCycle - m.Timing.RedSec))
	}
	if l < 0 {
		return 0
	}
	return l
}

// QueueClearTime returns when the current model's queue reaches zero.
func (m *CurrentModel) QueueClearTime(vin float64) (float64, bool) {
	if vin <= 0 {
		return m.Timing.RedSec, true
	}
	den := m.VMinMS - float64(m.SpacingM*vin)
	if den <= 0 {
		return 0, false
	}
	t := m.VMinMS * m.Timing.RedSec / den
	if t > m.Timing.CycleSec() {
		return 0, false
	}
	return t, true
}
