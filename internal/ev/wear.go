package ev

import (
	"fmt"
	"math"

	"evvo/internal/units"
)

// WearModel estimates battery-lifetime consumption, the motivation the
// paper opens with ("frequent charging/discharging reduces battery
// lifetime"): cell wear grows with charge throughput and superlinearly
// with C-rate, so two trips of equal net energy can age the pack very
// differently depending on how spiky their current draw is.
//
// The model is a standard throughput counter with a C-rate stress factor:
//
//	wear = ∫ |ζ(t)| · (1 + StressK · |ζ(t)|/Q) dt / (2·Q)
//
// expressed in equivalent full cycles (a full discharge plus a full charge
// at negligible C-rate is one cycle).
type WearModel struct {
	// Pack supplies Q (capacity) for C-rate normalization.
	Pack Params
	// StressK scales the linear C-rate stress term (default 0.5: a
	// sustained 2C draw wears twice as fast per amp-hour as a trickle).
	StressK float64
}

// NewWearModel validates the pack and applies defaults.
func NewWearModel(pack Params) (*WearModel, error) {
	if err := pack.Validate(); err != nil {
		return nil, err
	}
	return &WearModel{Pack: pack, StressK: 0.5}, nil
}

// StepWear returns the equivalent-full-cycle wear of drawing (or
// regenerating) at charge rate zeta amperes for dt seconds.
func (m *WearModel) StepWear(zeta, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	amps := math.Abs(zeta)
	cRate := amps / m.Pack.PackCapacityAh
	stress := 1 + float64(m.StressK*cRate) // rounded: no arm64 fusion
	// |ζ|·dt is charge moved in ampere-seconds; 2·Q·3600 ampere-seconds
	// round-trip is one full cycle.
	return amps * stress * dt / (2 * float64(units.AhToCoulombs(m.Pack.PackCapacityAh)))
}

// SegmentWear returns the wear of traversing a segment entering at v0 and
// leaving at v1 over ds metres on gradient theta (constant acceleration).
func (m *WearModel) SegmentWear(v0, v1, ds, theta float64) (float64, error) {
	if ds <= 0 {
		if ds == 0 {
			return 0, nil
		}
		return 0, fmt.Errorf("ev: segment length %.3f m must be non-negative", ds)
	}
	vAvg := (v0 + v1) / 2
	if vAvg <= 0 {
		return 0, ErrUnreachable
	}
	dt := ds / vAvg
	zeta := m.Pack.ChargeRate(vAvg, (v1-v0)/dt, theta)
	return m.StepWear(zeta, dt), nil
}

// CyclesToEndOfLife is the conventional 80%-capacity cycle life used to
// express wear as a fraction of pack lifetime.
const CyclesToEndOfLife = 1500

// LifetimeFraction converts equivalent full cycles into the fraction of
// pack life consumed.
func LifetimeFraction(cycles float64) float64 {
	return cycles / CyclesToEndOfLife
}
