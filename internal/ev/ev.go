// Package ev implements the pure-electric-vehicle energy consumption model
// from Kang et al., "Velocity Optimization of Pure Electric Vehicles with
// Traffic Dynamics Consideration" (ICDCS 2017), Section II-A.
//
// The model computes the longitudinal drive force (Eq. 1), converts it to an
// electrical charge-consumption rate ζ through the battery pack (Eq. 3), and
// integrates ζ over velocity profiles to obtain total charge in ampere-hours
// (Eq. 2). Deceleration yields negative consumption (regenerative braking),
// scaled by a regeneration efficiency.
//
// All quantities are SI unless a name says otherwise: metres, seconds,
// kilograms, newtons, watts, joules, volts, amperes. Reported charge uses
// ampere-hours (Ah) or milliampere-hours (mAh) to match the paper's axes.
package ev

import (
	"errors"
	"fmt"
	"math"

	"evvo/internal/units"
)

// Gravity is the standard gravitational acceleration in m/s².
const Gravity = 9.80665

// Params describes a pure EV for the energy model. The zero value is not
// usable; construct with a factory such as SparkEV or validate with Validate.
type Params struct {
	// MassKg is the gross vehicle mass m in kg (vehicle + payload).
	MassKg float64
	// FrontalAreaM2 is the projected frontal area A_f in m².
	FrontalAreaM2 float64
	// DragCoeff is the aerodynamic drag coefficient C_d (dimensionless).
	DragCoeff float64
	// RollCoeff is the rolling-resistance coefficient µ (dimensionless).
	RollCoeff float64
	// AirDensity is ρ in kg/m³.
	AirDensity float64
	// PackVoltage is the nominal battery pack voltage U in volts.
	PackVoltage float64
	// PackCapacityAh is the total pack capacity Q_max in ampere-hours.
	PackCapacityAh float64
	// EtaBattery is the battery energy-transforming efficiency η₁ in (0, 1].
	EtaBattery float64
	// EtaPowertrain is the powertrain working efficiency η₂ in (0, 1].
	EtaPowertrain float64
	// EtaRegen is the fraction of braking power recovered into the pack
	// during regenerative braking, in [0, 1]. The paper's model shows
	// negative consumption under deceleration; EtaRegen scales it.
	EtaRegen float64
	// MaxPowerKW bounds the motor's tractive power; 0 means unlimited.
	// The bound does not change the ζ formula — it defines which (v, a)
	// operating points are achievable (see WithinPowerLimit, MaxAccelAt).
	MaxPowerKW float64
	// MaxRegenPowerKW bounds braking power recoverable through the motor;
	// 0 means unlimited. Decelerations beyond it are achievable with
	// friction brakes but recover no extra energy.
	MaxRegenPowerKW float64
}

// SparkEV returns the Chevrolet Spark EV parameterization used in the
// paper's evaluation (Section III-A-1): m = 1300 kg, A_f = 2.2 m²,
// C_d = 0.33, µ = 0.018, pack 399 V / 46.2 Ah (2P×108S Sony VTC4 cells),
// η₁ = 0.95, η₂ = 0.90. Values garbled by the OCR'd text are resolved to
// the physically standard published figures and documented in DESIGN.md.
func SparkEV() Params {
	return Params{
		MassKg:          1300,
		FrontalAreaM2:   2.2,
		DragCoeff:       0.33,
		RollCoeff:       0.018,
		AirDensity:      1.2041,
		PackVoltage:     399,
		PackCapacityAh:  46.2,
		EtaBattery:      0.95,
		EtaPowertrain:   0.90,
		EtaRegen:        0.65,
		MaxPowerKW:      100, // 97 kW rated motor, rounded
		MaxRegenPowerKW: 60,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	switch {
	case p.MassKg <= 0:
		return fmt.Errorf("ev: mass %.3f kg must be positive", p.MassKg)
	case p.FrontalAreaM2 <= 0:
		return fmt.Errorf("ev: frontal area %.3f m² must be positive", p.FrontalAreaM2)
	case p.DragCoeff < 0:
		return fmt.Errorf("ev: drag coefficient %.3f must be non-negative", p.DragCoeff)
	case p.RollCoeff < 0:
		return fmt.Errorf("ev: rolling coefficient %.4f must be non-negative", p.RollCoeff)
	case p.AirDensity <= 0:
		return fmt.Errorf("ev: air density %.3f kg/m³ must be positive", p.AirDensity)
	case p.PackVoltage <= 0:
		return fmt.Errorf("ev: pack voltage %.1f V must be positive", p.PackVoltage)
	case p.PackCapacityAh <= 0:
		return fmt.Errorf("ev: pack capacity %.1f Ah must be positive", p.PackCapacityAh)
	case p.EtaBattery <= 0 || p.EtaBattery > 1:
		return fmt.Errorf("ev: battery efficiency %.3f must be in (0, 1]", p.EtaBattery)
	case p.EtaPowertrain <= 0 || p.EtaPowertrain > 1:
		return fmt.Errorf("ev: powertrain efficiency %.3f must be in (0, 1]", p.EtaPowertrain)
	case p.EtaRegen < 0 || p.EtaRegen > 1:
		return fmt.Errorf("ev: regen efficiency %.3f must be in [0, 1]", p.EtaRegen)
	case p.MaxPowerKW < 0 || p.MaxRegenPowerKW < 0:
		return fmt.Errorf("ev: power limits %.1f/%.1f kW must be non-negative", p.MaxPowerKW, p.MaxRegenPowerKW)
	}
	return nil
}

// DriveForce returns F_drive in newtons for velocity v (m/s), acceleration a
// (m/s²) and road gradient theta (radians), per Eq. (1):
//
//	F = m·a + ½·ρ·A_f·C_d·v² + m·g·sin θ + µ·m·g·cos θ
//
// Rolling resistance always opposes motion; at standstill (v = 0, a = 0) it
// is zero rather than a phantom holding force.
func (p Params) DriveForce(v, a, theta float64) float64 {
	// Each float64 conversion rounds its product, so arm64 cannot fuse it
	// into the sum below: every node prices a transition alike.
	inertial := float64(p.MassKg * a)
	aero := float64(0.5 * p.AirDensity * p.FrontalAreaM2 * p.DragCoeff * v * v)
	grade := float64(p.MassKg * Gravity * math.Sin(theta))
	roll := float64(p.RollCoeff * p.MassKg * Gravity * math.Cos(theta))
	if v == 0 && a == 0 {
		roll = 0
	}
	return inertial + aero + grade + roll
}

// TractivePower returns the mechanical power F·v in watts at the wheels.
// Negative values indicate braking power available for regeneration.
func (p Params) TractivePower(v, a, theta float64) float64 {
	return p.DriveForce(v, a, theta) * v
}

// ChargeRate returns ζ, the pack charge-consumption rate in amperes, for
// velocity v (m/s), acceleration a (m/s²) and gradient theta (radians),
// per Eq. (3): ζ = F·v / (U·η₁·η₂). Under braking (F·v < 0) the sign flips
// and the efficiencies invert: the pack absorbs F·v·η₁·η₂·η_regen / U.
func (p Params) ChargeRate(v, a, theta float64) float64 {
	pw := p.TractivePower(v, a, theta)
	eta := p.EtaBattery * p.EtaPowertrain
	if pw >= 0 {
		return pw / (p.PackVoltage * eta)
	}
	recoverable := -pw
	if maxW := units.KWToW(p.MaxRegenPowerKW); p.MaxRegenPowerKW > 0 && recoverable > maxW {
		recoverable = maxW // excess goes to friction brakes
	}
	return -recoverable * eta * p.EtaRegen / p.PackVoltage
}

// Charge returns the pack charge consumed in ampere-hours over an interval
// of dt seconds at constant velocity v, acceleration a and gradient theta.
func (p Params) Charge(v, a, theta, dt float64) float64 {
	return units.CoulombsToAh(p.ChargeRate(v, a, theta) * dt)
}

// EnergyJoules returns the electrical energy drawn from the pack in joules
// over dt seconds (negative when regenerating).
func (p Params) EnergyJoules(v, a, theta, dt float64) float64 {
	return units.AhToCoulombs(p.Charge(v, a, theta, dt)) * p.PackVoltage
}

// PackEnergyJoules returns the total usable pack energy U·Q_max in joules.
func (p Params) PackEnergyJoules() float64 {
	return p.PackVoltage * units.AhToCoulombs(p.PackCapacityAh)
}

// SegmentCharge returns the charge in Ah to traverse a segment of length ds
// metres entering at speed v0 and leaving at speed v1 (m/s) under constant
// acceleration, on gradient theta. It also returns the traversal time in
// seconds. ErrUnreachable is returned when both speeds are zero but ds > 0
// (the segment cannot be covered).
func (p Params) SegmentCharge(v0, v1, ds, theta float64) (ah, dt float64, err error) {
	if ds < 0 {
		return 0, 0, fmt.Errorf("ev: segment length %.3f m must be non-negative: %w", ds, ErrUnreachable)
	}
	if ds == 0 {
		return 0, 0, nil
	}
	vAvg := (v0 + v1) / 2
	if vAvg <= 0 {
		return 0, 0, fmt.Errorf("ev: average speed %.3f m/s over %.1f m: %w", vAvg, ds, ErrUnreachable)
	}
	dt = ds / vAvg
	a := (v1 - v0) / dt
	return p.Charge(vAvg, a, theta, dt), dt, nil
}

// ErrUnreachable indicates a segment traversal with no positive average
// speed, which would take infinite time.
var ErrUnreachable = errors.New("segment unreachable at zero average speed")

// WithinPowerLimit reports whether the operating point (v, a, θ) respects
// the motor's tractive power bound. Braking points always return true: a
// regen shortfall goes to friction brakes, it does not make the point
// unreachable.
func (p Params) WithinPowerLimit(v, a, theta float64) bool {
	if p.MaxPowerKW <= 0 {
		return true
	}
	pw := p.TractivePower(v, a, theta)
	return pw <= float64(units.KWToW(p.MaxPowerKW))+1e-9 // rounded: no arm64 fusion
}

// MaxAccelAt returns the acceleration achievable at speed v on gradient
// theta under the motor power bound: a = (P_max/v − F_resist)/m. It returns
// +Inf when the bound is absent or v is (near) zero, where power does not
// limit launch torque in this model.
func (p Params) MaxAccelAt(v, theta float64) float64 {
	if p.MaxPowerKW <= 0 || v < 0.5 {
		return math.Inf(1)
	}
	resist := p.DriveForce(v, 0, theta)
	return (units.KWToW(p.MaxPowerKW)/v - resist) / p.MassKg
}

// StateOfCharge tracks pack state of charge over a drive.
// The zero value is invalid; use NewStateOfCharge.
type StateOfCharge struct {
	params Params
	usedAh float64
}

// NewStateOfCharge returns a tracker starting from a full pack.
func NewStateOfCharge(p Params) *StateOfCharge {
	return &StateOfCharge{params: p}
}

// Consume records ah ampere-hours of consumption (negative = regen). Regen
// cannot push the pack above full charge.
func (s *StateOfCharge) Consume(ah float64) {
	s.usedAh += ah
	if s.usedAh < 0 {
		s.usedAh = 0
	}
}

// UsedAh returns net ampere-hours drawn since the start.
func (s *StateOfCharge) UsedAh() float64 { return s.usedAh }

// Fraction returns the remaining state of charge in [0, 1].
func (s *StateOfCharge) Fraction() float64 {
	f := 1 - s.usedAh/s.params.PackCapacityAh
	if f < 0 {
		return 0
	}
	return f
}

// KmPerKWh is a convenience for reporting: distance (m) per energy (J)
// expressed in km/kWh. Returns +Inf when joules is zero or negative and
// meters is positive (net regen over the distance).
func KmPerKWh(meters, joules float64) float64 {
	if joules <= 0 {
		if meters > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return units.MToKm(meters) / units.JToKWh(joules)
}
