package profile

import (
	"fmt"
	"math"

	"evvo/internal/road"
	"evvo/internal/units"
)

// Style parameterizes a human driving style for the reference driver.
type Style struct {
	// Name labels the style in reports.
	Name string
	// AccelMS2 is the comfortable acceleration magnitude (m/s²).
	AccelMS2 float64
	// DecelMS2 is the comfortable braking magnitude (m/s², positive).
	DecelMS2 float64
	// SpeedFraction is the fraction of the local maximum speed limit the
	// driver cruises at, in (0, 1].
	SpeedFraction float64
	// StopSignWaitSec is the dwell at a stop sign.
	StopSignWaitSec float64
	// WanderAmpMS and WanderPeriodSec add the pedal oscillation real
	// drivers exhibit: the cruise target wanders sinusoidally by ±amp
	// with the given period. Collected traces (the paper's Fig. 7(a))
	// are visibly jagged; each oscillation leaks the unrecovered part of
	// its kinetic-energy swing, which is a large share of the human
	// vs optimal energy gap. Zero disables wander.
	WanderAmpMS, WanderPeriodSec float64
}

// Mild returns the paper's "mild driving" style: gradual acceleration,
// cruising near the lower speed band (Section III-A-3).
func Mild() Style {
	return Style{
		Name:            "mild",
		AccelMS2:        0.8,
		DecelMS2:        1.0,
		SpeedFraction:   0.72, // ≈43 km/h in a 60 km/h zone, near the 40 km/h band
		StopSignWaitSec: 2.0,
		WanderAmpMS:     1.0,
		WanderPeriodSec: 40,
	}
}

// Fast returns the paper's "fast driving" style: brisk legal acceleration,
// cruising at the limit.
func Fast() Style {
	return Style{
		Name:            "fast",
		AccelMS2:        2.3,
		DecelMS2:        1.5,
		SpeedFraction:   1.0,
		StopSignWaitSec: 1.0,
		WanderAmpMS:     1.4,
		WanderPeriodSec: 25,
	}
}

// Validate reports whether the style is usable.
func (s Style) Validate() error {
	switch {
	case s.AccelMS2 <= 0:
		return fmt.Errorf("profile: style %q accel %.2f must be positive", s.Name, s.AccelMS2)
	case s.DecelMS2 <= 0:
		return fmt.Errorf("profile: style %q decel %.2f must be positive", s.Name, s.DecelMS2)
	case s.SpeedFraction <= 0 || s.SpeedFraction > 1:
		return fmt.Errorf("profile: style %q speed fraction %.2f must be in (0, 1]", s.Name, s.SpeedFraction)
	case s.StopSignWaitSec < 0:
		return fmt.Errorf("profile: style %q stop wait %.1f must be non-negative", s.Name, s.StopSignWaitSec)
	case s.WanderAmpMS < 0:
		return fmt.Errorf("profile: style %q wander amplitude %.1f must be non-negative", s.Name, s.WanderAmpMS)
	case s.WanderAmpMS > 0 && s.WanderPeriodSec <= 0:
		return fmt.Errorf("profile: style %q wander needs a positive period, got %.1f", s.Name, s.WanderPeriodSec)
	}
	return nil
}

// QueueDelayFunc returns the extra dwell (seconds) a driver stopped at a
// signal waits *after* the light turns green before it can move — the time
// for the queue ahead to start flowing. arrival is the absolute arrival time
// at the stop line. Nil means no queue delay.
type QueueDelayFunc func(c road.Control, arrival float64) float64

// DriveConfig configures a reference drive.
type DriveConfig struct {
	Route *road.Route
	Style Style
	// DepartTime is the absolute departure time (s); signal phases are
	// evaluated against absolute time.
	DepartTime float64
	// StepSec is the integration step (default 0.1 s).
	StepSec float64
	// QueueDelay optionally injects queue-discharge waits at signals.
	QueueDelay QueueDelayFunc
}

// maxDriveSec bounds a drive so a malformed setup (e.g. a signal that is
// effectively never green) cannot loop forever.
const maxDriveSec = 4 * units.SecPerHour

// Drive simulates a human-style drive along the route and returns the
// trajectory. The driver cruises at SpeedFraction of the local limit,
// brakes for stop signs, red lights and the destination, dwells through
// red phases (plus any queue delay), and ends at rest at the route end.
func Drive(cfg DriveConfig) (*Profile, error) {
	if cfg.Route == nil {
		return nil, fmt.Errorf("profile: drive needs a route")
	}
	if err := cfg.Style.Validate(); err != nil {
		return nil, err
	}
	dt := cfg.StepSec
	if dt == 0 {
		dt = 0.1
	}
	if dt <= 0 {
		return nil, fmt.Errorf("profile: step %.3f s must be positive", dt)
	}

	r := cfg.Route
	type stopPoint struct {
		pos     float64
		control *road.Control // nil for the destination
	}
	controls := r.Controls()

	var pts []Point
	t, pos, v := cfg.DepartTime, 0.0, 0.0
	pts = append(pts, Point{T: t, Pos: pos, V: v})
	nextControl := 0 // index of the first control not yet passed

	// dwellUntil pauses the vehicle in place until the absolute time end.
	dwellUntil := func(end float64) {
		for t < end {
			t += dt
			pts = append(pts, Point{T: t, Pos: pos, V: 0})
		}
	}

	for pos < r.LengthM() {
		if t-cfg.DepartTime > maxDriveSec {
			return nil, fmt.Errorf("profile: drive exceeded %.0f s; route likely impassable", maxDriveSec)
		}
		// The nearest mandatory stop: destination, stop sign, or a signal
		// currently red.
		stop := stopPoint{pos: r.LengthM()}
		for i := nextControl; i < len(controls); i++ {
			c := controls[i]
			if c.PositionM <= pos {
				continue
			}
			mustStop := c.Kind == road.ControlStopSign
			if c.Kind == road.ControlSignal {
				green, _ := c.Timing.PhaseAt(t)
				mustStop = !green
				if mustStop {
					// A light that flips red inside the emergency braking
					// envelope is a late yellow: the driver runs through
					// rather than stopping unphysically hard.
					stopDist := v * v / (2 * 2 * cfg.Style.DecelMS2)
					if stopDist > c.PositionM-pos {
						mustStop = false
					}
				}
			}
			if mustStop {
				stop = stopPoint{pos: c.PositionM, control: &controls[i]}
			}
			break // only the nearest control constrains the driver
		}

		_, maxMS := r.SpeedLimits(pos)
		// float64(...) rounds a product so arm64 cannot fuse it into a
		// multiply-add: every node computes the same value (make kernel-fma).
		target := float64(cfg.Style.SpeedFraction * maxMS)
		if cfg.Style.WanderAmpMS > 0 {
			target += float64(cfg.Style.WanderAmpMS * math.Sin(2*math.Pi*(t-cfg.DepartTime)/cfg.Style.WanderPeriodSec))
			if target > maxMS {
				target = maxMS
			}
			if target < 0 {
				target = 0
			}
		}

		dist := stop.pos - pos

		// Arrival at the stop line: close enough that the next step would
		// cross it and already crawling. Snap, then handle the stop.
		if dist <= math.Max(0.3, 1.5*v*dt) && v <= float64(2.5*cfg.Style.DecelMS2*dt)+0.3 {
			pos = stop.pos
			v = 0
			t += dt
			pts = append(pts, Point{T: t, Pos: pos, V: 0})
			if stop.control == nil {
				break // destination reached
			}
			c := stop.control
			switch c.Kind {
			case road.ControlStopSign:
				dwellUntil(t + cfg.Style.StopSignWaitSec)
			case road.ControlSignal:
				arrival := t
				green, _ := c.Timing.PhaseAt(t)
				if !green {
					start, _ := c.Timing.NextGreenWindow(t)
					dwellUntil(start)
				}
				if cfg.QueueDelay != nil {
					dwellUntil(t + math.Max(0, cfg.QueueDelay(*c, arrival)))
				}
			}
			for nextControl < len(controls) && controls[nextControl].PositionM <= pos {
				nextControl++
			}
			continue
		}

		// Speed admissible to still stop at the stop point with comfortable
		// braking: v² = 2·decel·dist, with one step's travel as margin so
		// the discrete trajectory stays under the continuous envelope.
		vBrake := math.Sqrt(2 * cfg.Style.DecelMS2 * math.Max(0, dist-float64(v*dt)))
		vDes := math.Min(target, vBrake)

		// Step the speed toward vDes with bounded accel/decel.
		switch {
		case v < vDes:
			v = math.Min(vDes, v+float64(cfg.Style.AccelMS2*dt))
		case v > vDes:
			v = math.Max(vDes, v-float64(cfg.Style.DecelMS2*dt))
		}
		adv := v * dt
		if adv > dist {
			adv = dist // do not overshoot the stop line
			v = 0
		}
		pos += adv
		t += dt
		pts = append(pts, Point{T: t, Pos: pos, V: v})
		// Mark passed controls.
		for nextControl < len(controls) && controls[nextControl].PositionM <= pos {
			nextControl++
		}
	}
	// Terminal: come to rest at the destination.
	if v > 0 {
		pts = append(pts, Point{T: t, Pos: r.LengthM(), V: 0})
	}
	return New(pts)
}
