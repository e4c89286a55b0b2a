// Command evopt computes an energy-optimal velocity profile for the US-25
// experimental route and prints it, with per-signal arrival diagnostics.
//
// Usage:
//
//	evopt [-variant queue-aware|green|unconstrained] [-depart s]
//	      [-rate veh/h] [-ds m] [-dv m/s] [-dt s] [-csv]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"evvo/internal/dp"
	"evvo/internal/ev"
	"evvo/internal/queue"
	"evvo/internal/road"
	"evvo/internal/trace"
	"evvo/internal/units"
)

// options collects the command's knobs; flag parsing fills one in main and
// tests construct them directly.
type options struct {
	variant string
	depart  float64
	rate    float64
	dsM     float64
	dvMS    float64
	dtSec   float64
	csv     bool
}

func main() {
	var o options
	flag.StringVar(&o.variant, "variant", "queue-aware", "optimizer variant: queue-aware, green, or unconstrained")
	flag.Float64Var(&o.depart, "depart", 0, "departure time in seconds (signal cycles are anchored at t = 0)")
	flag.Float64Var(&o.rate, "rate", 153, "predicted vehicle arrival rate at signals, vehicles/hour")
	flag.Float64Var(&o.dsM, "ds", 50, "position grid Δs in metres")
	flag.Float64Var(&o.dvMS, "dv", 0.5, "velocity grid Δv in m/s")
	flag.Float64Var(&o.dtSec, "dt", 1, "time grid Δt in seconds")
	flag.BoolVar(&o.csv, "csv", false, "emit the profile as CSV (t,pos,v) instead of a table")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "evopt:", err)
		os.Exit(1)
	}
}

// solverConfig builds the US-25 optimization problem o describes.
func solverConfig(o options) (dp.Config, error) {
	cfg := dp.Config{
		Route: road.US25(), Vehicle: ev.SparkEV(), DepartTime: o.depart,
		DsM: o.dsM, DvMS: o.dvMS, DtSec: o.dtSec, StopDwellSec: 2,
	}
	horizon := o.depart + 800
	switch o.variant {
	case "green":
		cfg.Windows = dp.GreenWindows(o.depart, horizon)
	case "queue-aware":
		wf, err := dp.QueueAwareWindows(queue.US25Params(),
			dp.ConstantArrivalRate(queue.VehPerHour(o.rate)), o.depart, horizon)
		if err != nil {
			return dp.Config{}, err
		}
		cfg.Windows = wf
	case "unconstrained":
	default:
		return dp.Config{}, fmt.Errorf("unknown variant %q", o.variant)
	}
	return cfg, nil
}

// run solves the problem o describes and prints the plan to w: a summary
// table, or with o.csv the profile in trace's CSV format.
func run(w io.Writer, o options) error {
	cfg, err := solverConfig(o)
	if err != nil {
		return err
	}
	res, err := dp.Optimize(cfg)
	if err != nil {
		return err
	}
	if o.csv {
		return trace.WriteProfile(w, res.Profile)
	}
	fmt.Fprintf(w, "route: US-25 (%.1f km), variant: %s, depart: %.0f s\n",
		units.MToKm(cfg.Route.LengthM()), o.variant, o.depart)
	fmt.Fprintf(w, "energy: %.1f mAh   trip: %.1f s   penalized: %v\n",
		units.AhToMAh(res.ChargeAh), res.TripSec, res.Penalized)
	for _, a := range res.Arrivals {
		status := "in window"
		if !a.InWindow {
			status = "OUT OF WINDOW"
		}
		fmt.Fprintf(w, "  %-10s at %4.0f m: arrive t=%6.1f s  (%s)\n", a.Name, a.PositionM, a.ArrivalSec, status)
	}
	fmt.Fprintln(w, "\npos (m)  speed (km/h)")
	for pos := 0.0; pos <= cfg.Route.LengthM(); pos += 200 {
		fmt.Fprintf(w, "%7.0f  %6.1f\n", pos, units.MpsToKmh(res.Profile.SpeedAtPos(pos)))
	}
	return nil
}
