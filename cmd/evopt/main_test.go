package main

import (
	"bytes"
	"io"
	"testing"

	"evvo/internal/dp"
	"evvo/internal/trace"
)

// coarseOpts is the fast test grid shared by the variants.
func coarseOpts(variant string) options {
	return options{variant: variant, rate: 153, dsM: 100, dvMS: 1, dtSec: 2}
}

func TestRunVariants(t *testing.T) {
	for _, variant := range []string{"queue-aware", "green", "unconstrained"} {
		t.Run(variant, func(t *testing.T) {
			if err := run(io.Discard, coarseOpts(variant)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunCSV reads -csv output back through trace.ReadProfile and checks
// it carries the solved profile: same point count, same endpoints.
func TestRunCSV(t *testing.T) {
	o := coarseOpts("queue-aware")
	o.depart = 10
	o.csv = true
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadProfile(&out)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := solverConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dp.Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotPts, wantPts := got.Points(), res.Profile.Points()
	if len(gotPts) != len(wantPts) {
		t.Fatalf("CSV has %d points, solve has %d", len(gotPts), len(wantPts))
	}
	for _, i := range []int{0, len(wantPts) - 1} {
		if gotPts[i] != wantPts[i] {
			t.Fatalf("point %d: CSV %+v, solve %+v", i, gotPts[i], wantPts[i])
		}
	}
}

func TestRunUnknownVariant(t *testing.T) {
	if err := run(io.Discard, coarseOpts("teleport")); err == nil {
		t.Fatal("unknown variant accepted")
	}
}
