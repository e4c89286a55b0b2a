package main

import (
	"testing"
)

// coarseOpts is the fast test grid shared by the variants.
func coarseOpts(variant string) options {
	return options{variant: variant, rate: 153, dsM: 100, dvMS: 1, dtSec: 2}
}

func TestRunVariants(t *testing.T) {
	for _, variant := range []string{"queue-aware", "green", "unconstrained"} {
		t.Run(variant, func(t *testing.T) {
			if err := run(coarseOpts(variant)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunCSV(t *testing.T) {
	o := coarseOpts("queue-aware")
	o.depart = 10
	o.csv = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownVariant(t *testing.T) {
	if err := run(coarseOpts("teleport")); err == nil {
		t.Fatal("unknown variant accepted")
	}
}
