package main

import (
	"context"
	"reflect"
	"testing"

	"evvo/internal/cloud"
	"evvo/internal/dp"
	"evvo/internal/ev"
	"evvo/internal/queue"
	"evvo/internal/road"
)

// routeShape is the comparable content of a generated route.
type routeShape struct {
	LengthM  float64
	Controls []road.Control
	Zones    []road.SpeedZone
	Min, Max float64
}

func shapes(t *testing.T, seed int64) []routeShape {
	t.Helper()
	routes, err := genRoutes(seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []routeShape
	for _, r := range routes {
		mn, mx := r.Route.SpeedLimits(0)
		out = append(out, routeShape{r.Route.LengthM(), r.Route.Controls(), r.Route.SpeedZones(), mn, mx})
	}
	return out
}

func TestInputsDeterministic(t *testing.T) {
	if !reflect.DeepEqual(shapes(t, 7), shapes(t, 7)) {
		t.Fatal("the same seed generated different routes")
	}
	if reflect.DeepEqual(shapes(t, 7), shapes(t, 8)) {
		t.Fatal("different seeds generated the same routes")
	}
	routes, err := genRoutes(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, hot := range []bool{false, true} {
		a, b := newStream(7, routes, hot), newStream(7, routes, hot)
		other := newStream(8, routes, hot)
		same := true
		for i := 0; i < 500; i++ {
			if a.at(i) != b.at(i) {
				t.Fatalf("hot=%v: request %d differs between two streams of one seed", hot, i)
			}
			same = same && a.at(i) == other.at(i)
		}
		if same {
			t.Fatalf("hot=%v: seeds 7 and 8 gave the same stream", hot)
		}
	}
}

func TestStreamKeys(t *testing.T) {
	routes, err := genRoutes(3)
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(3, routes, false)
	seen := map[cloud.Request]bool{}
	perRoute := map[string]int{}
	for i := 0; i < 9*200; i++ {
		r := s.at(i)
		if seen[r] {
			t.Fatalf("request %d repeats key %+v", i, r)
		}
		seen[r] = true
		perRoute[r.Route]++
		if r.ArrivalRateVehPerHour < minRateVehPerHour || r.ArrivalRateVehPerHour > maxRateVehPerHour {
			t.Fatalf("request %d: rate %g outside [%d, %d]", i, r.ArrivalRateVehPerHour, minRateVehPerHour, maxRateVehPerHour)
		}
		if r.DepartTime >= bucketSec*warmBucket {
			t.Fatalf("request %d departs in the warm-up buckets", i)
		}
	}
	for _, r := range routes {
		if perRoute[r.Name] != 200 {
			t.Fatalf("route %s got %d of %d requests, want an equal share", r.Name, perRoute[r.Name], 9*200)
		}
	}
	hot := newStream(3, routes, true)
	hotRoutes := map[string]int{}
	for _, r := range hot.hot {
		hotRoutes[r.Route]++
		if seen[r] {
			t.Fatalf("hot key %+v is also a unique-stream key", r)
		}
	}
	for _, r := range routes {
		if hotRoutes[r.Name] != 2 {
			t.Fatalf("route %s has %d hot keys, want 2", r.Name, hotRoutes[r.Name])
		}
	}
}

// TestGeneratedRoutesSolveUnpenalized solves every generated route at the
// paper's 153 veh/h from departures spread over more than a signal cycle:
// each plan must meet every zero-queue window and fit the 600 s budget.
func TestGeneratedRoutesSolveUnpenalized(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		routes, err := genRoutes(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range routes[1:] {
			sig := len(r.Route.Signals())
			mn, mx := r.Route.SpeedLimits(0)
			if l := r.Route.LengthM(); l < 2000 || l > 5000 || sig < 1 || sig > 5 ||
				mn < road.KmhToMs(40)-1e-9 || mx > road.KmhToMs(60)+1e-9 {
				t.Fatalf("seed %d %s: %.0f m, %d signals, band %.1f–%.1f km/h outside the generator's ranges",
					seed, r.Name, l, sig, road.MsToKmh(mn), road.MsToKmh(mx))
			}
			for depart := 0.0; depart < 90; depart += 10 {
				wf, err := dp.QueueAwareWindows(queue.US25Params(), dp.ConstantArrivalRate(queue.VehPerHour(153)), depart, depart+720)
				if err != nil {
					t.Fatal(err)
				}
				res, err := dp.OptimizeCtx(context.Background(), dp.Config{
					Route: r.Route, Vehicle: ev.SparkEV(), DepartTime: depart, MaxTripSec: 600, Windows: wf,
				})
				if err != nil {
					t.Fatalf("seed %d %s depart %g: %v", seed, r.Name, depart, err)
				}
				if res.Penalized {
					t.Fatalf("seed %d %s depart %g: plan penalized at 153 veh/h", seed, r.Name, depart)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
}
