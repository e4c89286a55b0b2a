package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"evvo/internal/cloud"
	"evvo/internal/dp"
)

// servedPlan solves req the way a server does and converts the result to
// the response a client receives.
func servedPlan(t *testing.T, b *bench, req cloud.Request) (*cloud.Response, *dp.Result) {
	t.Helper()
	cfg, err := b.serverConfig(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dp.OptimizeCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := &cloud.Response{ChargeAh: res.ChargeAh, TripSec: res.TripSec, Penalized: res.Penalized}
	for _, p := range res.Profile.Points() {
		out.Profile = append(out.Profile, cloud.PointJSON{T: p.T, Pos: p.Pos, V: p.V})
	}
	for _, a := range res.Arrivals {
		out.Arrivals = append(out.Arrivals, cloud.ArrivalJSON{Name: a.Name, PositionM: a.PositionM, ArrivalSec: a.ArrivalSec, InWindow: a.InWindow})
	}
	return out, res
}

func TestVerifierCatchesBrokenPlans(t *testing.T) {
	w, _ := findWorkload("exact-solve")
	b, err := newBench(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(b.routes); i++ {
		req := b.str.at(i)
		resp, res := servedPlan(t, b, req)
		if err := checkPlan(req, b.route[req.Route], resp); err != nil {
			t.Fatalf("a true plan failed the check: %v", err)
		}
		if err := checkIdentical(req, resp, res, "OptimizeCtx"); err != nil {
			t.Fatal(err)
		}
	}
	req := b.str.at(0)
	mutations := map[string]func(r *cloud.Response){
		"speed above band":   func(r *cloud.Response) { r.Profile[len(r.Profile)/2].V += 20 },
		"stops short":        func(r *cloud.Response) { r.Profile = r.Profile[:len(r.Profile)-1] },
		"time runs backward": func(r *cloud.Response) { r.Profile[3].T = r.Profile[1].T },
		"penalty flag":       func(r *cloud.Response) { r.Penalized = !r.Penalized },
		"trip time":          func(r *cloud.Response) { r.TripSec += 1 },
	}
	for name, mutate := range mutations {
		resp, _ := servedPlan(t, b, req)
		mutate(resp)
		if err := checkPlan(req, b.route[req.Route], resp); err == nil {
			t.Errorf("%s: broken plan passed the check", name)
		}
	}
	resp, res := servedPlan(t, b, req)
	resp.ChargeAh = math.Nextafter(resp.ChargeAh, 1)
	if err := checkIdentical(req, resp, res, "OptimizeCtx"); err == nil || !strings.Contains(err.Error(), "OptimizeCtx") {
		t.Errorf("a one-ulp charge difference passed the identity check: %v", err)
	}
}
