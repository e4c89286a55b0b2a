package main

import (
	"context"
	"net/http/httptest"
	"testing"

	"evvo/internal/cloud"
	"evvo/internal/dp"
)

// startService serves a segment-table cloud.Server on the coarse test grid
// and returns its base URL; the test tears it down.
func startService(t *testing.T) string {
	t.Helper()
	srv, err := cloud.NewServer(cloud.ServerConfig{
		DPTemplate:    dp.Config{DsM: 100, DvMS: 1, DtSec: 2, MaxTripSec: 600},
		SegmentTables: true,
		MaxInFlight:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// smokeConfig is a small but representative fleet: 64 spread-out
// departures in batches of 16.
func smokeConfig(addr string) loadConfig {
	return loadConfig{
		Addr: addr, Vehicles: 4, Requests: 64, Batch: 16, WindowSec: 300,
		RateVehPerHour: 153, Seed: 1,
	}
}

// TestFleetLoadReuse drives the spread-departure fleet in batch mode and
// checks the client-side report. Only client-side counts are asserted:
// the server's latency histogram may not yet hold the last request when
// /v1/stats is read (see cloud.Stats.LatencyMs).
func TestFleetLoadReuse(t *testing.T) {
	rep, err := run(context.Background(), smokeConfig(startService(t)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d of %d requests failed", rep.Failed, rep.Requests)
	}
	if rep.Mode != "batch" {
		t.Fatalf("mode = %q", rep.Mode)
	}
	// One latency sample per request, not per batch call: 64 requests in
	// 4 batches must observe 64 latencies (regression — this used to be 4).
	if rep.LatencyMs.Count != int64(rep.Requests) {
		t.Fatalf("latency count = %d, want one sample per request (%d)", rep.LatencyMs.Count, rep.Requests)
	}
	if rep.LatencyMs.P50 <= 0 || rep.LatencyMs.P99 < rep.LatencyMs.P50 {
		t.Fatalf("latency quantiles not populated: %+v", rep.LatencyMs)
	}
}

// TestServerCountsThisRunOnly: two runs against one service each report
// their own solves. The first builds the route's segment tables; the
// second, on fresh departures, stitches from them and solves nothing, and
// the two runs' counts add up to the service's lifetime total.
func TestServerCountsThisRunOnly(t *testing.T) {
	addr := startService(t)
	ctx := context.Background()
	solves := func(st cloud.Stats) int64 { return st.DPFullSolves + st.DPSegmentSolves }
	cfg := smokeConfig(addr)
	first, err := run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	second, err := run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if solves(first.Server) == 0 {
		t.Fatal("first run reports no solves; it built the segment tables")
	}
	if n := solves(second.Server); n != 0 {
		t.Fatalf("second run reports %d solves; the tables were warm, so those are the first run's", n)
	}
	client, err := cloud.NewClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	total, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solves(first.Server)+solves(second.Server), solves(total); got != want {
		t.Fatalf("runs report %d solves between them, service lifetime %d", got, want)
	}
}

// TestSingleMode covers the non-batch path (-batch 0).
func TestSingleMode(t *testing.T) {
	cfg := smokeConfig(startService(t))
	cfg.Batch = 0
	cfg.Requests = 8
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "single" || rep.Failed != 0 {
		t.Fatalf("mode %q, failed %d", rep.Mode, rep.Failed)
	}
	if rep.LatencyMs.Count != 8 {
		t.Fatalf("latency count = %d, want one sample per request", rep.LatencyMs.Count)
	}
}

// TestConfigValidation rejects nonsense before any load is generated.
func TestConfigValidation(t *testing.T) {
	const addr = "http://127.0.0.1:1" // never dialled: validation fails first
	for _, cfg := range []loadConfig{
		{Addr: "", Vehicles: 1, Requests: 1},
		{Addr: addr, Vehicles: 0, Requests: 1},
		{Addr: addr, Vehicles: 1, Requests: 0},
		{Addr: addr, Vehicles: 1, Requests: 1, Batch: -1},
		{Addr: addr, Vehicles: 1, Requests: 1, WindowSec: -1},
	} {
		if _, err := run(context.Background(), cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}
