package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smokeConfig is a small but representative fleet: the table build costs
// ~11 segment solves on the coarse grid, so 64 spread-out requests clear
// the ≥5× reuse gate with margin while staying sub-second.
func smokeConfig() loadConfig {
	return loadConfig{
		Vehicles: 4, Requests: 64, Batch: 16, WindowSec: 300,
		RateVehPerHour: 153, Seed: 1,
		DsM: 100, DvMS: 1, DtSec: 2, SegmentTables: true,
	}
}

// TestFleetLoadReuse is the end-to-end fleet acceptance gate: the load run
// must complete cleanly and show ≥5× fewer DP solves than per-request
// solving, with latency quantiles populated.
func TestFleetLoadReuse(t *testing.T) {
	rep, err := run(context.Background(), smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d of %d requests failed", rep.Failed, rep.Requests)
	}
	if rep.Mode != "batch" {
		t.Fatalf("mode = %q", rep.Mode)
	}
	if rep.ReuseFactor < 5 {
		t.Fatalf("reuse factor %.2f < 5 (%d full + %d segment solves for %d requests)",
			rep.ReuseFactor, rep.Server.DPFullSolves, rep.Server.DPSegmentSolves, rep.Requests)
	}
	// One latency sample per request, not per batch call: 64 requests in
	// 4 batches must observe 64 latencies (regression — this used to be 4).
	if rep.LatencyMs.Count != int64(rep.Requests) {
		t.Fatalf("latency count = %d, want one sample per request (%d)", rep.LatencyMs.Count, rep.Requests)
	}
	if rep.LatencyMs.P50 <= 0 || rep.LatencyMs.P99 < rep.LatencyMs.P50 {
		t.Fatalf("latency quantiles not populated: %+v", rep.LatencyMs)
	}
	if rep.Server.StitchedServes == 0 {
		t.Fatal("no stitched serves — segment tables did not engage")
	}
}

// TestSingleMode covers the non-batch path (-batch 0).
func TestSingleMode(t *testing.T) {
	cfg := smokeConfig()
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

// TestClusterMode boots the 3-node in-process cluster and checks the
// multi-node report: every request answered, every member reported with
// its cluster counters, and the segment-table sharding visible — exactly
// one member builds the route's tables while the others serve via replica
// push or forwarding.
func TestClusterMode(t *testing.T) {
	cfg := smokeConfig()
	cfg.Nodes = 3
	cfg.Batch = 0
	cfg.Requests = 24
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d of %d requests failed", rep.Failed, rep.Requests)
	}
	if len(rep.Nodes) != 3 {
		t.Fatalf("report covers %d nodes, want 3", len(rep.Nodes))
	}
	builders, served := 0, 0
	for _, n := range rep.Nodes {
		if n.NodeID == "" {
			t.Fatal("node report missing NodeID")
		}
		if n.Requests == 0 || n.LatencyMs.Count != int64(n.Requests) {
			t.Fatalf("node %s: %d requests but %d latency samples (round-robin should load every member)",
				n.NodeID, n.Requests, n.LatencyMs.Count)
		}
		if n.Server.Cluster == nil {
			t.Fatalf("node %s report has no cluster counters", n.NodeID)
		}
		if !n.Server.Cluster.Ready {
			t.Fatalf("node %s served load while not ready", n.NodeID)
		}
		if n.Server.DPSegmentSolves > 0 {
			builders++
		}
		served += int(n.Server.StitchedServes)
	}
	if builders != 1 {
		t.Fatalf("%d members built segment tables, want exactly 1 owner (sharding broken)", builders)
	}
	if served < rep.Requests-int(rep.Server.CacheHits) {
		t.Fatalf("stitched serves %d < non-cached requests", served)
	}
	// The aggregate view must equal the sum of the members.
	if rep.Server.DPSegmentSolves == 0 || rep.ReuseFactor < 2 {
		t.Fatalf("cluster reuse factor %.2f (solves %d) — tables not shared across members",
			rep.ReuseFactor, rep.Server.DPSegmentSolves)
	}
}

// TestClusterReportServerLatency: server-side latency histograms do not sum
// across members, so a multi-node report carries no summary server
// latency (it used to emit an empty count-0 block) — each member's is
// under nodes[] — while a single-node report keeps its server's.
func TestClusterReportServerLatency(t *testing.T) {
	serverLatency := func(cfg loadConfig) (summary map[string]any, nodes []any) {
		t.Helper()
		rep, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Server map[string]any `json:"server"`
			Nodes  []struct {
				Server map[string]any `json:"server"`
			} `json:"nodes"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		for _, n := range doc.Nodes {
			nodes = append(nodes, n.Server["latencyMs"])
		}
		lat, _ := doc.Server["latencyMs"].(map[string]any)
		return lat, nodes
	}

	cfg := smokeConfig()
	cfg.Nodes = 2
	cfg.Batch = 0
	cfg.Requests = 16
	summary, nodes := serverLatency(cfg)
	if summary != nil {
		t.Fatalf("multi-node report emits a summary server latency %v", summary)
	}
	if len(nodes) != 2 {
		t.Fatalf("report covers %d nodes, want 2", len(nodes))
	}
	for i, lat := range nodes {
		if m, _ := lat.(map[string]any); m == nil || m["count"].(float64) <= 0 {
			t.Fatalf("node %d server latency %v, want a populated histogram", i, lat)
		}
	}

	single := smokeConfig()
	single.Requests, single.Batch = 8, 0
	if summary, _ := serverLatency(single); summary == nil || summary["count"].(float64) != 8 {
		t.Fatalf("single-node server latency %v, want count 8", summary)
	}
}

// TestClusterModeRejectsExternalAddr: -nodes only applies to the
// in-process server.
func TestClusterModeRejectsExternalAddr(t *testing.T) {
	cfg := smokeConfig()
	cfg.Nodes = 3
	cfg.Addr = "http://127.0.0.1:1"
	if _, err := run(context.Background(), cfg); err == nil {
		t.Fatal("-nodes with -addr accepted")
	}
}

// TestConfigValidation rejects nonsense before any load is generated.
func TestConfigValidation(t *testing.T) {
	for _, cfg := range []loadConfig{
		{Vehicles: 0, Requests: 1},
		{Vehicles: 1, Requests: 0},
		{Vehicles: 1, Requests: 1, Batch: -1},
		{Vehicles: 1, Requests: 1, WindowSec: -1},
	} {
		if _, err := run(context.Background(), cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// TestReportRoundTrips confirms the JSON report is a valid, self-describing
// BENCH_fleet.json.
func TestReportRoundTrips(t *testing.T) {
	cfg := smokeConfig()
	cfg.Requests, cfg.Batch = 8, 4
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Requests != rep.Requests || back.Config.Seed != cfg.Seed {
		t.Fatalf("report did not round-trip: %+v", back)
	}
}
