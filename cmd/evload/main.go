// Command evload drives a simulated EV fleet against the vehicular-cloud
// service and reports serving behaviour: request/failure counts, shed and
// degraded totals, client-side latency quantiles, and the DP-solve reuse
// achieved by segment tables (DESIGN.md §11). Results go to stdout and,
// with -out, to a BENCH_fleet.json trajectory file.
//
// Usage:
//
//	evload [-addr http://host:port] [-vehicles 12] [-requests 96]
//	       [-batch 32] [-window 300] [-rate 153] [-seed 1]
//	       [-ds 100] [-dv 1] [-dt 2] [-segment-tables=true]
//	       [-nodes 1] [-out BENCH_fleet.json]
//
// Without -addr an in-process server is started, so the command doubles as
// a self-contained fleet-serving smoke benchmark (`make bench-fleet`); the
// grid flags configure only that in-process server. With -nodes N > 1 the
// in-process server becomes an N-member cloudd cluster (DESIGN.md §13) and
// the fleet is spread round-robin across the members; the report then
// carries a per-node section with each member's latency quantiles and
// cluster counters (forwards, fetches, takeovers, breaker opens).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"evvo/internal/cloud"
	"evvo/internal/dp"
	"evvo/internal/metrics"
	"evvo/internal/par"
	"evvo/internal/units"
)

func main() {
	var cfg loadConfig
	flag.StringVar(&cfg.Addr, "addr", "", "service base URL; empty starts an in-process server")
	flag.IntVar(&cfg.Vehicles, "vehicles", 12, "concurrent vehicles (client-side concurrency)")
	flag.IntVar(&cfg.Requests, "requests", 96, "total optimize requests to issue")
	flag.IntVar(&cfg.Batch, "batch", 32, "requests per /v1/optimize/batch call (0 = individual /v1/optimize calls)")
	flag.Float64Var(&cfg.WindowSec, "window", 300, "departure spread in seconds; departures are drawn from [0, window)")
	flag.Float64Var(&cfg.RateVehPerHour, "rate", 153, "arrival-rate override sent with each request (0 = server default)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "PRNG seed for departure times")
	flag.Float64Var(&cfg.DsM, "ds", 100, "in-process server: position grid Δs in metres")
	flag.Float64Var(&cfg.DvMS, "dv", 1, "in-process server: velocity grid Δv in m/s")
	flag.Float64Var(&cfg.DtSec, "dt", 2, "in-process server: time grid Δt in seconds")
	flag.BoolVar(&cfg.SegmentTables, "segment-tables", true, "in-process server: serve from shared segment tables")
	flag.IntVar(&cfg.Nodes, "nodes", 1, "in-process cluster size: >1 starts N clustered servers (DESIGN.md §13) and spreads the fleet across them")
	flag.StringVar(&cfg.Out, "out", "", "write the JSON report to this file (e.g. BENCH_fleet.json)")
	flag.Parse()

	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evload:", err)
		os.Exit(1)
	}
	fmt.Printf("evload: %d requests (%d failed) via %s; latency p50 %.1f ms p95 %.1f ms p99 %.1f ms; %d full + %d segment solves (reuse %.1f×); shed %d degraded %d\n",
		rep.Requests, rep.Failed, rep.Mode, rep.LatencyMs.P50, rep.LatencyMs.P95, rep.LatencyMs.P99,
		rep.Server.DPFullSolves, rep.Server.DPSegmentSolves, rep.ReuseFactor, rep.Server.Shed, rep.Server.Degraded)
	if cfg.Out != "" {
		body, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "evload:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(cfg.Out, append(body, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "evload:", err)
			os.Exit(1)
		}
	}
}

// loadConfig parameterizes one load run; it is also echoed into the report
// so a BENCH_fleet.json is self-describing.
type loadConfig struct {
	Addr           string  `json:"addr,omitempty"`
	Vehicles       int     `json:"vehicles"`
	Requests       int     `json:"requests"`
	Batch          int     `json:"batch"`
	WindowSec      float64 `json:"windowSec"`
	RateVehPerHour float64 `json:"rateVehPerHour"`
	Seed           int64   `json:"seed"`
	DsM            float64 `json:"dsM"`
	DvMS           float64 `json:"dvMS"`
	DtSec          float64 `json:"dtSec"`
	SegmentTables  bool    `json:"segmentTables"`
	Nodes          int     `json:"nodes,omitempty"`
	Out            string  `json:"-"`
}

// quantiles are client-observed latency percentiles in milliseconds, one
// sample per request in both modes. A batch item's latency is its call's
// round-trip — every vehicle in the batch waits for the whole call — so
// batch quantiles are weighted by requests, not by calls; Count always
// equals the number of requests issued.
type quantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// nodeReport is one cluster member's slice of a multi-node run: the
// client-observed latency of the requests sent to that node plus the
// node's own serving stats (whose Cluster block carries the forward,
// fetch, takeover and breaker counters).
type nodeReport struct {
	NodeID    string      `json:"nodeId"`
	Requests  int         `json:"requests"`
	LatencyMs quantiles   `json:"latencyMs"`
	Server    cloud.Stats `json:"server"`
}

// serverStats is the report's serving-side view. Its LatencyMs shadows the
// embedded one: a single server's histogram is reported as is, but
// histograms do not sum across cluster members, so a multi-node run leaves
// it nil and omits it — each member's latency is under Nodes.
type serverStats struct {
	cloud.Stats
	LatencyMs *cloud.LatencyStats `json:"latencyMs,omitempty"`
}

// report is the BENCH_fleet.json payload.
type report struct {
	Config    loadConfig `json:"config"`
	Mode      string     `json:"mode"` // "batch" or "single"
	Requests  int        `json:"requests"`
	Failed    int        `json:"failed"`
	LatencyMs quantiles  `json:"latencyMs"`
	// Server holds the serving-side stats. In multi-node mode the
	// volume counters (requests, shed, degraded, solves, stitches, batch
	// items) are summed across the cluster and there is no server latency;
	// per-node breakdowns including latency and the cluster counters are
	// in Nodes.
	Server serverStats `json:"server"`
	// Nodes reports each cluster member separately (multi-node runs only).
	Nodes []nodeReport `json:"nodes,omitempty"`
	// ReuseFactor is requests per DP solve (full + segment): the fleet
	// acceptance gate asks for ≥5 with segment tables on.
	ReuseFactor float64 `json:"reuseFactor"`
}

func run(ctx context.Context, cfg loadConfig) (*report, error) {
	if cfg.Requests <= 0 || cfg.Vehicles <= 0 {
		return nil, fmt.Errorf("requests (%d) and vehicles (%d) must be positive", cfg.Requests, cfg.Vehicles)
	}
	if cfg.Batch < 0 || cfg.WindowSec < 0 {
		return nil, fmt.Errorf("batch (%d) and window (%.0f) must be non-negative", cfg.Batch, cfg.WindowSec)
	}
	if cfg.Nodes > 1 && cfg.Addr != "" {
		return nil, fmt.Errorf("-nodes %d needs the in-process server; it cannot cluster an external -addr", cfg.Nodes)
	}
	var urls []string
	switch {
	case cfg.Addr != "":
		urls = []string{cfg.Addr}
	case cfg.Nodes > 1:
		clusterURLs, cleanup, err := startCluster(cfg)
		if err != nil {
			return nil, err
		}
		defer cleanup()
		urls = clusterURLs
	default:
		srv, err := cloud.NewServer(cloud.ServerConfig{
			DPTemplate:    dp.Config{DsM: cfg.DsM, DvMS: cfg.DvMS, DtSec: cfg.DtSec, MaxTripSec: 600},
			SegmentTables: cfg.SegmentTables,
			MaxInFlight:   2 * cfg.Vehicles,
		})
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		urls = []string{ts.URL}
	}
	clients := make([]*cloud.Client, len(urls))
	for i, u := range urls {
		c, err := cloud.NewClient(u)
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	// Work item i goes to node i mod N: a round-robin fleet, so every node
	// sees traffic for every route and the forwarding/fetch paths carry
	// real load instead of idling behind a sticky assignment.
	nodeOf := func(i int) int { return i % len(clients) }

	reqs := makeRequests(cfg)
	lat := metrics.NewLatencyHistogram()
	nodeLat := make([]*metrics.Histogram, len(clients))
	nodeReqs := make([]int64, len(clients))
	for i := range nodeLat {
		nodeLat[i] = metrics.NewLatencyHistogram()
	}
	rep := &report{Config: cfg, Requests: len(reqs), Mode: "single"}
	var mu sync.Mutex // guards rep.Failed across the worker pool
	var err error
	if cfg.Batch > 0 {
		rep.Mode = "batch"
		var calls []cloud.BatchRequest
		for len(reqs) > 0 {
			n := min(cfg.Batch, len(reqs))
			calls = append(calls, cloud.BatchRequest{Requests: reqs[:n]})
			reqs = reqs[n:]
		}
		err = par.ForEach(cfg.Vehicles, len(calls), func(i int) error {
			node := nodeOf(i)
			start := time.Now()
			out, err := clients[node].OptimizeBatch(ctx, calls[i])
			// Observe once per item, not once per call: a 96-request run in
			// three batches is 96 vehicle-visible latencies, not 3, and
			// per-call observation silently under-weighted batch quantiles.
			elapsedMs := units.SecToMs(time.Since(start).Seconds())
			for range calls[i].Requests {
				lat.Observe(elapsedMs)
				nodeLat[node].Observe(elapsedMs)
			}
			atomic.AddInt64(&nodeReqs[node], int64(len(calls[i].Requests)))
			if err != nil {
				mu.Lock()
				rep.Failed += len(calls[i].Requests)
				mu.Unlock()
				return nil // keep loading; failures are the measurement
			}
			failed := 0
			for _, r := range out.Results {
				if r.Error != "" {
					failed++
				}
			}
			mu.Lock()
			rep.Failed += failed
			mu.Unlock()
			return nil
		})
	} else {
		err = par.ForEach(cfg.Vehicles, len(reqs), func(i int) error {
			node := nodeOf(i)
			start := time.Now()
			_, rerr := clients[node].Optimize(ctx, reqs[i])
			elapsedMs := units.SecToMs(time.Since(start).Seconds())
			lat.Observe(elapsedMs)
			nodeLat[node].Observe(elapsedMs)
			atomic.AddInt64(&nodeReqs[node], 1)
			if rerr != nil {
				mu.Lock()
				rep.Failed++
				mu.Unlock()
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}

	rep.LatencyMs = quantiles{
		Count: lat.Count(),
		P50:   lat.Quantile(0.50),
		P95:   lat.Quantile(0.95),
		P99:   lat.Quantile(0.99),
	}
	for i, c := range clients {
		stats, err := c.Stats(ctx)
		if err != nil {
			return nil, err
		}
		if len(clients) == 1 {
			rep.Server = serverStats{Stats: stats, LatencyMs: &stats.LatencyMs}
			break
		}
		nodeID := fmt.Sprintf("node-%d", i+1)
		if stats.Cluster != nil {
			nodeID = stats.Cluster.NodeID
		}
		h := nodeLat[i]
		rep.Nodes = append(rep.Nodes, nodeReport{
			NodeID:   nodeID,
			Requests: int(atomic.LoadInt64(&nodeReqs[i])),
			LatencyMs: quantiles{
				Count: h.Count(),
				P50:   h.Quantile(0.50),
				P95:   h.Quantile(0.95),
				P99:   h.Quantile(0.99),
			},
			Server: stats,
		})
		// The cluster-wide volume counters are sums; the per-node Cluster
		// block stays per-node (summing breaker opens across nodes would
		// hide which member tripped).
		rep.Server.Requests += stats.Requests
		rep.Server.CacheHits += stats.CacheHits
		rep.Server.Errors += stats.Errors
		rep.Server.Shed += stats.Shed
		rep.Server.Degraded += stats.Degraded
		rep.Server.PanicsRecovered += stats.PanicsRecovered
		rep.Server.RetryAfterIssued += stats.RetryAfterIssued
		rep.Server.DPFullSolves += stats.DPFullSolves
		rep.Server.DPSegmentSolves += stats.DPSegmentSolves
		rep.Server.StitchedServes += stats.StitchedServes
		rep.Server.BatchItems += stats.BatchItems
	}
	solves := rep.Server.DPFullSolves + rep.Server.DPSegmentSolves
	if solves > 0 {
		rep.ReuseFactor = float64(rep.Requests) / float64(solves)
	}
	return rep, nil
}

// lazyHandler lets an httptest.Server exist (and hand out its URL) before
// the cloud.Server behind it does: cluster members need every peer's base
// URL at construction time, a chicken-and-egg the indirection breaks. Until
// the handler is installed it answers 503, which the heartbeat sweep and
// client retries already tolerate.
type lazyHandler struct{ v atomic.Value }

func (l *lazyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := l.v.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "starting", http.StatusServiceUnavailable)
}

// startCluster boots cfg.Nodes clustered in-process servers (DESIGN.md §13)
// with full-mesh peer maps and fast heartbeats, waits until every member
// reports ready, and returns their base URLs plus a cleanup that tears the
// whole cluster down.
func startCluster(cfg loadConfig) (urls []string, cleanup func(), err error) {
	n := cfg.Nodes
	lazies := make([]*lazyHandler, n)
	backends := make([]*httptest.Server, n)
	for i := range lazies {
		lazies[i] = &lazyHandler{}
		backends[i] = httptest.NewServer(lazies[i])
	}
	var servers []*cloud.Server
	cleanup = func() {
		for _, s := range servers {
			s.Close()
		}
		for _, ts := range backends {
			ts.Close()
		}
	}
	nodeID := func(i int) string { return fmt.Sprintf("node-%d", i+1) }
	for i := 0; i < n; i++ {
		peers := make(map[string]string, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers[nodeID(j)] = backends[j].URL
			}
		}
		srv, serr := cloud.NewServer(cloud.ServerConfig{
			DPTemplate:    dp.Config{DsM: cfg.DsM, DvMS: cfg.DvMS, DtSec: cfg.DtSec, MaxTripSec: 600},
			SegmentTables: cfg.SegmentTables,
			MaxInFlight:   2 * cfg.Vehicles,
			Cluster: &cloud.ClusterConfig{
				NodeID: nodeID(i),
				Peers:  peers,
				// In-process peers answer in microseconds; the production
				// 500 ms heartbeat would dominate a benchmark run's wall time.
				// Grading is kept loose on purpose: a loaded run (or the race
				// detector) can stall a 50 ms probe past its budget, and a
				// false "dead" would trigger a spurious takeover build that
				// corrupts the reuse measurement.
				HeartbeatSec:    0.05,
				SuspectAfterSec: 1,
				DeadAfterSec:    30,
				WarmRoutes:      []string{"us25"},
			},
		})
		if serr != nil {
			cleanup()
			return nil, nil, serr
		}
		servers = append(servers, srv)
		lazies[i].v.Store(srv.Handler())
	}
	for i, ts := range backends {
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, rerr := http.Get(ts.URL + "/v1/ready")
			if rerr == nil {
				_ = resp.Body.Close() // readiness poll: only the status matters
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				cleanup()
				return nil, nil, fmt.Errorf("cluster node %s never became ready", nodeID(i))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	urls = make([]string, n)
	for i, ts := range backends {
		urls[i] = ts.URL
	}
	return urls, cleanup, nil
}

// makeRequests draws the fleet's departures deterministically from the
// seed: uniform over [0, window), which spreads them across departure
// buckets the way commuters spread across a peak — distinct enough to
// defeat the response cache, shared enough that segment reuse pays.
func makeRequests(cfg loadConfig) []cloud.Request {
	rng := rand.New(rand.NewSource(cfg.Seed))
	reqs := make([]cloud.Request, cfg.Requests)
	for i := range reqs {
		depart := 0.0
		if cfg.WindowSec > 0 {
			depart = rng.Float64() * cfg.WindowSec
		}
		reqs[i] = cloud.Request{
			Route:                 "us25",
			DepartTime:            depart,
			ArrivalRateVehPerHour: cfg.RateVehPerHour,
		}
	}
	return reqs
}
