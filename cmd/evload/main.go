// Command evload drives a simulated EV fleet against a running
// vehicular-cloud service (cmd/cloudd) and prints one summary line:
// request and failure counts, client-side latency quantiles, and the
// target's DP solves, reuse factor (requests per DP solve, DESIGN.md §11),
// shed and degraded counts. The server figures are this run's own: the
// difference of the target's /v1/stats read before and after the load, so
// they hold against a service that has already served other traffic.
//
// evload is a load driver, not a benchmark: the service's end-to-end
// figures come from servebench (BENCHMARK.json).
//
// Usage:
//
//	evload -addr http://host:port [-vehicles 12] [-requests 96]
//	       [-batch 32] [-window 300] [-rate 153] [-seed 1]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"evvo/internal/cloud"
	"evvo/internal/metrics"
	"evvo/internal/par"
	"evvo/internal/units"
)

func main() {
	var cfg loadConfig
	flag.StringVar(&cfg.Addr, "addr", "", "base URL of the running service, e.g. http://127.0.0.1:8714 (required)")
	flag.IntVar(&cfg.Vehicles, "vehicles", 12, "concurrent vehicles (client-side concurrency)")
	flag.IntVar(&cfg.Requests, "requests", 96, "total optimize requests to issue")
	flag.IntVar(&cfg.Batch, "batch", 32, "requests per /v1/optimize/batch call (0 = individual /v1/optimize calls)")
	flag.Float64Var(&cfg.WindowSec, "window", 300, "departure spread in seconds; departures are drawn from [0, window)")
	flag.Float64Var(&cfg.RateVehPerHour, "rate", 153, "arrival-rate override sent with each request (0 = server default)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "PRNG seed for departure times")
	flag.Parse()
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "evload:", err)
		flag.Usage()
		os.Exit(2)
	}

	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evload:", err)
		os.Exit(1)
	}
	// A run the target served entirely from cache or warm tables solved
	// nothing: its reuse is unbounded, not zero.
	reuse := "no solves"
	if solves := rep.Server.DPFullSolves + rep.Server.DPSegmentSolves; solves > 0 {
		reuse = fmt.Sprintf("reuse %.1f×", float64(rep.Requests)/float64(solves))
	}
	fmt.Printf("evload: %d requests (%d failed) via %s; latency p50 %.1f ms p95 %.1f ms p99 %.1f ms; %d full + %d segment solves (%s); shed %d degraded %d\n",
		rep.Requests, rep.Failed, rep.Mode, rep.LatencyMs.P50, rep.LatencyMs.P95, rep.LatencyMs.P99,
		rep.Server.DPFullSolves, rep.Server.DPSegmentSolves, reuse, rep.Server.Shed, rep.Server.Degraded)
}

// loadConfig parameterizes one load run.
type loadConfig struct {
	Addr           string
	Vehicles       int
	Requests       int
	Batch          int
	WindowSec      float64
	RateVehPerHour float64
	Seed           int64
}

func (cfg loadConfig) validate() error {
	if cfg.Addr == "" {
		return fmt.Errorf("-addr is required: evload drives a running service")
	}
	if cfg.Requests <= 0 || cfg.Vehicles <= 0 {
		return fmt.Errorf("requests (%d) and vehicles (%d) must be positive", cfg.Requests, cfg.Vehicles)
	}
	if cfg.Batch < 0 || cfg.WindowSec < 0 {
		return fmt.Errorf("batch (%d) and window (%.0f) must be non-negative", cfg.Batch, cfg.WindowSec)
	}
	return nil
}

// report is one load run's outcome.
type report struct {
	Mode     string // "batch" or "single"
	Requests int
	Failed   int
	// LatencyMs holds client-observed quantiles, one sample per request in
	// both modes. A batch item's latency is its call's round-trip — every
	// vehicle in the batch waits for the whole call — so batch quantiles
	// are weighted by requests, not by calls; Count always equals the
	// number of requests issued.
	LatencyMs cloud.LatencyStats
	// Server holds the target's solve, shed and degraded counters accrued
	// during this run: its /v1/stats after the load minus before it.
	Server cloud.Stats
}

func run(ctx context.Context, cfg loadConfig) (*report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	client, err := cloud.NewClient(cfg.Addr)
	if err != nil {
		return nil, err
	}

	before, err := client.Stats(ctx)
	if err != nil {
		return nil, err
	}
	reqs := makeRequests(cfg)
	lat := metrics.NewLatencyHistogram()
	rep := &report{Requests: len(reqs), Mode: "single"}
	var mu sync.Mutex // guards rep.Failed across the worker pool
	if cfg.Batch > 0 {
		rep.Mode = "batch"
		var calls []cloud.BatchRequest
		for len(reqs) > 0 {
			n := min(cfg.Batch, len(reqs))
			calls = append(calls, cloud.BatchRequest{Requests: reqs[:n]})
			reqs = reqs[n:]
		}
		err = par.ForEach(cfg.Vehicles, len(calls), func(i int) error {
			start := time.Now()
			out, err := client.OptimizeBatch(ctx, calls[i])
			// Observe once per item, not once per call: a 96-request run in
			// three batches is 96 vehicle-visible latencies, not 3, and
			// per-call observation silently under-weighted batch quantiles.
			elapsedMs := units.SecToMs(time.Since(start).Seconds())
			for range calls[i].Requests {
				lat.Observe(elapsedMs)
			}
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
			start := time.Now()
			_, rerr := client.Optimize(ctx, reqs[i])
			lat.Observe(units.SecToMs(time.Since(start).Seconds()))
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

	rep.LatencyMs = cloud.LatencyStats{
		Count: lat.Count(),
		P50:   lat.Quantile(0.50),
		P95:   lat.Quantile(0.95),
		P99:   lat.Quantile(0.99),
	}
	after, err := client.Stats(ctx)
	if err != nil {
		return nil, err
	}
	rep.Server = cloud.Stats{
		DPFullSolves:    after.DPFullSolves - before.DPFullSolves,
		DPSegmentSolves: after.DPSegmentSolves - before.DPSegmentSolves,
		Shed:            after.Shed - before.Shed,
		Degraded:        after.Degraded - before.Degraded,
	}
	return rep, nil
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
