// Command cloudd runs the vehicular-cloud optimization service: EVs POST
// their route and departure time to /v1/optimize and receive the
// queue-aware optimal velocity profile.
//
// Usage:
//
//	cloudd [-addr host:port] [-rate veh/h] [-deadline 30s]
//	       [-max-inflight N] [-drain 10s] [-segment-tables=true]
//	       [-node-id n1 -peers "n2=http://host:port,n3=..." ]
//	       [-replicas 2] [-heartbeat-ms 500]
//
// With -node-id and -peers the process joins a cloudd cluster
// (DESIGN.md §13): segment-table ownership is sharded across the members
// by consistent hashing, built tables replicate to ring successors, and a
// member serves every request it receives, fetching the tables of routes
// another node owns from that owner or a replica. Readiness is served on
// /v1/ready, distinct from the /v1/health liveness probe.
//
// On SIGINT/SIGTERM the server drains gracefully: readiness flips to 503
// first (so load balancers stop routing here), then in-flight
// optimizations get up to -drain to finish and deliver their responses
// before the process exits (a hard Close would abort them mid-body).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"evvo/internal/cloud"
	"evvo/internal/queue"
	"evvo/internal/road"
	"evvo/internal/units"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8714", "listen address")
		rate        = flag.Float64("rate", 153, "default predicted arrival rate at signals, vehicles/hour")
		deadline    = flag.Duration("deadline", 30*time.Second, "per-request compute deadline (0 disables)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently computing requests (0 = 2×GOMAXPROCS, <0 disables admission control)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget for in-flight requests")
		segTables   = flag.Bool("segment-tables", true, "serve from shared per-segment DP tables (DESIGN.md §11) instead of per-request full solves")
		coarseRung  = flag.Int("coarse-ladder", 3, "coarse-grid ladder rung: when the exact solve blows its budget, re-solve coarse-to-fine at this velocity-grid factor, corridor ±2·factor·Δv, without segment tables (0 disables, DESIGN.md §12)")
		nodeID      = flag.String("node-id", "", "cluster node ID (empty = standalone)")
		peers       = flag.String("peers", "", `cluster peers as "id=http://host:port,id=url,..." (requires -node-id)`)
		replicas    = flag.Int("replicas", 0, "table replica count per route key, owner included (0 = default 2, capped at membership)")
		heartbeatMS = flag.Float64("heartbeat-ms", 0, "cluster heartbeat interval in milliseconds (0 = default 500)")
	)
	flag.Parse()
	p := serverParams{
		rate: *rate, deadline: *deadline, maxInflight: *maxInflight,
		segTables: *segTables, coarseRung: *coarseRung,
		nodeID: *nodeID, replicas: *replicas, heartbeatMS: *heartbeatMS,
	}
	var err error
	if p.peers, err = parsePeers(*peers); err != nil {
		fmt.Fprintln(os.Stderr, "cloudd:", err)
		os.Exit(1)
	}
	if err := run(*addr, *drain, p); err != nil {
		fmt.Fprintln(os.Stderr, "cloudd:", err)
		os.Exit(1)
	}
}

// parsePeers parses the -peers flag: comma-separated id=baseURL pairs.
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, base, ok := strings.Cut(pair, "=")
		if !ok || id == "" || base == "" {
			return nil, fmt.Errorf(`peer %q: want "id=http://host:port"`, pair)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("duplicate peer ID %q", id)
		}
		out[id] = base
	}
	return out, nil
}

// serverParams collects the buildServer knobs (the flag surface grew past
// a readable positional list when clustering arrived).
type serverParams struct {
	rate        float64
	deadline    time.Duration
	maxInflight int
	segTables   bool
	coarseRung  int
	nodeID      string
	peers       map[string]string
	replicas    int
	heartbeatMS float64
}

// buildServer constructs the cloud service with a constant default
// arrival-rate estimate.
func buildServer(p serverParams) (*cloud.Server, error) {
	vin := queue.VehPerHour(p.rate)
	deadlineSec := p.deadline.Seconds()
	if p.deadline <= 0 {
		deadlineSec = -1 // ServerConfig convention: negative disables
	}
	cfg := cloud.ServerConfig{
		ArrivalRate:        func(road.Control, float64) (float64, error) { return vin, nil },
		DefaultDeadlineSec: deadlineSec,
		MaxInFlight:        p.maxInflight,
		SegmentTables:      p.segTables,
		CoarseLadderFactor: p.coarseRung,
	}
	if p.nodeID != "" {
		cfg.Cluster = &cloud.ClusterConfig{
			NodeID:       p.nodeID,
			Peers:        p.peers,
			Replicas:     p.replicas,
			HeartbeatSec: units.MsToSec(p.heartbeatMS),
		}
	} else if len(p.peers) > 0 {
		return nil, fmt.Errorf("-peers requires -node-id")
	}
	return cloud.NewServer(cfg)
}

func run(addr string, drain time.Duration, p serverParams) error {
	srv, err := buildServer(p)
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	log.Printf("cloudd: serving on http://%s (default rate %.0f veh/h, deadline %v, drain %v)",
		ln.Addr(), p.rate, p.deadline, drain)
	return serve(httpSrv, ln, sigCh, drain, srv.BeginDrain)
}

// serve runs httpSrv on ln until a signal arrives, then shuts down
// gracefully: beginDrain flips /v1/ready to 503 *before* the listener
// closes — readiness must fail while the node can still answer it, or load
// balancers learn about the drain from connection errors — and in-flight
// requests then get up to drain to complete. Only if the drain budget
// expires are the remaining connections cut hard.
func serve(httpSrv *http.Server, ln net.Listener, stop <-chan os.Signal, drain time.Duration, beginDrain func()) error {
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-stop:
		log.Printf("cloudd: %v received, draining for up to %v", sig, drain)
		if beginDrain != nil {
			beginDrain()
		}
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			// Drain budget exhausted; cut the stragglers.
			log.Printf("cloudd: drain incomplete (%v), closing", err)
			return httpSrv.Close()
		}
		return nil
	}
}
