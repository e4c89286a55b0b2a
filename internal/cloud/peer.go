// Cluster serving: consistent-hash sharding of segment-table ownership
// across a fleet of cloudd peers, with replication, failure detection and
// hedged fetches (DESIGN.md §13). The failure detector alone decides which
// peers are worth dialing. The membership/health primitives live in
// internal/cluster; this file supplies the HTTP plumbing and wires them
// into the serving stack.
//
// Tables are the one thing nodes share. Whichever node a request reaches
// serves it, single or batch item alike: routeTables consults
// acquireTables, where the route key's acting owner builds the tables (and
// replicates them to its ring successors) and everyone else fetches the
// built tables from the owner or a replica, hedging a second fetch after a
// latency-percentile budget. Degradation order when the owner is
// unreachable: replica fetch → local table rebuild → (below, in solve)
// monolithic DP. Every rung yields the exact answer — peer failures cost
// latency and duplicated work, never plan quality — so none of them set
// Response.Degraded.
package cloud

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sync"
	"time"

	"evvo/internal/cluster"
	"evvo/internal/dp"
	"evvo/internal/metrics"
	"evvo/internal/stable"
	"evvo/internal/units"
)

// ClusterConfig joins this server to a fixed-membership cloudd cluster.
// Membership is boot-time configuration (the -peers flag): node liveness
// is tracked by the failure detector, not by ring mutation.
type ClusterConfig struct {
	// NodeID names this node (required, unique across the cluster).
	NodeID string
	// Peers maps the *other* members' node IDs to their base URLs
	// ("http://host:port"). The ring is built over NodeID + keys(Peers),
	// so every node derives the same membership.
	Peers map[string]string
	// Replicas is the total copy count per route key, owner included
	// (default 2, capped at the membership size).
	Replicas int
	// HeartbeatSec is the probe interval (default 0.5). Each sweep probes
	// every peer's /v1/health with a per-probe timeout of one interval. A
	// peer silent for suspectBeats intervals is suspect and keeps its
	// ownership — reassigning on first silence would flap — and one silent
	// for deadBeats intervals is dead: its keys move to its ring successors.
	HeartbeatSec float64
}

// Fixed cluster tuning (DESIGN.md §13): no deployment needs other values,
// so none of them is an option.
const (
	// suspectBeats and deadBeats grade peer silence in heartbeat intervals.
	suspectBeats = 3
	deadBeats    = 6
	// A table fetch is hedged to the next replica once it outlives the
	// hedgeQuantile of observed fetch latencies, floored at hedgeMinSec
	// while the histogram is still cold.
	hedgeQuantile = 0.95
	hedgeMinSec   = 0.05
	// maxTableBytes bounds a table payload received from a peer.
	maxTableBytes = 32 << 20
)

// normalize fills defaults and validates. It mutates the receiver so the
// effective values are visible to the caller (and to tests).
func (c *ClusterConfig) normalize() error {
	if c.NodeID == "" {
		return fmt.Errorf("cloud: cluster config needs a node ID")
	}
	for id, base := range c.Peers {
		if id == "" || base == "" {
			return fmt.Errorf("cloud: cluster peer %q=%q needs both an ID and a base URL", id, base)
		}
		if id == c.NodeID {
			return fmt.Errorf("cloud: cluster peer list contains this node's own ID %q", id)
		}
	}
	members := len(c.Peers) + 1
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Replicas < 1 {
		return fmt.Errorf("cloud: cluster replicas %d must be positive", c.Replicas)
	}
	if c.Replicas > members {
		c.Replicas = members
	}
	if c.HeartbeatSec == 0 {
		c.HeartbeatSec = 0.5
	}
	// The interval feeds time.NewTicker, which panics on a non-positive
	// period: reject NaN/±Inf and anything that rounds to ≤ 0 ns, and
	// anything whose dead-after grade overflows a Duration.
	if h := c.HeartbeatSec; math.IsNaN(h) || math.IsInf(h, 0) || secToDur(h) <= 0 || secToDur(deadBeats*h) <= 0 {
		return fmt.Errorf("cloud: cluster heartbeat %g s must be a positive duration", c.HeartbeatSec)
	}
	return nil
}

// peerLink is this node's view of one peer: its HTTP client (heartbeats
// and gob table exchanges, over the fault-injected transport).
type peerLink struct {
	id      string
	baseURL string
	http    *http.Client
}

// peerGroup is the cluster runtime attached to a Server: ring, detector,
// per-peer links, the heartbeat loop, and the cluster counters.
type peerGroup struct {
	cfg  ClusterConfig
	self string
	ring *cluster.Ring
	det  *cluster.Detector

	peers map[string]*peerLink
	order []string // sorted peer IDs, for deterministic iteration

	// fetchLat feeds the hedge budget: the observed latency of successful
	// table fetches.
	fetchLat *metrics.Histogram

	// ctx is the cluster lifetime (heartbeats, replication pushes),
	// cancelled by Server.Close.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	readyOnce sync.Once
	ready     chan struct{} // closed after the first heartbeat sweep

	takeovers, tableFetches, tableFetchFails           metrics.Counter
	hedgedFetches, replPushed, replRecv, peerFallbacks metrics.Counter
}

// peerTransport injects the peer-level faults (delay, then drop) in front
// of a real transport, on the sending side only — which is what makes the
// injected partitions asymmetric.
type peerTransport struct {
	to     string
	faults *Faults
	next   http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (t *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if f := t.faults.PeerDelay; f != nil {
		if !sleepCtx(f(t.to), req.Context().Done()) {
			return nil, fmt.Errorf("cloud: peer exchange to %s cancelled during injected delay: %w", t.to, req.Context().Err())
		}
	}
	if f := t.faults.PeerDrop; f != nil && f(t.to) {
		return nil, fmt.Errorf("cloud: injected partition to peer %s", t.to)
	}
	return t.next.RoundTrip(req)
}

// newPeerGroup builds the cluster runtime. faults points at the server's
// fault config so chaos hooks installed there reach the peer transports.
func newPeerGroup(cfg ClusterConfig, faults *Faults) (*peerGroup, error) {
	peerIDs := stable.SortedKeys(cfg.Peers)
	members := make([]string, 0, len(cfg.Peers)+1)
	members = append(members, cfg.NodeID)
	members = append(members, peerIDs...)
	ring, err := cluster.Build(members, 0)
	if err != nil {
		return nil, err
	}
	det, err := cluster.NewDetector(peerIDs,
		secToDur(suspectBeats*cfg.HeartbeatSec), secToDur(deadBeats*cfg.HeartbeatSec), time.Now())
	if err != nil {
		return nil, err
	}
	pg := &peerGroup{
		cfg:      cfg,
		self:     cfg.NodeID,
		ring:     ring,
		det:      det,
		peers:    make(map[string]*peerLink, len(cfg.Peers)),
		order:    peerIDs,
		fetchLat: metrics.NewLatencyHistogram(),
		ready:    make(chan struct{}),
	}
	for _, id := range peerIDs {
		pg.peers[id] = &peerLink{
			id: id, baseURL: cfg.Peers[id],
			http: &http.Client{Transport: &peerTransport{to: id, faults: faults, next: http.DefaultTransport}},
		}
	}
	pg.ctx, pg.cancel = context.WithCancel(context.Background())
	return pg, nil
}

// close stops the heartbeat loop and waits for in-flight cluster work.
func (pg *peerGroup) close() {
	pg.cancel()
	pg.wg.Wait()
}

// heartbeatLoop probes every peer each interval and feeds the detector.
// The first completed sweep closes ready: the node has joined the ring
// with an informed (if young) view of peer health.
func (pg *peerGroup) heartbeatLoop() {
	defer pg.wg.Done()
	t := time.NewTicker(secToDur(pg.cfg.HeartbeatSec))
	defer t.Stop()
	for {
		pg.sweep()
		pg.readyOnce.Do(func() { close(pg.ready) })
		select {
		case <-pg.ctx.Done():
			return
		case <-t.C:
		}
	}
}

// sweep probes all peers in parallel, each with a one-interval timeout so
// a hung peer cannot stall the detector's view of the others.
func (pg *peerGroup) sweep() {
	var wg sync.WaitGroup
	for _, id := range pg.order {
		pl := pg.peers[id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(pg.ctx, secToDur(pg.cfg.HeartbeatSec))
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, pl.baseURL+"/v1/health", nil)
			if err != nil {
				return
			}
			resp, err := pl.http.Do(req)
			if err != nil {
				return
			}
			_ = resp.Body.Close() // health probe: only the status matters
			if resp.StatusCode == http.StatusOK {
				pg.det.Observe(pl.id, time.Now())
			}
		}()
	}
	wg.Wait()
}

// actingOwner resolves who serves key right now: the first member of the
// key's successor list the detector does not grade dead (self always
// counts live). takeover reports that the acting owner is not the ring
// primary — i.e. ownership has failed over.
func (pg *peerGroup) actingOwner(key string, now time.Time) (owner string, takeover bool) {
	succ := pg.ring.Successors(key, pg.ring.Len())
	for _, id := range succ {
		if id == pg.self || pg.det.State(id, now) != cluster.StateDead {
			return id, id != succ[0]
		}
	}
	// Every member is dead in our view — a full partition. Keep the
	// primary; its fetch fails and the caller falls back to local compute.
	return succ[0], false
}

// fetchCandidates orders the peers worth asking for key's tables: the
// acting owner first, then the remaining ring successors (the replica
// set and beyond), skipping self and dead peers.
func (pg *peerGroup) fetchCandidates(key, owner string, now time.Time) []*peerLink {
	succ := pg.ring.Successors(key, pg.ring.Len())
	out := make([]*peerLink, 0, len(succ))
	if pl := pg.peers[owner]; pl != nil {
		out = append(out, pl)
	}
	for _, id := range succ {
		if id == pg.self || id == owner {
			continue
		}
		if pl := pg.peers[id]; pl != nil && pg.det.State(id, now) != cluster.StateDead {
			out = append(out, pl)
		}
	}
	return out
}

// fetchTables retrieves key's tables from the acting owner, hedging to
// the next candidate when the fetch outlives the hedgeQuantile of
// previously observed fetch latencies (floored at hedgeMinSec) and failing
// over candidate by candidate. First success wins; the others are
// cancelled. cfg is the local grid config the import validates against.
func (pg *peerGroup) fetchTables(ctx context.Context, key string, cfg dp.Config, owner string) (*dp.RouteTables, error) {
	cands := pg.fetchCandidates(key, owner, time.Now())
	if len(cands) == 0 {
		return nil, fmt.Errorf("cloud: no live replica to fetch tables for %q", key)
	}
	hedgeAfter := secToDur(hedgeMinSec)
	if q := secToDur(units.MsToSec(pg.fetchLat.Quantile(hedgeQuantile))); q > hedgeAfter {
		hedgeAfter = q
	}

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		rt  *dp.RouteTables
		err error
	}
	results := make(chan outcome, len(cands))
	launched, outstanding := 0, 0
	launch := func() {
		pl := cands[launched]
		launched++
		outstanding++
		pg.wg.Add(1)
		go func() {
			defer pg.wg.Done()
			rt, err := pg.fetchOne(fctx, pl, key, cfg)
			results <- outcome{rt, err}
		}()
	}
	launch()
	hedge := time.NewTimer(hedgeAfter)
	defer hedge.Stop()
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("cloud: table fetch for %q abandoned: %w", key, ctx.Err())
		case <-hedge.C:
			if launched < len(cands) {
				pg.hedgedFetches.Inc()
				launch()
				hedge.Reset(hedgeAfter)
			}
		case r := <-results:
			outstanding--
			if r.err == nil {
				pg.tableFetches.Inc()
				return r.rt, nil
			}
			lastErr = r.err
			if launched < len(cands) {
				launch()
			} else if outstanding == 0 {
				return nil, lastErr
			}
		}
	}
}

// fetchOne performs a single GET /v1/tables/{key} against one peer and
// imports the payload under the local config. A failure counts in
// tableFetchFails only when this node did not cancel the fetch itself: a
// lost hedge or an expired request deadline says nothing about the peer.
func (pg *peerGroup) fetchOne(ctx context.Context, pl *peerLink, key string, cfg dp.Config) (*dp.RouteTables, error) {
	start := time.Now()
	fail := func(err error) (*dp.RouteTables, error) {
		if ctx.Err() == nil {
			pg.tableFetchFails.Inc()
		}
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, pl.baseURL+"/v1/tables/"+url.PathEscape(key), nil)
	if err != nil {
		return fail(fmt.Errorf("cloud: building table fetch: %w", err))
	}
	resp, err := pl.http.Do(req)
	if err != nil {
		return fail(fmt.Errorf("cloud: fetching tables %q from %s: %w", key, pl.id, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("cloud: peer %s has no servable tables for %q (HTTP %d)", pl.id, key, resp.StatusCode))
	}
	rt, err := decodeTables(resp.Body, cfg)
	if err != nil {
		return fail(fmt.Errorf("cloud: tables %q from %s: %w", key, pl.id, err))
	}
	pg.fetchLat.Observe(units.SecToMs(time.Since(start).Seconds()))
	return rt, nil
}

// encodeTables is the one encoder of a table payload a node sends to a
// peer: a table GET's body and a replication push alike. gob frames the
// dp.TablesWire's flat binary layout (its MarshalBinary) as one byte
// string.
func encodeTables(rt *dp.RouteTables) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rt.Export()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeTables reads one gob-encoded dp.TablesWire of at most
// maxTableBytes and imports it under the local config cfg. It is the only
// decoder for a payload a node accepts from a peer: a fetched table set
// and a replication push alike.
func decodeTables(r io.Reader, cfg dp.Config) (*dp.RouteTables, error) {
	var w dp.TablesWire
	if err := gob.NewDecoder(io.LimitReader(r, maxTableBytes)).Decode(&w); err != nil {
		return nil, fmt.Errorf("decoding table payload: %w", err)
	}
	return dp.ImportRouteTables(cfg, &w)
}

// replicatePushTimeoutSec bounds one best-effort replication push.
const replicatePushTimeoutSec = 10.0

// replicate pushes freshly built tables for key to the next Replicas-1
// live ring successors, asynchronously and best-effort: replication is an
// availability optimization (a warm copy survives the owner's death), not
// a durability requirement — any node can rebuild from scratch.
func (pg *peerGroup) replicate(key string, rt *dp.RouteTables) {
	if pg.cfg.Replicas < 2 {
		return
	}
	payload, err := encodeTables(rt)
	if err != nil {
		return
	}
	now := time.Now()
	for _, id := range pg.ring.Successors(key, pg.cfg.Replicas) {
		if id == pg.self {
			continue
		}
		pl := pg.peers[id]
		if pl == nil || pg.det.State(id, now) == cluster.StateDead {
			continue
		}
		pg.wg.Add(1)
		go func() {
			defer pg.wg.Done()
			ctx, cancel := context.WithTimeout(pg.ctx, secToDur(replicatePushTimeoutSec))
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPut,
				pl.baseURL+"/v1/tables/"+url.PathEscape(key), bytes.NewReader(payload))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/octet-stream")
			resp, err := pl.http.Do(req)
			if err != nil {
				return
			}
			_ = resp.Body.Close() // push delivered; the status is the receipt
			if resp.StatusCode == http.StatusOK {
				pg.replPushed.Inc()
			}
		}()
	}
}

// acquireTables is the cluster-aware table source behind routeTables'
// build slot. Standalone servers build locally. In a cluster, the acting
// owner builds (and replicates); everyone else fetches from the owner or
// a replica, and when no fetch succeeds rebuilds locally — duplicated
// work, exact answer.
func (s *Server) acquireTables(ctx context.Context, name string, cfg dp.Config) (*dp.RouteTables, error) {
	pg := s.peers
	if pg == nil {
		return s.buildTables(ctx, cfg)
	}
	owner, takeover := pg.actingOwner(name, time.Now())
	if owner == pg.self {
		if takeover {
			pg.takeovers.Inc()
		}
		rt, err := s.buildTables(ctx, cfg)
		if err == nil {
			pg.replicate(name, rt)
		}
		return rt, err
	}
	rt, err := pg.fetchTables(ctx, name, cfg, owner)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		// Owner and replicas all unreachable, but this request still has
		// budget: rebuild locally. Same tables, same plans — the partition
		// costs duplicated compute, never correctness.
		pg.peerFallbacks.Inc()
		return s.buildTables(ctx, cfg)
	}
	return rt, nil
}

// buildTables runs a local segment-table build and accounts its solves.
// Fetched/imported tables bypass this on purpose: their solve cost was
// paid (and counted) on the building node.
func (s *Server) buildTables(ctx context.Context, cfg dp.Config) (*dp.RouteTables, error) {
	rt, err := dp.BuildRouteTables(ctx, cfg)
	if err == nil {
		s.dpSegmentSolves.Add(int64(rt.SegmentSolves()))
	}
	return rt, err
}

// clusterReady reports whether the cluster runtime has completed its
// first heartbeat sweep.
func (pg *peerGroup) clusterReady() bool {
	select {
	case <-pg.ready:
		return true
	default:
		return false
	}
}

// ClusterStats reports the cluster runtime's counters in /v1/stats.
type ClusterStats struct {
	NodeID string `json:"nodeId"`
	// Ready mirrors /v1/ready (first heartbeat sweep done, not draining).
	Ready bool `json:"ready"`
	// Peer health as graded by the local failure detector right now.
	PeersAlive   int `json:"peersAlive"`
	PeersSuspect int `json:"peersSuspect"`
	PeersDead    int `json:"peersDead"`
	// Forwards is always 0: nodes share tables, never requests. It stays
	// because existing readers of /v1/stats still decode it.
	Forwards int64 `json:"forwards"`
	// Takeovers counts table builds this node performed as acting owner
	// for keys whose ring primary it is not — i.e. ownership failovers.
	Takeovers int64 `json:"takeovers"`
	// TableFetches counts successful cross-node table fetches;
	// HedgedFetches the extra attempts launched past the hedge budget;
	// TableFetchFails the fetch attempts that failed, one per peer that
	// did not deliver (attempts this node cancelled itself — a lost hedge,
	// an expired request deadline — are not counted).
	TableFetches    int64 `json:"tableFetches"`
	TableFetchFails int64 `json:"tableFetchFails"`
	HedgedFetches   int64 `json:"hedgedFetches"`
	// ReplicasPushed / ReplicasReceived count table replication traffic.
	ReplicasPushed   int64 `json:"replicasPushed"`
	ReplicasReceived int64 `json:"replicasReceived"`
	// PeerFallbacks counts local table rebuilds after all fetch candidates
	// failed.
	PeerFallbacks int64 `json:"peerFallbacks"`
}

// clusterStats snapshots the cluster counters (nil without a cluster).
func (s *Server) clusterStats() *ClusterStats {
	pg := s.peers
	if pg == nil {
		return nil
	}
	now := time.Now()
	alive, suspect, dead := pg.det.Counts(now)
	return &ClusterStats{
		NodeID:           pg.self,
		Ready:            pg.clusterReady() && !s.draining.Load(),
		PeersAlive:       alive,
		PeersSuspect:     suspect,
		PeersDead:        dead,
		Takeovers:        pg.takeovers.Value(),
		TableFetches:     pg.tableFetches.Value(),
		TableFetchFails:  pg.tableFetchFails.Value(),
		HedgedFetches:    pg.hedgedFetches.Value(),
		ReplicasPushed:   pg.replPushed.Value(),
		ReplicasReceived: pg.replRecv.Value(),
		PeerFallbacks:    pg.peerFallbacks.Value(),
	}
}
