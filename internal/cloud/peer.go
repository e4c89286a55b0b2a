// Cluster serving: consistent-hash sharding of segment-table ownership
// across a fleet of cloudd peers, with replication, failure detection,
// hedged fetches, per-peer circuit breakers and request forwarding
// (DESIGN.md §13). The membership/health primitives live in
// internal/cluster; this file supplies the HTTP plumbing and wires them
// into the serving stack:
//
//   - routeTables consults acquireTables: the route key's acting owner
//     builds the tables (and replicates them to its ring successors);
//     everyone else fetches the built tables from the owner or a replica,
//     hedging a second fetch after a latency-percentile budget.
//   - handleOptimize forwards requests for routes this node neither owns
//     nor has warm to the acting owner, guarded against forwarding loops
//     by the X-Forwarded-By chain.
//   - Degradation order when the owner is unreachable: replica fetch →
//     local table rebuild → (below, in solve) monolithic DP. Every rung
//     yields the exact answer — peer failures cost latency and duplicated
//     work, never plan quality — so none of them set Response.Degraded.
package cloud

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"evvo/internal/cluster"
	"evvo/internal/dp"
	"evvo/internal/metrics"
	"evvo/internal/stable"
	"evvo/internal/units"
)

// ForwardedByHeader carries the comma-separated chain of node IDs a
// forwarded request has passed through. A node that finds itself in the
// chain — or a chain as long as the membership — serves locally instead of
// forwarding again, so stale ownership views can never orbit a request.
const ForwardedByHeader = "X-Forwarded-By"

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
	// VirtualNodes per member on the hash ring (default
	// cluster.DefaultVirtualNodes).
	VirtualNodes int
	// HeartbeatSec is the probe interval (default 0.5). Each sweep probes
	// every peer's /v1/health with a per-probe timeout of one interval.
	HeartbeatSec float64
	// SuspectAfterSec and DeadAfterSec grade peer silence (defaults 3× and
	// 6× HeartbeatSec). A suspect peer keeps its ownership — reassigning on
	// first silence would flap — but a dead peer's keys move to its ring
	// successors.
	SuspectAfterSec float64
	DeadAfterSec    float64
	// HedgeQuantile picks the observed fetch-latency percentile after
	// which a table fetch is hedged to the next replica (default 0.95);
	// HedgeMinSec floors that budget while the histogram is still cold
	// (default 0.05).
	HedgeQuantile float64
	HedgeMinSec   float64
	// BreakerFails and BreakerCooldownSec parameterize the per-peer
	// circuit breaker (defaults 3 consecutive failures, 2 s cooldown).
	BreakerFails       int
	BreakerCooldownSec float64
	// MaxTableBytes bounds a received table payload (default 32 MiB).
	MaxTableBytes int64
	// WarmRoutes lists route names whose tables this node builds at boot
	// when it owns them, before /v1/ready reports ready. Routes owned by
	// other nodes warm lazily on first use. Default: none (ready as soon
	// as the first heartbeat sweep completes).
	WarmRoutes []string
}

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
	if c.VirtualNodes == 0 {
		c.VirtualNodes = cluster.DefaultVirtualNodes
	}
	if c.HeartbeatSec == 0 {
		c.HeartbeatSec = 0.5
	}
	if c.HeartbeatSec < 0 {
		return fmt.Errorf("cloud: cluster heartbeat %.3f s must be positive", c.HeartbeatSec)
	}
	if c.SuspectAfterSec == 0 {
		c.SuspectAfterSec = 3 * c.HeartbeatSec
	}
	if c.DeadAfterSec == 0 {
		c.DeadAfterSec = 2 * c.SuspectAfterSec
	}
	if c.SuspectAfterSec <= 0 || c.DeadAfterSec <= c.SuspectAfterSec {
		return fmt.Errorf("cloud: cluster detector timeouts must satisfy 0 < suspect (%.3f s) < dead (%.3f s)",
			c.SuspectAfterSec, c.DeadAfterSec)
	}
	if c.HedgeQuantile == 0 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeQuantile < 0 || c.HedgeQuantile >= 1 {
		return fmt.Errorf("cloud: hedge quantile %.2f must be in (0, 1)", c.HedgeQuantile)
	}
	if c.HedgeMinSec == 0 {
		c.HedgeMinSec = 0.05
	}
	if c.HedgeMinSec < 0 {
		return fmt.Errorf("cloud: hedge floor %.3f s must be non-negative", c.HedgeMinSec)
	}
	if c.BreakerFails == 0 {
		c.BreakerFails = 3
	}
	if c.BreakerCooldownSec == 0 {
		c.BreakerCooldownSec = 2
	}
	if c.BreakerFails < 0 || c.BreakerCooldownSec < 0 {
		return fmt.Errorf("cloud: breaker threshold %d and cooldown %.2f s must be positive",
			c.BreakerFails, c.BreakerCooldownSec)
	}
	if c.MaxTableBytes == 0 {
		c.MaxTableBytes = 32 << 20
	}
	if c.MaxTableBytes < 0 {
		return fmt.Errorf("cloud: max table bytes %d must be positive", c.MaxTableBytes)
	}
	return nil
}

// peerLink is this node's view of one peer: its retrying JSON client (for
// forwards), its raw HTTP client (heartbeats and gob table exchanges,
// sharing the fault-injected transport) and its circuit breaker.
type peerLink struct {
	id      string
	baseURL string
	client  *Client
	http    *http.Client
	breaker *cluster.Breaker
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

	// ctx is the cluster lifetime (heartbeats, replication pushes, warm
	// builds), cancelled by Server.Close.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	primedOnce sync.Once
	primed     chan struct{} // closed after the first heartbeat sweep
	ready      chan struct{} // closed once primed + WarmRoutes built

	forwards, forwardFails, forwardedIn      metrics.Counter
	takeovers, tableFetches, tableFetchFails metrics.Counter
	hedgedFetches, replPushed, replRecv      metrics.Counter
	peerFallbacks, breakerFastFails          metrics.Counter
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
	ring, err := cluster.Build(members, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	det, err := cluster.NewDetector(peerIDs, secToDur(cfg.SuspectAfterSec), secToDur(cfg.DeadAfterSec), time.Now())
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
		primed:   make(chan struct{}),
		ready:    make(chan struct{}),
	}
	pg.ctx, pg.cancel = context.WithCancel(context.Background())
	for _, id := range peerIDs {
		hc := &http.Client{Transport: &peerTransport{to: id, faults: faults, next: http.DefaultTransport}}
		// Two attempts only: the cluster layer has its own failover (hedge,
		// replica walk, local rebuild), so long client-side retry loops
		// would just delay it.
		cl, err := NewClient(cfg.Peers[id], WithHTTPClient(hc), WithRetryPolicy(RetryPolicy{MaxAttempts: 2}))
		if err != nil {
			pg.cancel()
			return nil, fmt.Errorf("cloud: peer %s: %w", id, err)
		}
		br, err := cluster.NewBreaker(cfg.BreakerFails, secToDur(cfg.BreakerCooldownSec))
		if err != nil {
			pg.cancel()
			return nil, err
		}
		pg.peers[id] = &peerLink{id: id, baseURL: cfg.Peers[id], client: cl, http: hc, breaker: br}
	}
	return pg, nil
}

// close stops the heartbeat loop and waits for in-flight cluster work.
func (pg *peerGroup) close() {
	pg.cancel()
	pg.wg.Wait()
}

// heartbeatLoop probes every peer each interval and feeds the detector.
// The first completed sweep closes primed: the node has joined the ring
// with an informed (if young) view of peer health.
func (pg *peerGroup) heartbeatLoop() {
	defer pg.wg.Done()
	t := time.NewTicker(secToDur(pg.cfg.HeartbeatSec))
	defer t.Stop()
	for {
		pg.sweep()
		pg.primedOnce.Do(func() { close(pg.primed) })
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
	// primary; breakers fail the exchanges fast and callers fall back to
	// local compute.
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
// the next candidate when the fetch outlives the HedgeQuantile of
// previously observed fetch latencies (floored at HedgeMinSec) and failing
// over candidate by candidate. First success wins; the others are
// cancelled. cfg is the local grid config the import validates against.
func (pg *peerGroup) fetchTables(ctx context.Context, key string, cfg dp.Config, owner string) (*dp.RouteTables, error) {
	cands := pg.fetchCandidates(key, owner, time.Now())
	if len(cands) == 0 {
		return nil, fmt.Errorf("cloud: no live replica to fetch tables for %q", key)
	}
	hedgeAfter := secToDur(pg.cfg.HedgeMinSec)
	if q := secToDur(units.MsToSec(pg.fetchLat.Quantile(pg.cfg.HedgeQuantile))); q > hedgeAfter {
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
				pg.tableFetchFails.Inc()
				return nil, lastErr
			}
		}
	}
}

// fetchOne performs a single breaker-guarded GET /v1/tables/{key} against
// one peer and imports the payload under the local config.
func (pg *peerGroup) fetchOne(ctx context.Context, pl *peerLink, key string, cfg dp.Config) (*dp.RouteTables, error) {
	if !pl.breaker.Allow(time.Now()) {
		pg.breakerFastFails.Inc()
		return nil, fmt.Errorf("cloud: circuit breaker open for peer %s", pl.id)
	}
	start := time.Now()
	fail := func(err error) (*dp.RouteTables, error) {
		pl.breaker.Failure(time.Now())
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
	var w dp.TablesWire
	if err := gob.NewDecoder(io.LimitReader(resp.Body, pg.cfg.MaxTableBytes)).Decode(&w); err != nil {
		return fail(fmt.Errorf("cloud: decoding tables %q from %s: %w", key, pl.id, err))
	}
	rt, err := dp.ImportRouteTables(cfg, &w)
	if err != nil {
		return fail(fmt.Errorf("cloud: peer %s: %w", pl.id, err))
	}
	pl.breaker.Success()
	pg.fetchLat.Observe(units.SecToMs(time.Since(start).Seconds()))
	return rt, nil
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
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rt.Export()); err != nil {
		return
	}
	payload := buf.Bytes()
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

// forwardOptimize forwards req to its acting owner when this node neither
// owns the route key nor has its tables warm. It returns nil when the
// request should be served locally instead: this node is the owner, the
// tables are already here, the loop guard fired, the breaker is open, or
// the forward itself failed (local serving is the degradation path — a
// forwarding failure must never outrank a computable answer).
func (s *Server) forwardOptimize(ctx context.Context, req Request, chain string) *Response {
	pg := s.peers
	if pg == nil {
		return nil
	}
	if chain != "" {
		pg.forwardedIn.Inc()
	}
	s.mu.Lock()
	_, warm := s.segTables[req.Route]
	s.mu.Unlock()
	if warm {
		return nil
	}
	owner, _ := pg.actingOwner(req.Route, time.Now())
	if owner == pg.self {
		return nil
	}
	hops := splitChain(chain)
	if len(hops) >= pg.ring.Len() {
		return nil // every member has touched this request already
	}
	for _, h := range hops {
		if h == pg.self {
			return nil // loop: we have seen this request before
		}
	}
	pl := pg.peers[owner]
	if pl == nil {
		return nil
	}
	if !pl.breaker.Allow(time.Now()) {
		pg.breakerFastFails.Inc()
		return nil
	}
	hdr := http.Header{}
	hdr.Set(ForwardedByHeader, strings.Join(append(hops, pg.self), ","))
	body, err := json.Marshal(req)
	if err != nil {
		return nil
	}
	var out Response
	if err := pl.client.doHeaders(ctx, "/v1/optimize", body, hdr, &out); err != nil {
		pl.breaker.Failure(time.Now())
		pg.forwardFails.Inc()
		return nil
	}
	pl.breaker.Success()
	pg.forwards.Inc()
	return &out
}

// splitChain parses an X-Forwarded-By header into node IDs.
func splitChain(chain string) []string {
	if chain == "" {
		return nil
	}
	parts := strings.Split(chain, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// clusterReady reports whether the cluster runtime has completed its
// first heartbeat sweep and warm builds.
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
	// Ready mirrors /v1/ready (ring joined + warm routes built, not
	// draining).
	Ready bool `json:"ready"`
	// Peer health as graded by the local failure detector right now.
	PeersAlive   int `json:"peersAlive"`
	PeersSuspect int `json:"peersSuspect"`
	PeersDead    int `json:"peersDead"`
	// Forwards counts requests this node forwarded to a route's owner;
	// ForwardFails counts forwards that failed over to local serving;
	// ForwardedIn counts requests that arrived already forwarded.
	Forwards     int64 `json:"forwards"`
	ForwardFails int64 `json:"forwardFails"`
	ForwardedIn  int64 `json:"forwardedIn"`
	// Takeovers counts table builds this node performed as acting owner
	// for keys whose ring primary it is not — i.e. ownership failovers.
	Takeovers int64 `json:"takeovers"`
	// TableFetches counts successful cross-node table fetches;
	// HedgedFetches the extra attempts launched past the hedge budget;
	// TableFetchFails exhausted candidate lists.
	TableFetches    int64 `json:"tableFetches"`
	TableFetchFails int64 `json:"tableFetchFails"`
	HedgedFetches   int64 `json:"hedgedFetches"`
	// ReplicasPushed / ReplicasReceived count table replication traffic.
	ReplicasPushed   int64 `json:"replicasPushed"`
	ReplicasReceived int64 `json:"replicasReceived"`
	// PeerFallbacks counts local table rebuilds after all fetch candidates
	// failed; BreakerFastFails exchanges refused locally by an open
	// breaker; BreakerOpens closed→open breaker transitions across peers.
	PeerFallbacks    int64 `json:"peerFallbacks"`
	BreakerFastFails int64 `json:"breakerFastFails"`
	BreakerOpens     int64 `json:"breakerOpens"`
}

// clusterStats snapshots the cluster counters (nil without a cluster).
func (s *Server) clusterStats() *ClusterStats {
	pg := s.peers
	if pg == nil {
		return nil
	}
	now := time.Now()
	alive, suspect, dead := pg.det.Counts(now)
	var opens int64
	for _, id := range pg.order {
		opens += pg.peers[id].breaker.Opens()
	}
	return &ClusterStats{
		NodeID:           pg.self,
		Ready:            pg.clusterReady() && !s.draining.Load(),
		PeersAlive:       alive,
		PeersSuspect:     suspect,
		PeersDead:        dead,
		Forwards:         pg.forwards.Value(),
		ForwardFails:     pg.forwardFails.Value(),
		ForwardedIn:      pg.forwardedIn.Value(),
		Takeovers:        pg.takeovers.Value(),
		TableFetches:     pg.tableFetches.Value(),
		TableFetchFails:  pg.tableFetchFails.Value(),
		HedgedFetches:    pg.hedgedFetches.Value(),
		ReplicasPushed:   pg.replPushed.Value(),
		ReplicasReceived: pg.replRecv.Value(),
		PeerFallbacks:    pg.peerFallbacks.Value(),
		BreakerFastFails: pg.breakerFastFails.Value(),
		BreakerOpens:     opens,
	}
}
