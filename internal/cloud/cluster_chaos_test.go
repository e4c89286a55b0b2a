package cloud

// Cluster chaos tests: boot a real multi-node cluster in-process (each
// member behind its own httptest listener), then kill nodes, partition
// links and trip breakers while load is in flight. The robustness contract
// under test (DESIGN.md §13): every request that reaches a live node
// returns the exact plan — peer failures cost latency and duplicated
// compute, never correctness — and every failover is observable in
// /v1/stats. All of these run under -race via `make chaos-cluster`.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// clusterPeerFaults is a per-node switchboard for the peer-level fault
// hooks, flippable mid-flight.
type clusterPeerFaults struct {
	dropTo  atomic.Value // string: peer ID whose outbound exchanges fail ("" = none)
	delayMS atomic.Int64 // delay on every outbound exchange
}

func (f *clusterPeerFaults) faults() Faults {
	return Faults{
		PeerDrop: func(to string) bool {
			s, _ := f.dropTo.Load().(string)
			return s != "" && s == to
		},
		PeerDelay: func(string) time.Duration {
			return time.Duration(f.delayMS.Load()) * time.Millisecond
		},
	}
}

// clusterTestNode is one member of an in-process test cluster.
type clusterTestNode struct {
	id     string
	srv    *Server
	ts     *httptest.Server
	c      *Client
	faults *clusterPeerFaults
}

// lazyClusterHandler lets the httptest listener (and its URL) exist before
// the cloud.Server behind it: members need every peer's base URL at
// construction time. Until the handler lands it answers 503.
type lazyClusterHandler struct{ v atomic.Value }

func (l *lazyClusterHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := l.v.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "starting", http.StatusServiceUnavailable)
}

// startChaosCluster boots n members with fast failure-detector timings
// (heartbeat 100 ms, suspect 500 ms, dead 1 s — quick enough for the
// convergence polls below, loose enough that race-detector and parallel
// test-package load cannot stall a probe into a false "dead" grading and a
// spurious takeover), warms us25 on its owner, and blocks until every
// member reports ready.
func startChaosCluster(t *testing.T, n int) []*clusterTestNode {
	t.Helper()
	lazies := make([]*lazyClusterHandler, n)
	nodes := make([]*clusterTestNode, n)
	id := func(i int) string { return fmt.Sprintf("chaos-%d", i+1) }
	for i := range lazies {
		lazies[i] = &lazyClusterHandler{}
		nodes[i] = &clusterTestNode{id: id(i), ts: httptest.NewServer(lazies[i])}
		t.Cleanup(nodes[i].ts.Close)
	}
	for i := range nodes {
		peers := make(map[string]string, n-1)
		for j := range nodes {
			if j != i {
				peers[id(j)] = nodes[j].ts.URL
			}
		}
		f := &clusterPeerFaults{}
		f.dropTo.Store("")
		srv, err := NewServer(ServerConfig{
			DPTemplate:    coarseDP(),
			MaxInFlight:   32,
			SegmentTables: true,
			Faults:        f.faults(),
			Cluster: &ClusterConfig{
				NodeID:          id(i),
				Peers:           peers,
				HeartbeatSec:    0.1,
				SuspectAfterSec: 0.5,
				DeadAfterSec:    1,
				WarmRoutes:      []string{"us25"},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].srv, nodes[i].faults = srv, f
		t.Cleanup(srv.Close)
		lazies[i].v.Store(srv.Handler())
		c, err := NewClient(nodes[i].ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i].c = c
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, nd := range nodes {
		for {
			resp, err := http.Get(nd.ts.URL + "/v1/ready")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s never became ready", nd.id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nodes
}

// clusterRoles waits for warm-up and replication to settle and returns the
// us25 owner (the one member that built tables) and, for 3-node clusters,
// the replica holder and the cold member.
func clusterRoles(t *testing.T, nodes []*clusterTestNode) (owner, replica, cold int) {
	t.Helper()
	ctx := context.Background()
	owner, replica, cold = -1, -1, -1
	deadline := time.Now().Add(10 * time.Second)
	for {
		owner, replica = -1, -1
		for i, nd := range nodes {
			st, err := nd.c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.DPSegmentSolves > 0 {
				if owner >= 0 {
					t.Fatalf("both %s and %s built tables; sharding broken", nodes[owner].id, nd.id)
				}
				owner = i
			}
			if st.Cluster != nil && st.Cluster.ReplicasReceived > 0 {
				replica = i
			}
		}
		if owner >= 0 && (replica >= 0 || len(nodes) < 2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm-up did not settle: owner %d, replica %d", owner, replica)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := range nodes {
		if i != owner && i != replica {
			cold = i
		}
	}
	return owner, replica, cold
}

// parityRef is a standalone segment-table server: the cluster must serve
// bit-identical plans (imported tables round-trip exactly; local rebuilds
// run the same build).
func parityRef(t *testing.T) *Client {
	t.Helper()
	_, _, ref := newFleetServer(t, ServerConfig{})
	return ref
}

func assertParity(t *testing.T, ref *Client, got *Response, req Request) {
	t.Helper()
	want, err := ref.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("reference solve for %+v: %v", req, err)
	}
	if got.ChargeAh != want.ChargeAh || got.TripSec != want.TripSec || got.Penalized != want.Penalized {
		t.Fatalf("plan for %+v diverged: cluster %.9f Ah %.3f s (penalized %v), reference %.9f Ah %.3f s (penalized %v)",
			req, got.ChargeAh, got.TripSec, got.Penalized, want.ChargeAh, want.TripSec, want.Penalized)
	}
}

// TestClusterEveryMemberServesWithParity: healthy cluster, requests at all
// three members, every answer exact and stamped with the serving node;
// exactly one member paid the DP build and the others got the tables over
// the wire (replica push or fetch) or by forwarding.
func TestClusterEveryMemberServesWithParity(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	ref := parityRef(t)
	ownerIdx, _, _ := clusterRoles(t, nodes)
	ctx := context.Background()

	for i, nd := range nodes {
		req := Request{Route: "us25", DepartTime: float64(20 * i)}
		resp, err := nd.c.Optimize(ctx, req)
		if err != nil {
			t.Fatalf("node %s: %v", nd.id, err)
		}
		if resp.ServedBy == "" {
			t.Fatalf("node %s response not stamped with the serving node", nd.id)
		}
		assertParity(t, ref, resp, req)
	}
	var shared int64
	for i, nd := range nodes {
		st, err := nd.c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if i != ownerIdx && st.DPSegmentSolves > 0 {
			t.Fatalf("non-owner %s ran %d segment solves in a healthy cluster", nd.id, st.DPSegmentSolves)
		}
		shared += st.Cluster.TableFetches + st.Cluster.ReplicasReceived + st.Cluster.Forwards
	}
	if shared == 0 {
		t.Fatal("no table fetches, replicas or forwards: members are not sharing the owner's build")
	}
}

// TestClusterChaosNodeKillMidLoad: the owner dies mid-load. Requests that
// land on the survivors — including in the stale-ring window before the
// failure detector notices — must all return the exact plan, the failover
// must show up in the survivors' counters, and both survivors must
// eventually grade the dead member dead.
func TestClusterChaosNodeKillMidLoad(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	ref := parityRef(t)
	ownerIdx, _, _ := clusterRoles(t, nodes)
	ctx := context.Background()
	depart := 0.0
	next := func() Request {
		depart += 20
		return Request{Route: "us25", DepartTime: depart}
	}

	// Healthy warm-up traffic through every member.
	for _, nd := range nodes {
		req := next()
		resp, err := nd.c.Optimize(ctx, req)
		if err != nil {
			t.Fatalf("pre-kill request via %s: %v", nd.id, err)
		}
		assertParity(t, ref, resp, req)
	}

	// Kill the owner: listener first (connections start failing), then the
	// server (its cluster runtime stops).
	nodes[ownerIdx].ts.Close()
	nodes[ownerIdx].srv.Close()
	survivors := make([]*clusterTestNode, 0, 2)
	for i, nd := range nodes {
		if i != ownerIdx {
			survivors = append(survivors, nd)
		}
	}

	// Stale-ring window: the survivors still believe the owner is alive.
	// Their forwards and fetches to it fail; every request must still
	// come back exact via replica, local rebuild or local serve.
	for round := 0; round < 3; round++ {
		for _, nd := range survivors {
			req := next()
			resp, err := nd.c.Optimize(ctx, req)
			if err != nil {
				t.Fatalf("request via %s after owner death: %v", nd.id, err)
			}
			assertParity(t, ref, resp, req)
		}
	}

	// Both survivors converge on the owner being dead.
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range survivors {
		for {
			st, err := nd.c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Cluster.PeersDead == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never graded the killed owner dead: %+v", nd.id, st.Cluster)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Post-detection traffic: still exact, now without the dead member in
	// the serving path.
	for _, nd := range survivors {
		req := next()
		resp, err := nd.c.Optimize(ctx, req)
		if err != nil {
			t.Fatalf("post-detection request via %s: %v", nd.id, err)
		}
		assertParity(t, ref, resp, req)
	}

	// The failover must be observable, not silent.
	var failoverSignals int64
	for _, nd := range survivors {
		st, err := nd.c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cl := st.Cluster
		failoverSignals += cl.ForwardFails + cl.TableFetchFails + cl.PeerFallbacks +
			cl.Takeovers + cl.BreakerFastFails + cl.BreakerOpens
	}
	if failoverSignals == 0 {
		t.Fatal("owner died under load but no survivor recorded any failover counter")
	}
}

// TestClusterChaosAsymmetricPartition: the cold member loses its outbound
// link to the owner (sends dropped; the reverse direction stays up).
// Its requests must still return the exact plan via the replica holder or
// a local rebuild, the broken link must register in its counters, and its
// detector must eventually grade the unreachable owner dead — while the
// owner itself keeps serving untouched.
func TestClusterChaosAsymmetricPartition(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	ref := parityRef(t)
	ownerIdx, _, coldIdx := clusterRoles(t, nodes)
	ctx := context.Background()
	cold, owner := nodes[coldIdx], nodes[ownerIdx]

	cold.faults.dropTo.Store(owner.id)

	for i := 0; i < 4; i++ {
		req := Request{Route: "us25", DepartTime: float64(20*i + 10)}
		resp, err := cold.c.Optimize(ctx, req)
		if err != nil {
			t.Fatalf("partitioned node request %d: %v", i, err)
		}
		assertParity(t, ref, resp, req)
	}
	st, err := cold.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Cluster.ForwardFails + st.Cluster.BreakerFastFails; n == 0 {
		t.Fatalf("partition left no trace in the cold member's forward counters: %+v", st.Cluster)
	}
	if n := st.Cluster.TableFetches + st.Cluster.PeerFallbacks; n == 0 {
		t.Fatalf("cold member served without fetching from a replica or rebuilding: %+v", st.Cluster)
	}

	// The intact direction keeps working: the owner serves as before and
	// still sees the partitioned node's heartbeats.
	req := Request{Route: "us25", DepartTime: 130}
	resp, err := owner.c.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, ref, resp, req)

	// The partitioned node's one-sided view converges to owner-dead.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cold.c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cluster.PeersDead == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cold member never graded the unreachable owner dead: %+v", st.Cluster)
		}
		time.Sleep(20 * time.Millisecond)
	}
	ost, err := owner.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ost.Cluster.PeersDead != 0 {
		t.Fatalf("owner's inbound link is intact but it graded a peer dead: %+v", ost.Cluster)
	}
}

// TestClusterBreakerShortCircuitsPeer: with the cold member's breaker for
// the owner already open, a request must not wait on doomed exchanges —
// the breaker fast-fails the forward and the owner-fetch, and the replica
// holder supplies the tables. White-box: the breaker is tripped directly.
func TestClusterBreakerShortCircuitsPeer(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	ref := parityRef(t)
	ownerIdx, _, coldIdx := clusterRoles(t, nodes)
	cold, owner := nodes[coldIdx], nodes[ownerIdx]

	link := cold.srv.peers.peers[owner.id]
	for i := 0; i < 3; i++ {
		link.breaker.Failure(time.Now())
	}

	req := Request{Route: "us25", DepartTime: 50}
	resp, err := cold.c.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, ref, resp, req)
	st, err := cold.c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster.BreakerFastFails == 0 {
		t.Fatalf("open breaker did not fast-fail any exchange: %+v", st.Cluster)
	}
	if st.Cluster.BreakerOpens == 0 {
		t.Fatalf("breaker open not reported in stats: %+v", st.Cluster)
	}
}

// TestClusterForwardLoopGuard: a request whose X-Forwarded-By chain
// already contains the receiving node must be served locally — a stale
// ownership view elsewhere must never make a request orbit the ring.
func TestClusterForwardLoopGuard(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	ref := parityRef(t)
	ownerIdx, _, coldIdx := clusterRoles(t, nodes)
	cold := nodes[coldIdx]
	ctx := context.Background()

	post := func(chain string, depart float64) *Response {
		t.Helper()
		body, err := json.Marshal(Request{Route: "us25", DepartTime: depart})
		if err != nil {
			t.Fatal(err)
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, cold.ts.URL+"/v1/optimize", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set(ForwardedByHeader, chain)
		hresp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			t.Fatalf("forwarded request with chain %q: HTTP %d", chain, hresp.StatusCode)
		}
		var out Response
		if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return &out
	}

	// Self already in the chain: the cold node is not the owner, but it
	// must serve rather than forward again.
	resp := post(cold.id, 70)
	if resp.ServedBy != cold.id {
		t.Fatalf("looped request served by %q, want local serve by %q", resp.ServedBy, cold.id)
	}
	assertParity(t, ref, resp, Request{Route: "us25", DepartTime: 70})

	// Chain as long as the membership: every member has touched it.
	chain := nodes[ownerIdx].id + ",ghost-a,ghost-b"
	resp = post(chain, 90)
	if resp.ServedBy != cold.id {
		t.Fatalf("exhausted chain served by %q, want local serve by %q", resp.ServedBy, cold.id)
	}
	assertParity(t, ref, resp, Request{Route: "us25", DepartTime: 90})

	st, err := cold.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster.ForwardedIn < 2 {
		t.Fatalf("forwardedIn = %d, want both chained requests counted", st.Cluster.ForwardedIn)
	}
}

// TestClusterReadyJoiningWindow: a cluster node answers /v1/ready with 503
// while its first heartbeat sweep is still in flight ("joining"), then
// flips to 200; /v1/health is 200 the whole time (liveness != readiness).
func TestClusterReadyJoiningWindow(t *testing.T) {
	f := &clusterPeerFaults{}
	f.dropTo.Store("")
	f.delayMS.Store(10_000) // every probe burns its full one-interval timeout
	srv, err := NewServer(ServerConfig{
		DPTemplate:    coarseDP(),
		MaxInFlight:   8,
		SegmentTables: true,
		Faults:        f.faults(),
		Cluster: &ClusterConfig{
			NodeID:       "joiner",
			Peers:        map[string]string{"phantom": "http://127.0.0.1:1"},
			HeartbeatSec: 0.3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/v1/ready"); got != http.StatusServiceUnavailable {
		t.Fatalf("/v1/ready = %d during the joining window, want 503", got)
	}
	if got := status("/v1/health"); got != http.StatusOK {
		t.Fatalf("/v1/health = %d during the joining window, want 200", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for status("/v1/ready") != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("node never left the joining state")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterCloseJoinsGoroutines: once a 3-node cluster has replicated
// its warm tables and served a batch that needed a table fetch, closing
// every server and listener leaves no goroutine behind. Heartbeats,
// replication pushes, table fetches and their hedges are all joined by
// Server.Close (peerGroup.close waits on its WaitGroup), and in-flight
// handlers by the listener's Close.
func TestClusterCloseJoinsGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	nodes := startChaosCluster(t, 3)
	_, _, cold := clusterRoles(t, nodes)
	ctx := context.Background()
	breq := BatchRequest{}
	for i := 0; i < 4; i++ {
		breq.Requests = append(breq.Requests, Request{Route: "us25", DepartTime: float64(15 * i)})
	}
	if _, err := nodes[cold].c.OptimizeBatch(ctx, breq); err != nil {
		t.Fatal(err)
	}
	st, err := nodes[cold].c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster.TableFetches == 0 {
		t.Fatalf("cold member %s served the batch without a table fetch", nodes[cold].id)
	}
	for _, nd := range nodes {
		nd.srv.Close()
		nd.ts.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle after Close: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
