package cloud

// Cluster chaos tests: boot a real multi-node cluster in-process (each
// member behind its own httptest listener), then kill nodes, partition
// links and slow links while load is in flight. The robustness contract
// under test (DESIGN.md §13): every request that reaches a live node
// returns the exact plan — peer failures cost latency and duplicated
// compute, never correctness — and every failover is observable in
// /v1/stats. All of these run under -race via `make chaos-cluster`.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// clusterPeerFaults is a per-node switchboard for the peer-level fault
// hooks, flippable mid-flight.
type clusterPeerFaults struct {
	dropTo  atomic.Value // string: peer ID whose outbound exchanges fail ("" = none)
	delayTo atomic.Value // string: peer ID whose outbound exchanges are delayed ("" = none)
	delayMS atomic.Int64 // the delay on each exchange to delayTo
}

func (f *clusterPeerFaults) faults() Faults {
	return Faults{
		PeerDrop: func(to string) bool {
			s, _ := f.dropTo.Load().(string)
			return s != "" && s == to
		},
		PeerDelay: func(to string) time.Duration {
			if s, _ := f.delayTo.Load().(string); s == "" || s != to {
				return 0
			}
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
// (heartbeat 1/6 s, so suspect after 500 ms and dead after 1 s — quick
// enough for the convergence polls below, loose enough that race-detector
// and parallel test-package load cannot stall a probe into a false "dead"
// grading and a spurious takeover), blocks until every member reports
// ready, and warms us25 with a table GET on each member: the owner builds
// the tables (and replicates them) and answers 200, the others answer 404.
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
				NodeID:       id(i),
				Peers:        peers,
				HeartbeatSec: 1.0 / 6,
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
	built := 0
	for _, nd := range nodes {
		resp, err := http.Get(nd.ts.URL + "/v1/tables/us25")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			built++
		case http.StatusNotFound:
		default:
			t.Fatalf("warming us25 on %s: HTTP %d, want 200 from the owner or 404", nd.id, resp.StatusCode)
		}
	}
	if built != 1 {
		t.Fatalf("%d members served us25 tables at boot, want exactly the owner", built)
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
// three members, every answer exact and stamped with the member that was
// dialed — single requests and batch items follow one rule, so the same
// key sent again as a one-item batch names the same node and carries the
// same plan; exactly one member paid the DP build and the others got the
// tables over the wire (replica push or fetch).
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
		if resp.ServedBy != nd.id {
			t.Fatalf("request dialed to %s was served by %q", nd.id, resp.ServedBy)
		}
		assertParity(t, ref, resp, req)
		batch, err := nd.c.OptimizeBatch(ctx, BatchRequest{Requests: []Request{req}})
		if err != nil {
			t.Fatalf("node %s batch: %v", nd.id, err)
		}
		item := batch.Results[0].Response
		if item == nil {
			t.Fatalf("node %s batch item failed: %s", nd.id, batch.Results[0].Error)
		}
		if item.ServedBy != nd.id {
			t.Fatalf("batch item dialed to %s was served by %q", nd.id, item.ServedBy)
		}
		if item.ChargeAh != resp.ChargeAh || item.TripSec != resp.TripSec || item.Penalized != resp.Penalized ||
			!reflect.DeepEqual(item.Profile, resp.Profile) || !reflect.DeepEqual(item.Arrivals, resp.Arrivals) {
			t.Fatalf("node %s: batch item plan differs from the single request's plan for the same key", nd.id)
		}
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
		shared += st.Cluster.TableFetches + st.Cluster.ReplicasReceived
	}
	if shared == 0 {
		t.Fatal("no table fetches or replicas: members are not sharing the owner's build")
	}
}

// TestClusterChaosNodeKillMidLoad: the owner dies mid-load, before the
// cold member has needed its tables. Requests that land on the survivors —
// including in the stale-ring window before the failure detector notices —
// must all return the exact plan, the failover must show up in the
// survivors' counters, and both survivors must eventually grade the dead
// member dead.
func TestClusterChaosNodeKillMidLoad(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	ref := parityRef(t)
	ownerIdx, replicaIdx, _ := clusterRoles(t, nodes)
	ctx := context.Background()
	depart := 0.0
	next := func() Request {
		depart += 20
		return Request{Route: "us25", DepartTime: depart}
	}

	// Healthy traffic through the two members that hold tables. The cold
	// member stays cold, so its first request after the kill must acquire
	// tables while the owner it still believes alive is gone.
	for _, nd := range []*clusterTestNode{nodes[ownerIdx], nodes[replicaIdx]} {
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
	// Their fetches from it fail; every request must still come back exact
	// via the replica, a local rebuild or warm local tables.
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
		failoverSignals += cl.TableFetchFails + cl.PeerFallbacks + cl.Takeovers
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
	if n := st.Cluster.TableFetchFails; n == 0 {
		t.Fatalf("partition left no trace in the cold member's fetch counters: %+v", st.Cluster)
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

// TestClusterChaosHedgeDeliversPastSlowOwner: the cold member's link to
// the owner turns slow (every exchange on it waits 3 s), while the owner
// still looks alive. Its first request must not wait out the delay: the
// fetch from the owner outlives the hedge budget, the hedged fetch to the
// replica holder delivers the exact tables, and the stalled owner fetch is
// cancelled without counting as a failed fetch or forcing a rebuild.
func TestClusterChaosHedgeDeliversPastSlowOwner(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	ref := parityRef(t)
	ownerIdx, _, coldIdx := clusterRoles(t, nodes)
	cold, owner := nodes[coldIdx], nodes[ownerIdx]
	const delay = 3 * time.Second

	cold.faults.delayMS.Store(delay.Milliseconds())
	cold.faults.delayTo.Store(owner.id)
	start := time.Now()
	req := Request{Route: "us25", DepartTime: 50}
	resp, err := cold.c.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= delay/2 {
		t.Fatalf("request took %v against a %v owner link: the hedge did not deliver", took, delay)
	}
	assertParity(t, ref, resp, req)
	st, err := cold.c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cl := st.Cluster
	if cl.HedgedFetches < 1 || cl.TableFetches < 1 || cl.PeerFallbacks != 0 || cl.TableFetchFails != 0 {
		t.Fatalf("want a hedged fetch that delivered, no failed fetch and no local rebuild: %+v", cl)
	}
}

// TestClusterReadyJoiningWindow: a cluster node answers /v1/ready with 503
// while its first heartbeat sweep is still in flight ("joining"), then
// flips to 200; /v1/health is 200 the whole time (liveness != readiness).
func TestClusterReadyJoiningWindow(t *testing.T) {
	f := &clusterPeerFaults{}
	f.delayTo.Store("phantom")
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
