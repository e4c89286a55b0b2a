package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"evvo/internal/cloud"
	"evvo/internal/road"
)

// workload is one traffic mix. Every workload runs cloudd's production
// serving config (zero DPTemplate, coarse ladder 3, 30 s deadline, default
// admission) behind in-process HTTP servers, driven by a closed loop of
// clients with retries off.
type workload struct {
	name, why string
	// segmentTables is cloudd's -segment-tables switch.
	segmentTables bool
	// batch is the items per call: 1 sends /v1/optimize, more sends
	// /v1/optimize/batch.
	batch int
	// hot draws every item from the stream's few hot keys.
	hot bool
	// nodes > 1 boots a cluster with default ClusterConfig and no
	// WarmRoutes, fresh for every epoch of epochCalls calls.
	nodes int
}

var workloads = []workload{
	{name: "fleet-stitch", segmentTables: true, batch: 1,
		why: "cloudd's default path: every call is a unique key stitched from warm segment tables, so dp stitch and the cloud miss path carry the work"},
	{name: "exact-solve", segmentTables: false, batch: 1,
		why: "the fleet-stitch stream with segment tables off: every call runs the full exact DP, pricing stitch against solve on identical inputs"},
	{name: "hot-cache", segmentTables: true, batch: 32, hot: true,
		why: "32-item batches of a few cached keys: dp idles and the cloud front (decode, admission, fan-out, cache copy, JSON encode) is the whole cost"},
	{name: "cluster-cold", segmentTables: true, batch: 8, nodes: 3,
		why: "3 fresh clustered nodes per epoch: owner builds, replication, peer fetch, import and hedging sit on the request path"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// clients is the closed loop's concurrency, one per core of the
	// reference 2-core machine.
	clients = 2
	// minCalls keeps p95 valid: at least ten samples beyond it.
	minCalls = 200
	// qualityCalls is the stream prefix the plan-quality metrics average
	// over. Every run completes it, so quality repeats exactly per seed.
	qualityCalls = minCalls
	// setups is how many times a standalone workload sets up; setup_s is
	// their median and the last one serves the timed pass.
	setups = 5
	// epochCalls is the calls one cluster-cold epoch serves before its
	// cluster is torn down (four rounds of the three nodes).
	epochCalls = 12
	// checkSets and checkRuns shape the self-check: sets of runs, one
	// seed per run, different seeds per set.
	checkSets = 2
	checkRuns = 10
	// windowSec is the slice of a standalone loop that one throughput and
	// one p50 sample is taken over; the run reports their medians, so a
	// few slices disturbed by other load on the machine do not move it.
	windowSec = 1
)

// env is one set of booted servers and their clients.
type env struct {
	servers []*cloud.Server
	https   []*httptest.Server
	clients []*cloud.Client
}

func (e *env) close() {
	for _, s := range e.servers {
		s.Close()
	}
	for _, h := range e.https {
		h.Close()
	}
}

// lazyHandler lets a cluster member's listener exist, and hand out its URL,
// before the cloud.Server behind it does: members need every peer's URL at
// construction. It answers 503 until the handler is installed.
type lazyHandler struct{ h atomic.Value }

func (l *lazyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := l.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "starting", http.StatusServiceUnavailable)
}

func nodeID(i int) string { return fmt.Sprintf("node-%d", i+1) }

// boot starts the workload's servers with the benchmark's routes
// registered, and waits until every node reports /v1/ready.
func boot(ctx context.Context, w workload, routes []benchRoute) (*env, error) {
	n := max(1, w.nodes)
	e := &env{}
	lazies := make([]*lazyHandler, n)
	for i := range lazies {
		lazies[i] = &lazyHandler{}
		e.https = append(e.https, httptest.NewServer(lazies[i]))
	}
	for i := 0; i < n; i++ {
		cfg := cloud.ServerConfig{
			SegmentTables:      w.segmentTables,
			CoarseLadderFactor: 3,
			DefaultDeadlineSec: 30,
		}
		if n > 1 {
			peers := make(map[string]string, n-1)
			for j := 0; j < n; j++ {
				if j != i {
					peers[nodeID(j)] = e.https[j].URL
				}
			}
			cfg.Cluster = &cloud.ClusterConfig{NodeID: nodeID(i), Peers: peers}
		}
		srv, err := cloud.NewServer(cfg)
		if err != nil {
			e.close()
			return nil, err
		}
		e.servers = append(e.servers, srv)
		for _, r := range routes {
			if r.Name == "us25" {
				continue // every cloud.Server pre-registers US-25
			}
			if err := srv.RegisterRoute(r.Name, r.Route); err != nil {
				e.close()
				return nil, err
			}
		}
		lazies[i].h.Store(srv.Handler())
		c, err := cloud.NewClient(e.https[i].URL, cloud.WithRetryPolicy(cloud.RetryPolicy{MaxAttempts: 1}))
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	for i, h := range e.https {
		if err := waitReady(ctx, h.URL); err != nil {
			e.close()
			return nil, fmt.Errorf("%s: %w", nodeID(i), err)
		}
	}
	return e, nil
}

func waitReady(ctx context.Context, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/ready", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_ = resp.Body.Close() // readiness poll: only the status matters
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("never became ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// call is one client call and everything observed about it.
type call struct {
	idx, node  int
	reqs       []cloud.Request
	start, end time.Time
	resps      []*cloud.Response // per item; dropped once the call is summarized
	body       any               // decoded response, re-encoded by the traced pass
	err        error             // first failure: transport, HTTP, item error or check
	// Plan-quality summary of a successful call, kept after resps and
	// body are dropped so a pass does not hold every plan it received.
	chargeAh            float64
	penalized, degraded int
}

func (c *call) rttMs() float64 { return float64(c.end.Sub(c.start).Nanoseconds()) / 1e6 }

// do sends reqs to node as one call and checks every returned plan.
func (b *bench) do(ctx context.Context, e *env, node int, reqs []cloud.Request) *call {
	c := &call{node: node, reqs: reqs, resps: make([]*cloud.Response, len(reqs))}
	cl := e.clients[node]
	c.start = time.Now()
	if b.w.batch == 1 && len(reqs) == 1 {
		resp, err := cl.Optimize(ctx, reqs[0])
		c.end = time.Now()
		c.resps[0], c.body, c.err = resp, resp, err
	} else {
		out, err := cl.OptimizeBatch(ctx, cloud.BatchRequest{Requests: reqs})
		c.end = time.Now()
		c.body, c.err = out, err
		if err == nil && len(out.Results) != len(reqs) {
			c.err = fmt.Errorf("batch of %d returned %d results", len(reqs), len(out.Results))
		}
		if c.err == nil {
			for i, it := range out.Results {
				if it.Error != "" {
					c.err = fmt.Errorf("item %d (%s@%g): %s", i, reqs[i].Route, reqs[i].DepartTime, it.Error)
					break
				}
				c.resps[i] = it.Response
			}
		}
	}
	if c.err != nil {
		return c
	}
	for i, resp := range c.resps {
		if resp == nil {
			c.err = fmt.Errorf("item %d: empty response", i)
			return c
		}
		if err := checkPlan(reqs[i], b.route[reqs[i].Route], resp); err != nil {
			c.err = err
			return c
		}
		c.chargeAh += resp.ChargeAh
		if resp.Penalized {
			c.penalized++
		}
		if resp.Degraded {
			c.degraded++
		}
	}
	return c
}

// loop runs the closed loop on e: clients goroutines each claim the next
// call index, send it, and only then claim another. Calls from..limit-1
// are eligible; with a deadline the loop also stops claiming once the
// deadline has passed and at least minCalls indices were claimed overall.
// Claimed indices always complete, so finished calls form a prefix.
func (b *bench) loop(ctx context.Context, e *env, next *atomic.Int64, limit int, deadline time.Time, onCall func(*call)) {
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= limit || (!deadline.IsZero() && time.Now().After(deadline) && i >= b.minCalls) {
					return
				}
				reqs := make([]cloud.Request, b.w.batch)
				for k := range reqs {
					reqs[k] = b.str.at(i*b.w.batch + k)
				}
				c := b.do(ctx, e, i%len(e.clients), reqs)
				c.idx = i
				onCall(c)
			}
		}()
	}
	wg.Wait()
}

// bench is one benchmark run: a workload, its seeded inputs, and the
// observations of its passes.
type bench struct {
	w        workload
	routes   []benchRoute
	route    map[string]*road.Route
	str      *stream
	minCalls int
}

func newBench(w workload, seed int64) (*bench, error) {
	routes, err := genRoutes(seed)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, routes: routes, route: map[string]*road.Route{},
		str: newStream(seed, routes, w.hot), minCalls: minCalls}
	for _, r := range routes {
		b.route[r.Name] = r.Route
	}
	return b, nil
}

// setupReqs is the setup traffic: one warm-up per route (table builds or
// solver pools), then for hot-cache the hot keys themselves.
func (b *bench) setupReqs() []cloud.Request {
	reqs := warmups(b.routes)
	return append(reqs, b.str.hot...)
}

// pass is what one timed or traced pass observed.
type pass struct {
	calls         []*call // in completion order
	setupCalls    []*call
	setupSec      []float64
	wall          time.Duration // serving time, epochs summed
	loops         []interval    // each closed loop's serving interval
	stats         cloud.Stats   // server counters summed over nodes and epochs
	clusterCounts clusterCounts
	envs          int // servers booted (epochs for cluster-cold)
	// allocBytes and gcCycles are runtime.MemStats deltas over the loops:
	// the whole process, clients and servers alike.
	allocBytes uint64
	gcCycles   uint32
}

type interval struct{ start, end time.Time }

// windows splits the pass's serving time into the intervals its
// end-to-end rates and medians are taken over: one per cluster epoch, or
// windowSec slices of a single standalone loop.
func (p *pass) windows() []interval {
	if len(p.loops) != 1 {
		return p.loops
	}
	l := p.loops[0]
	n := max(1, int(l.end.Sub(l.start)/(windowSec*time.Second)))
	step := l.end.Sub(l.start) / time.Duration(n)
	out := make([]interval, n)
	for i := range out {
		out[i] = interval{l.start.Add(time.Duration(i) * step), l.start.Add(time.Duration(i+1) * step)}
	}
	out[n-1].end = l.end
	return out
}

// clusterCounts sums the ClusterStats counters the benchmark reports.
type clusterCounts struct {
	fetches, fetchFails, hedged, pushed, forwards int64
}

// setupEnv boots one environment and sends its setup traffic, returning the
// environment, the setup duration, and the setup calls.
func (b *bench) setupEnv(ctx context.Context, onCall func(*env, *call)) (*env, time.Duration, []*call, error) {
	t0 := time.Now()
	e, err := boot(ctx, b.w, b.routes)
	if err != nil {
		return nil, 0, nil, err
	}
	var setup []*call
	if b.w.nodes <= 1 {
		for _, r := range b.setupReqs() {
			c := b.do(ctx, e, 0, []cloud.Request{r})
			c.idx = -1
			if onCall != nil {
				onCall(e, c)
			}
			c.resps, c.body = nil, nil
			setup = append(setup, c)
		}
	}
	return e, time.Since(t0), setup, nil
}

// run executes one pass of about dur: setups and the closed loop for a
// standalone workload, or boot-and-serve epochs for a clustered one.
// onCall, when set, runs on each call's client goroutine (the traced
// pass's replays); atEnd runs on each environment before teardown.
func (b *bench) run(ctx context.Context, dur time.Duration, nSetups int, onCall func(*env, *call), atEnd func(*env)) (*pass, error) {
	p := &pass{}
	var next atomic.Int64
	var mu sync.Mutex
	collect := func(e *env) func(*call) {
		return func(c *call) {
			if onCall != nil {
				onCall(e, c)
			}
			c.resps, c.body = nil, nil
			mu.Lock()
			p.calls = append(p.calls, c)
			mu.Unlock()
		}
	}
	var m0, m1 runtime.MemStats
	measure := func(e *env, limit int, deadline time.Time) {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		b.loop(ctx, e, &next, limit, deadline, collect(e))
		t1 := time.Now()
		p.wall += t1.Sub(t0)
		p.loops = append(p.loops, interval{t0, t1})
		runtime.ReadMemStats(&m1)
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.gcCycles += m1.NumGC - m0.NumGC
	}
	finish := func(e *env) error {
		if atEnd != nil {
			atEnd(e)
		}
		for _, c := range e.clients {
			st, err := c.Stats(ctx)
			if err != nil {
				return err
			}
			p.addStats(st)
		}
		p.envs++
		e.close()
		return nil
	}
	if b.w.nodes <= 1 {
		var e *env
		for i := 0; i < nSetups; i++ {
			if e != nil {
				e.close()
			}
			var err error
			var setupDur time.Duration
			var calls []*call
			if e, setupDur, calls, err = b.setupEnv(ctx, onCall); err != nil {
				return nil, err
			}
			p.setupCalls = append(p.setupCalls, calls...)
			p.setupSec = append(p.setupSec, setupDur.Seconds())
		}
		measure(e, 1<<30, time.Now().Add(dur))
		return p, finish(e)
	}
	start := time.Now()
	for {
		e, setupDur, _, err := b.setupEnv(ctx, nil)
		if err != nil {
			return nil, err
		}
		p.setupSec = append(p.setupSec, setupDur.Seconds())
		from := int(next.Load())
		measure(e, from+epochCalls, time.Time{})
		next.Store(int64(from + epochCalls))
		if err := finish(e); err != nil {
			return nil, err
		}
		if time.Since(start) >= dur && from+epochCalls >= b.minCalls {
			return p, nil
		}
	}
}

func (p *pass) addStats(st cloud.Stats) {
	s := &p.stats
	s.CacheHits += st.CacheHits
	s.Shed += st.Shed
	s.Degraded += st.Degraded
	s.DPFullSolves += st.DPFullSolves
	s.DPSegmentSolves += st.DPSegmentSolves
	if c := st.Cluster; c != nil {
		p.clusterCounts.fetches += c.TableFetches
		p.clusterCounts.fetchFails += c.TableFetchFails
		p.clusterCounts.hedged += c.HedgedFetches
		p.clusterCounts.pushed += c.ReplicasPushed
		p.clusterCounts.forwards += c.Forwards
	}
}

// plans counts successfully delivered plans over calls.
func plans(calls []*call) int {
	n := 0
	for _, c := range calls {
		if c.err == nil {
			n += len(c.reqs)
		}
	}
	return n
}
