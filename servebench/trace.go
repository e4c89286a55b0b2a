package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"evvo/internal/cloud"
	"evvo/internal/cluster"
	"evvo/internal/dp"
	"evvo/internal/ev"
	"evvo/internal/queue"
)

// The traced pass. Spans are recorded by the benchmark's own code around
// its calls into each layer: the HTTP call (cloud), then direct replays of
// the same request through the public functions the server calls — the
// request's WindowsFunc at every signal (queue), StitchCtx on tables the
// benchmark built itself and OptimizeCtx (dp), json.Marshal of the returned
// body (cloud) — and, where tables are served, GET /v1/tables plus
// ImportRouteTables (cluster, dp). Spans stay in memory until the run ends.

// span is one timed layer boundary. Spans of one request share Req;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

type tracer struct {
	t0        time.Time
	ids, reqs atomic.Int64
	mu        sync.Mutex
	spans     []span
}

func (t *tracer) id() int64 { return t.ids.Add(1) }

// add records a span under a pre-allocated id.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// named returns the durations (ms) of every span called name.
func (t *tracer) named(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes returns, per span name, the count, total time and self time:
// each span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() []layerTime {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			agg[s.Name] = lt
		}
		lt.count++
		lt.totalMs += s.ms()
		lt.selfMs += s.ms() - coveredMs(s, kids[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

type layerTime struct {
	name            string
	count           int
	totalMs, selfMs float64
}

// coveredMs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredMs(parent span, children []span) float64 {
	sort.Slice(children, func(i, j int) bool { return children[i].StartNs < children[j].StartNs })
	var covered, end int64 = 0, parent.StartNs
	for _, c := range children {
		lo, hi := max(c.StartNs, end), min(c.EndNs, parent.EndNs)
		if hi > lo {
			covered += hi - lo
			end = hi
		}
	}
	return float64(covered) / 1e6
}

func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// serverConfig is the dp.Config a server runs for req: cloudd's zero
// template with the vehicle, route, departure, 600 s trip budget and the
// request's queue-aware windows over the server's horizon.
func (b *bench) serverConfig(req cloud.Request) (dp.Config, error) {
	const maxTripSec, horizonSlackSec = 600, 120
	vin := queue.VehPerHour(req.ArrivalRateVehPerHour)
	wf, err := dp.QueueAwareWindows(queue.US25Params(), dp.ConstantArrivalRate(vin),
		req.DepartTime, req.DepartTime+maxTripSec+horizonSlackSec)
	if err != nil {
		return dp.Config{}, err
	}
	return dp.Config{Route: b.route[req.Route], Vehicle: ev.SparkEV(), DepartTime: req.DepartTime,
		MaxTripSec: maxTripSec, Windows: wf}, nil
}

// tableConfig is the config servers build segment tables under.
func (b *bench) tableConfig(name string) dp.Config {
	return dp.Config{Route: b.route[name], Vehicle: ev.SparkEV(), MaxTripSec: 600}
}

// replay is the direct evaluation of one request.
type replay struct {
	stitch, solve     *dp.Result
	windowsNs, pathNs int64 // queue span, and the dp span of the server's path
	stitchNs, solveNs int64
}

// tracedRun holds the traced pass's state.
type tracedRun struct {
	b      *bench
	tr     *tracer
	tables map[string]*dp.RouteTables
	ring   *cluster.Ring
	// replays counts replays; its parity picks which of stitch and solve
	// runs first.
	replays atomic.Int64

	mu       sync.Mutex
	memo     map[cloud.Request]*replay // hot-cache keys repeat; replay each once
	missSelf []float64
	respKB   []float64
	states   []float64
	ratios   []float64
	wireKB   []float64
	failures []error
	solves   int
	crossing int
}

func newTracedRun(b *bench) (*tracedRun, error) {
	t := &tracedRun{b: b, tr: &tracer{t0: time.Now()}, memo: map[cloud.Request]*replay{}}
	if b.w.nodes > 1 {
		members := make([]string, b.w.nodes)
		for i := range members {
			members[i] = nodeID(i)
		}
		var err error
		if t.ring, err = cluster.Build(members, 0); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *tracedRun) fail(err error) {
	t.mu.Lock()
	t.failures = append(t.failures, err)
	t.mu.Unlock()
}

// buildTables builds, exports and re-imports the benchmark's own segment
// tables for every route, recording dp.build, dp.export and dp.import.
func (t *tracedRun) buildTables(ctx context.Context) error {
	t.tables = map[string]*dp.RouteTables{}
	for _, r := range t.b.routes {
		cfg := t.b.tableConfig(r.Name)
		req := t.tr.reqs.Add(1)
		t0 := time.Now()
		rt, err := dp.BuildRouteTables(ctx, cfg)
		if err != nil {
			return fmt.Errorf("building tables for %s: %w", r.Name, err)
		}
		t1 := time.Now()
		t.tr.add(t.tr.id(), 0, req, "dp.build", t0, t1)
		t.tables[r.Name] = rt
		t.solves += rt.SegmentSolves()
		t.crossing += rt.Crossings()

		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rt.Export()); err != nil {
			return fmt.Errorf("exporting tables for %s: %w", r.Name, err)
		}
		t2 := time.Now()
		t.tr.add(t.tr.id(), 0, req, "dp.export", t1, t2)
		t.wireKB = append(t.wireKB, float64(buf.Len())/1024)
		if err := t.importTables(req, r.Name, buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// importTables decodes wire bytes and imports them under the route's
// table config, recording dp.import.
func (t *tracedRun) importTables(req int64, name string, wire []byte) error {
	t0 := time.Now()
	var w dp.TablesWire
	if err := gob.NewDecoder(bytes.NewReader(wire)).Decode(&w); err != nil {
		return fmt.Errorf("decoding tables for %s: %w", name, err)
	}
	if _, err := dp.ImportRouteTables(t.b.tableConfig(name), &w); err != nil {
		return fmt.Errorf("importing tables for %s: %w", name, err)
	}
	t.tr.add(t.tr.id(), 0, req, "dp.import", t0, time.Now())
	return nil
}

// replayOf evaluates req directly: WindowsFunc at every signal, StitchCtx
// on the benchmark's tables and OptimizeCtx, each a span under root.
func (t *tracedRun) replayOf(ctx context.Context, req cloud.Request, reqID, root int64) (*replay, error) {
	if t.b.w.hot {
		t.mu.Lock()
		r, ok := t.memo[req]
		t.mu.Unlock()
		if ok {
			return r, nil
		}
	}
	cfg, err := t.b.serverConfig(req)
	if err != nil {
		return nil, err
	}
	rp := &replay{}
	t0 := time.Now()
	for _, sig := range cfg.Route.Signals() {
		cfg.Windows(sig)
	}
	t1 := time.Now()
	t.tr.add(t.tr.id(), root, reqID, "queue.windows", t0, t1)
	rp.windowsNs = t1.Sub(t0).Nanoseconds()
	stitch := func() error {
		s0 := time.Now()
		if rp.stitch, err = t.tables[req.Route].StitchCtx(ctx, cfg); err != nil {
			return fmt.Errorf("stitch replay %s@%g: %w", req.Route, req.DepartTime, err)
		}
		s1 := time.Now()
		t.tr.add(t.tr.id(), root, reqID, "dp.stitch", s0, s1)
		rp.stitchNs = s1.Sub(s0).Nanoseconds()
		return nil
	}
	solve := func() error {
		s0 := time.Now()
		if rp.solve, err = dp.OptimizeCtx(ctx, cfg); err != nil {
			return fmt.Errorf("solve replay %s@%g: %w", req.Route, req.DepartTime, err)
		}
		s1 := time.Now()
		t.tr.add(t.tr.id(), root, reqID, "dp.solve", s0, s1)
		rp.solveNs = s1.Sub(s0).Nanoseconds()
		return nil
	}
	// Alternate which replay runs first, so that the garbage one leaves
	// and the caches it warms fall on both sides of dp.stitch_over_solve.
	first, second := stitch, solve
	if t.replays.Add(1)%2 == 0 {
		first, second = solve, stitch
	}
	if err := first(); err != nil {
		return nil, err
	}
	if err := second(); err != nil {
		return nil, err
	}
	rp.pathNs = rp.solveNs
	if t.b.w.segmentTables {
		rp.pathNs = rp.stitchNs
	}
	t.mu.Lock()
	t.states = append(t.states, float64(rp.solve.StatesExpanded))
	t.ratios = append(t.ratios, float64(rp.stitchNs)/float64(rp.solveNs))
	if t.b.w.hot {
		t.memo[req] = rp
	}
	t.mu.Unlock()
	return rp, nil
}

// onCall traces one completed call: its HTTP span, the replays of its
// items (checked bit-identical against the served plans), the encode of
// its body, and one repeat of its first item, which the cache must serve.
func (t *tracedRun) onCall(ctx context.Context) func(*env, *call) {
	return func(e *env, c *call) {
		reqID := t.tr.reqs.Add(1)
		root := t.tr.id()
		t.tr.add(t.tr.id(), root, reqID, "cloud.http", c.start, c.end)
		defer func() { t.tr.add(root, 0, reqID, "request", c.start, time.Now()) }()
		if c.err != nil {
			return
		}
		var pathNs int64
		missed := true
		for i, req := range c.reqs {
			rp, err := t.replayOf(ctx, req, reqID, root)
			if err != nil {
				t.fail(err)
				return
			}
			want, path := rp.solve, "OptimizeCtx"
			if t.b.w.segmentTables {
				want, path = rp.stitch, "StitchCtx"
			}
			if err := checkIdentical(req, c.resps[i], want, path); err != nil {
				t.fail(err)
			}
			pathNs += rp.windowsNs + rp.pathNs
			missed = missed && !c.resps[i].Cached
		}
		t0 := time.Now()
		body, err := json.Marshal(c.body)
		if err != nil {
			t.fail(err)
			return
		}
		t.tr.add(t.tr.id(), root, reqID, "cloud.encode", t0, time.Now())
		warmup := c.idx < 0 && c.reqs[0].DepartTime >= bucketSec*warmBucket
		t.mu.Lock()
		t.respKB = append(t.respKB, float64(len(body))/1024)
		if missed && !warmup {
			// Batch items fan out over the server's cores, so their
			// replayed layer time is spread over that many.
			par := float64(min(len(c.reqs), runtime.GOMAXPROCS(0)))
			t.missSelf = append(t.missSelf, c.rttMs()-float64(pathNs)/1e6/par)
		}
		t.mu.Unlock()
		if c.idx < 0 {
			return
		}
		h0 := time.Now()
		again, err := e.clients[c.node].Optimize(ctx, c.reqs[0])
		h1 := time.Now()
		switch {
		case err != nil:
			t.fail(fmt.Errorf("repeat of %s@%g: %w", c.reqs[0].Route, c.reqs[0].DepartTime, err))
		case !again.Cached:
			t.fail(fmt.Errorf("repeat of %s@%g was not served from the cache", c.reqs[0].Route, c.reqs[0].DepartTime))
		case again.ChargeAh != c.resps[0].ChargeAh || again.TripSec != c.resps[0].TripSec:
			t.fail(fmt.Errorf("repeat of %s@%g returned a different plan", c.reqs[0].Route, c.reqs[0].DepartTime))
		default:
			t.tr.add(t.tr.id(), root, reqID, "cloud.hit", h0, h1)
		}
	}
}

// atEnd fetches every route's tables from its owner over GET /v1/tables
// and imports them, recording cluster.table_fetch and dp.import. Servers
// without segment tables have nothing to serve.
func (t *tracedRun) atEnd(ctx context.Context) func(*env) {
	return func(e *env) {
		if !t.b.w.segmentTables {
			return
		}
		for _, r := range t.b.routes {
			node := 0
			if t.ring != nil {
				owner := t.ring.Owner(r.Name)
				for i := range e.https {
					if nodeID(i) == owner {
						node = i
					}
				}
			}
			reqID := t.tr.reqs.Add(1)
			t0 := time.Now()
			wire, err := getTables(ctx, e.https[node].URL, r.Name)
			if err != nil {
				t.fail(err)
				continue
			}
			t.tr.add(t.tr.id(), 0, reqID, "cluster.table_fetch", t0, time.Now())
			if err := t.importTables(reqID, r.Name, wire); err != nil {
				t.fail(err)
			}
		}
	}
}

func getTables(ctx context.Context, base, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/tables/"+url.PathEscape(name), nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fetching tables for %s: %w", name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading tables for %s: %w", name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetching tables for %s: HTTP %d: %s", name, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}
