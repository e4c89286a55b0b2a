// Package cloud implements the "vehicular cloud" computing framework the
// paper builds on (references [6], [7]): EVs upload their state (route and
// departure time) and the cloud computes and returns the optimal velocity
// profile, so the on-board unit does not run the DP itself.
//
// The service is a JSON-over-HTTP API:
//
//	GET  /v1/health          liveness probe
//	GET  /v1/routes          registered route names
//	GET  /v1/stats           request/cache/robustness counters
//	POST /v1/optimize        compute an optimal profile
//	POST /v1/advise          sweep departure times, recommend the best
//
// Identical requests within the same departure bucket are served from an
// in-memory cache: queue predictions only change at the resolution of the
// signal cycle, so per-vehicle recomputation would be wasted work.
// Concurrent identical requests are additionally coalesced so a thundering
// herd runs the optimizer once, not once per vehicle.
//
// The service is built to fail soft (DESIGN.md §8). Every request carries
// a compute deadline; admission control sheds excess load with 429 +
// Retry-After instead of queueing unboundedly; handler panics become 500s
// without killing the process; and when the paper's full method cannot be
// computed in time the response degrades down a ladder — default arrival
// rate when the predictor fails, a coarse-grid approximate solve when the
// exact solve blows its budget (if CoarseLadderFactor is set), the
// green-window variant below that, and finally a stale cache entry — each
// annotated with degraded/degradedReason. The degraded answers are either
// the paper's own method on a bracketed grid (DESIGN.md §12) or the
// paper's baselines (Ozatay-style and green-signal DP): valid, just less
// efficient, which is the right trade for a driver already rolling toward
// the first intersection.
package cloud

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"evvo/internal/dp"
	"evvo/internal/ev"
	"evvo/internal/metrics"
	"evvo/internal/par"
	"evvo/internal/profile"
	"evvo/internal/queue"
	"evvo/internal/road"
	"evvo/internal/stable"
	"evvo/internal/units"
)

// Variant selects the optimizer flavour.
type Variant string

// Supported optimizer variants.
const (
	// VariantQueueAware is the paper's method: arrivals constrained to
	// zero-queue windows.
	VariantQueueAware Variant = "queue-aware"
	// VariantGreen is the prior DP: arrivals constrained to green phases.
	VariantGreen Variant = "green"
	// VariantUnconstrained ignores signals (Ozatay-style baseline).
	VariantUnconstrained Variant = "unconstrained"
)

// Degradation reasons reported in Response.DegradedReason and counted per
// label in Stats.DegradedByReason.
const (
	// DegradedPredictorFallback: the arrival-rate predictor failed; the
	// zero-queue windows were computed from the configured fallback rate.
	DegradedPredictorFallback = "predictor-default-rate"
	// DegradedCoarseGrid: the exact solve exceeded its compute budget; the
	// response is the requested variant solved through the coarse-to-fine
	// fast path (DESIGN.md §12) at the configured CoarseLadderFactor.
	DegradedCoarseGrid = "coarse-grid"
	// DegradedGreenFallback: the queue-aware solve exceeded its compute
	// budget; the response is the green-window variant.
	DegradedGreenFallback = "green-fallback"
	// DegradedStaleCache: nothing could be computed in time; the response
	// is a previously cached plan for the same route (possibly another
	// departure bucket or variant).
	DegradedStaleCache = "stale-cache"
)

// Request is the optimize-request payload.
type Request struct {
	// Route names a registered route (required).
	Route string `json:"route"`
	// DepartTime is the absolute departure time in seconds (signal phases
	// are anchored at t = 0).
	DepartTime float64 `json:"departTime"`
	// Variant selects the optimizer (default queue-aware).
	Variant Variant `json:"variant,omitempty"`
	// ArrivalRateVehPerHour overrides the cloud's arrival-rate estimate
	// for queue prediction (optional, > 0 to take effect).
	ArrivalRateVehPerHour float64 `json:"arrivalRateVehPerHour,omitempty"`
}

// PointJSON is one trajectory sample.
type PointJSON struct {
	T   float64 `json:"t"`
	Pos float64 `json:"pos"`
	V   float64 `json:"v"`
}

// ArrivalJSON reports one signal crossing.
type ArrivalJSON struct {
	Name       string  `json:"name"`
	PositionM  float64 `json:"positionM"`
	ArrivalSec float64 `json:"arrivalSec"`
	InWindow   bool    `json:"inWindow"`
}

// Response is the optimize-response payload.
type Response struct {
	Profile   []PointJSON   `json:"profile"`
	ChargeAh  float64       `json:"chargeAh"`
	TripSec   float64       `json:"tripSec"`
	Arrivals  []ArrivalJSON `json:"arrivals"`
	Penalized bool          `json:"penalized"`
	Cached    bool          `json:"cached"`
	// Degraded is true when the service could not deliver the full
	// queue-aware answer and fell down the degradation ladder;
	// DegradedReason says which rung (see the Degraded* constants). A
	// degraded plan is still drivable — it is one of the paper's baseline
	// methods — just less efficient.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
	// Refined is true when the plan came from the coarse-to-fine
	// approximate-DP fast path (the coarse-grid ladder rung, or a
	// DPTemplate with CoarseRefine configured on a server without
	// SegmentTables) rather than the exact DP.
	Refined bool `json:"refined,omitempty"`
	// ServedBy names the cluster node that computed this response (empty
	// on standalone servers). On a forwarded request it names the owner
	// that answered, not the node the client dialed — which is how tests
	// and operators observe forwarding and failover.
	ServedBy string `json:"servedBy,omitempty"`
}

// Stats are service counters.
type Stats struct {
	Requests  int64 `json:"requests"`
	CacheHits int64 `json:"cacheHits"`
	Errors    int64 `json:"errors"`
	// Shed counts requests rejected by admission control (429).
	Shed int64 `json:"shed"`
	// Degraded counts responses served off the degradation ladder, with a
	// per-reason breakdown.
	Degraded         int64            `json:"degraded"`
	DegradedByReason map[string]int64 `json:"degradedByReason,omitempty"`
	// PanicsRecovered counts handler panics converted to 500s.
	PanicsRecovered int64 `json:"panicsRecovered"`
	// RetryAfterIssued counts responses that carried a Retry-After header
	// (shed and transient-failure responses).
	RetryAfterIssued int64 `json:"retryAfterIssued"`
	// DPFullSolves counts monolithic full-route DP runs; DPSegmentSolves
	// counts per-segment table solves; StitchedServes counts responses
	// assembled from shared segment tables instead of a full solve. The
	// fleet-reuse ratio is requests : (full + segment solves).
	DPFullSolves    int64 `json:"dpFullSolves"`
	DPSegmentSolves int64 `json:"dpSegmentSolves"`
	StitchedServes  int64 `json:"stitchedServes"`
	// BatchItems counts individual requests carried by /v1/optimize/batch.
	BatchItems int64 `json:"batchItems"`
	// LatencyMs summarizes compute-endpoint latency (admitted requests).
	LatencyMs LatencyStats `json:"latencyMs"`
	// Cluster reports the cluster runtime's counters (nil standalone).
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// LatencyStats are histogram-derived latency quantiles in milliseconds.
type LatencyStats struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// ServerConfig parameterizes the cloud service.
type ServerConfig struct {
	// Vehicle is the EV model used for optimization (default SparkEV).
	Vehicle ev.Params
	// QueueParams parameterize zero-queue-window prediction (default
	// US25Params).
	QueueParams queue.Params
	// ArrivalRate estimates V_in (veh/s) at a signal for a departure time —
	// in deployment the SAE traffic predictor; requests may override it.
	// It may fail: the service then degrades to FallbackRateVehPerHour
	// instead of failing the request. Default: the paper's measured
	// 153 veh/h, never failing.
	ArrivalRate func(c road.Control, departTime float64) (float64, error)
	// FallbackRateVehPerHour is the degraded-mode arrival rate used when
	// ArrivalRate fails (default 153, the paper's measurement).
	FallbackRateVehPerHour float64
	// DPTemplate provides grid/penalty defaults for the optimizer; Route,
	// DepartTime and Windows are filled per request.
	DPTemplate dp.Config
	// CacheDepartBucketSec groups departures for caching (default 5 s).
	CacheDepartBucketSec float64
	// MaxCacheEntries bounds the cache (default 1024; negative is a config
	// error, not a one-entry cache).
	MaxCacheEntries int
	// SegmentTables enables segment-level DP reuse (DESIGN.md §11): each
	// route is decomposed at its signals and solved once into per-segment
	// value tables; requests are then stitched from the shared tables
	// instead of running a full-route DP each. Off by default — the
	// monolithic path stays the reference.
	SegmentTables bool
	// MaxBatchSize bounds the number of requests accepted by
	// POST /v1/optimize/batch (default 256).
	MaxBatchSize int

	// DefaultDeadlineSec is the per-request compute deadline (default 30;
	// negative disables deadlines entirely).
	DefaultDeadlineSec float64
	// MaxDeadlineSec caps the client's X-Deadline-Ms override (default
	// DefaultDeadlineSec). Clients can only tighten the deadline.
	MaxDeadlineSec float64
	// DegradeBudgetFrac is the fraction of the request deadline granted to
	// the full queue-aware method before the ladder degrades to the green
	// variant; the remainder is the fallback's budget (default 0.5; must
	// be in (0, 1]; 1 reserves nothing).
	DegradeBudgetFrac float64
	// CoarseLadderFactor, when ≥ 2, adds a rung to the degradation ladder
	// between the exact solve and the green fallback: the requested variant
	// re-solved through the coarse-to-fine fast path (dp.CoarseRefine) at
	// this velocity-grid factor. The rung costs roughly 1/Factor² of the
	// exact solve and stays within the documented ε of its cost, so it is
	// tried before abandoning the queue-aware windows altogether. 0
	// disables the rung; 1 and negatives are config errors.
	CoarseLadderFactor int

	// MaxInFlight bounds concurrently computing optimize/advise requests
	// (default 2×GOMAXPROCS; negative disables admission control).
	MaxInFlight int
	// MaxQueueDepth bounds requests waiting for an in-flight slot (default
	// 2×MaxInFlight; negative sheds immediately when slots are full).
	MaxQueueDepth int
	// QueueWaitSec is the longest a queued request waits for a slot before
	// being shed (default 0.25 s).
	QueueWaitSec float64
	// RetryAfterSec is the Retry-After value advertised on shed/transient
	// responses, rounded up to whole seconds (default 1).
	RetryAfterSec float64
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64

	// Cluster, when non-nil, joins this server to a cloudd cluster:
	// segment-table ownership is sharded across the members by consistent
	// hashing, built tables are replicated to ring successors, requests for
	// routes this node does not own are forwarded to the acting owner, and
	// peer death triggers automatic ownership takeover (DESIGN.md §13).
	// Requires SegmentTables — the tables are the unit of sharding.
	Cluster *ClusterConfig

	// Faults injects deterministic failures for chaos tests (see faults.go).
	Faults Faults
}

// Server is the vehicular-cloud HTTP handler. Create with NewServer and
// mount via Handler.
type Server struct {
	cfg      ServerConfig
	mu       sync.Mutex
	routes   map[string]*road.Route
	cache    map[string]*Response
	order    []string // FIFO eviction order
	inflight map[string]*inflightCall

	// segTables holds completed segment-table builds per route name;
	// tableBuilds coalesces concurrent builds the way inflight coalesces
	// solves. Tables key on the registered *road.Route identity, so a
	// route's tables never go stale: routes are immutable once registered.
	segTables   map[string]*dp.RouteTables
	tableBuilds map[string]*tableCall

	sem    chan struct{} // admission slots; nil = admission disabled
	queued atomic.Int64  // requests waiting for a slot

	// peers is the cluster runtime (nil when Cluster is unset); draining
	// flips /v1/ready to 503 ahead of the HTTP shutdown so load balancers
	// stop routing here while in-flight requests finish.
	peers    *peerGroup
	draining atomic.Bool

	requests, cacheHits, errs      metrics.Counter
	shed, panics, retryAfterIssued metrics.Counter
	dpFullSolves, dpSegmentSolves  metrics.Counter
	stitchedServes, batchItems     metrics.Counter
	degraded                       metrics.LabeledCounter
	latency                        *metrics.Histogram
}

// inflightCall coalesces concurrent optimize requests for one cache key:
// the first arrival (the leader) runs the DP, later arrivals wait on done
// and share the result. A leader that dies of its *own* context's
// cancellation publishes that context error; followers with live contexts
// do not inherit it — they loop back and elect a new leader (see
// handleOptimize), so one impatient client cannot fail a coalesced herd.
type inflightCall struct {
	done chan struct{}
	resp *Response
	err  error
}

// tableCall coalesces concurrent segment-table builds for one route, with
// the same leader re-election discipline as inflightCall: a leader that
// dies of its own context's cancellation does not poison followers whose
// contexts are still live.
type tableCall struct {
	done chan struct{}
	rt   *dp.RouteTables
	err  error
}

// optimizeDP indirects dp.OptimizeCtx so tests can count, stub or stall
// solver runs.
var optimizeDP = dp.OptimizeCtx

// NewServer builds a Server with the US-25 route pre-registered.
func NewServer(cfg ServerConfig) (*Server, error) {
	if (cfg.Vehicle == ev.Params{}) {
		cfg.Vehicle = ev.SparkEV()
	}
	if err := cfg.Vehicle.Validate(); err != nil {
		return nil, fmt.Errorf("cloud: %w", err)
	}
	if (cfg.QueueParams == queue.Params{}) {
		cfg.QueueParams = queue.US25Params()
	}
	if err := cfg.QueueParams.Validate(); err != nil {
		return nil, fmt.Errorf("cloud: %w", err)
	}
	if cfg.ArrivalRate == nil {
		rate := queue.VehPerHour(153)
		cfg.ArrivalRate = func(road.Control, float64) (float64, error) { return rate, nil }
	}
	if cfg.FallbackRateVehPerHour == 0 {
		cfg.FallbackRateVehPerHour = 153
	}
	if cfg.FallbackRateVehPerHour < 0 {
		return nil, fmt.Errorf("cloud: fallback rate %.1f must be positive", cfg.FallbackRateVehPerHour)
	}
	if cfg.CacheDepartBucketSec == 0 {
		cfg.CacheDepartBucketSec = 5
	}
	if cfg.CacheDepartBucketSec < 0 {
		return nil, fmt.Errorf("cloud: cache bucket %.1f must be non-negative", cfg.CacheDepartBucketSec)
	}
	if cfg.MaxCacheEntries == 0 {
		cfg.MaxCacheEntries = 1024
	}
	if cfg.MaxCacheEntries < 0 {
		// A negative bound would make `len(cache) >= MaxCacheEntries` evict
		// on every store, silently degrading the cache to a single entry.
		return nil, fmt.Errorf("cloud: max cache entries %d must be non-negative", cfg.MaxCacheEntries)
	}
	if cfg.MaxBatchSize == 0 {
		cfg.MaxBatchSize = 256
	}
	if cfg.MaxBatchSize < 0 {
		return nil, fmt.Errorf("cloud: max batch size %d must be non-negative", cfg.MaxBatchSize)
	}
	if cfg.DefaultDeadlineSec == 0 {
		cfg.DefaultDeadlineSec = 30
	}
	if cfg.MaxDeadlineSec == 0 {
		cfg.MaxDeadlineSec = cfg.DefaultDeadlineSec
	}
	if cfg.DegradeBudgetFrac == 0 {
		cfg.DegradeBudgetFrac = 0.5
	}
	if cfg.DegradeBudgetFrac < 0 || cfg.DegradeBudgetFrac > 1 {
		return nil, fmt.Errorf("cloud: degrade budget fraction %.2f must be in (0, 1]", cfg.DegradeBudgetFrac)
	}
	if cfg.CoarseLadderFactor != 0 && cfg.CoarseLadderFactor < 2 {
		// Factor 1 would re-run the exact solve as its own "fallback" and
		// negatives are meaningless; both hide a misconfiguration.
		return nil, fmt.Errorf("cloud: coarse ladder factor %d must be 0 (off) or ≥ 2", cfg.CoarseLadderFactor)
	}
	if cfg.SegmentTables && cfg.DPTemplate.CoarseRefine.Factor != 0 {
		return nil, fmt.Errorf("cloud: SegmentTables requires an exact DPTemplate — segment tables are exact; CoarseRefine applies to OptimizeCtx only")
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueueDepth == 0 {
		cfg.MaxQueueDepth = 2 * cfg.MaxInFlight
	}
	if cfg.MaxQueueDepth < 0 {
		cfg.MaxQueueDepth = 0
	}
	if cfg.QueueWaitSec == 0 {
		cfg.QueueWaitSec = 0.25
	}
	if cfg.QueueWaitSec < 0 {
		cfg.QueueWaitSec = 0
	}
	if cfg.RetryAfterSec <= 0 {
		cfg.RetryAfterSec = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	s := &Server{
		cfg:         cfg,
		routes:      map[string]*road.Route{"us25": road.US25()},
		cache:       make(map[string]*Response),
		inflight:    make(map[string]*inflightCall),
		segTables:   make(map[string]*dp.RouteTables),
		tableBuilds: make(map[string]*tableCall),
		latency:     metrics.NewLatencyHistogram(),
	}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	if err := s.startCluster(); err != nil {
		return nil, err
	}
	return s, nil
}

// startCluster brings up the cluster runtime when configured: ring,
// detector, peer links, the heartbeat loop, and the boot warm-up that
// gates /v1/ready. It runs from NewServer, before any request exists, so
// the cluster lifetime is anchored to the server, not to a request.
func (s *Server) startCluster() error {
	if s.cfg.Cluster == nil {
		return nil
	}
	if !s.cfg.SegmentTables {
		return fmt.Errorf("cloud: cluster mode requires SegmentTables — the shared tables are the unit of sharding")
	}
	if err := s.cfg.Cluster.normalize(); err != nil {
		return err
	}
	pg, err := newPeerGroup(*s.cfg.Cluster, &s.cfg.Faults)
	if err != nil {
		return err
	}
	s.peers = pg
	pg.wg.Add(2)
	go pg.heartbeatLoop()
	go func() {
		defer pg.wg.Done()
		defer close(pg.ready)
		select {
		case <-pg.primed:
		case <-pg.ctx.Done():
			return
		}
		for _, name := range pg.cfg.WarmRoutes {
			route, ok := s.lookupRoute(name)
			if !ok {
				continue
			}
			if owner, _ := pg.actingOwner(name, time.Now()); owner != pg.self {
				continue
			}
			wctx, cancel := context.WithTimeout(pg.ctx, secToDur(s.cfg.DefaultDeadlineSec))
			_, _ = s.routeTables(wctx, name, s.tableCfg(route))
			cancel()
		}
	}()
	return nil
}

// Close stops the cluster runtime (heartbeats, replication pushes) and
// waits for its goroutines. Safe on servers without a cluster and safe to
// call more than once.
func (s *Server) Close() {
	if s.peers != nil {
		s.peers.close()
	}
}

// BeginDrain flips /v1/ready to 503 while /v1/health stays 200: the node
// is still alive — and keeps serving whatever arrives — but asks load
// balancers and peers to stop sending new work. Call it before the HTTP
// server's graceful Shutdown so the readiness flip precedes connection
// draining.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// tableCfg is the DP config a route's segment tables are built (and
// imported) under: the server template pinned to the route and vehicle.
// Windows and departure time are per-request stitch inputs — they do not
// shape the tables — so peers converge on identical table grids no matter
// which request triggered the build.
func (s *Server) tableCfg(route *road.Route) dp.Config {
	cfg := s.cfg.DPTemplate
	cfg.Route = route
	cfg.Vehicle = s.cfg.Vehicle
	cfg.DepartTime = 0
	cfg.Windows = nil
	if cfg.MaxTripSec == 0 {
		cfg.MaxTripSec = 600
	}
	return cfg
}

// RegisterRoute adds a named route.
func (s *Server) RegisterRoute(name string, r *road.Route) error {
	if name == "" || r == nil {
		return fmt.Errorf("cloud: route registration needs a name and a route")
	}
	if strings.Contains(name, "|") {
		// "|" separates cache-key fields; allowing it would let one
		// route's keys shadow another's stale-cache lookups.
		return fmt.Errorf("cloud: route name %q must not contain '|'", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.routes[name]; ok {
		return fmt.Errorf("cloud: route %q already registered", name)
	}
	s.routes[name] = r
	return nil
}

// Handler returns the HTTP handler for the service: the route mux wrapped
// in the deadline and panic-recovery middleware, with admission control on
// the two compute endpoints (probes and counters always get through).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/health", s.handleHealth)
	mux.HandleFunc("GET /v1/ready", s.handleReady)
	mux.HandleFunc("GET /v1/routes", s.handleRoutes)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/tables/{routeKey}", s.handleTablesGet)
	mux.HandleFunc("PUT /v1/tables/{routeKey}", s.handleTablesPut)
	mux.Handle("POST /v1/optimize", s.admit(s.withLatency(http.HandlerFunc(s.handleOptimize))))
	mux.Handle("POST /v1/advise", s.admit(s.withLatency(http.HandlerFunc(s.handleAdvise))))
	mux.Handle("POST /v1/optimize/batch", s.admit(s.withLatency(http.HandlerFunc(s.handleBatch))))
	return s.withRecover(s.withDeadline(mux))
}

// withLatency records admitted compute-request latency into the service
// histogram. It sits inside admit so shed requests (sub-millisecond 429s)
// do not skew the quantiles downward.
func (s *Server) withLatency(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		s.latency.Observe(units.SecToMs(time.Since(start).Seconds()))
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady serves GET /v1/ready — readiness, distinct from liveness:
// a draining or still-joining node answers 503 here while /v1/health stays
// 200, so orchestrators keep the process but route traffic elsewhere.
// Standalone servers (no cluster) are ready whenever they are not
// draining.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if pg := s.peers; pg != nil && !pg.clusterReady() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "joining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleTablesGet serves GET /v1/tables/{routeKey}: the route's segment
// tables in gob wire form, for peer fetches. A node only serves (and
// builds on demand) tables for keys it currently acts as owner of —
// otherwise two cold non-owners could ping-pong fetches between them.
func (s *Server) handleTablesGet(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.SegmentTables {
		s.fail(w, http.StatusNotFound, "segment tables disabled on this node")
		return
	}
	name := r.PathValue("routeKey")
	route, ok := s.lookupRoute(name)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("unknown route %q", name))
		return
	}
	s.mu.Lock()
	rt := s.segTables[name]
	s.mu.Unlock()
	if rt == nil {
		if pg := s.peers; pg != nil {
			if owner, _ := pg.actingOwner(name, time.Now()); owner != pg.self {
				s.fail(w, http.StatusNotFound, fmt.Sprintf("node %s does not own tables for %q", pg.self, name))
				return
			}
		}
		var err error
		rt, err = s.routeTables(r.Context(), name, s.tableCfg(route))
		if err != nil {
			s.optimizeError(w, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// Encoding errors past the first byte cannot be reported; the reader's
	// gob decoder surfaces the truncation.
	_ = gob.NewEncoder(w).Encode(rt.Export())
}

// handleTablesPut serves PUT /v1/tables/{routeKey}: the replication
// receive path. The payload is imported — fingerprint-verified against
// this node's own route and grid config — and stored only if the route's
// tables are not already warm; an import failure is the sender's problem,
// never this node's, so it answers 422 and keeps serving.
func (s *Server) handleTablesPut(w http.ResponseWriter, r *http.Request) {
	pg := s.peers
	if pg == nil || !s.cfg.SegmentTables {
		s.fail(w, http.StatusNotFound, "not a cluster node")
		return
	}
	name := r.PathValue("routeKey")
	route, ok := s.lookupRoute(name)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("unknown route %q", name))
		return
	}
	var wire dp.TablesWire
	if err := gob.NewDecoder(io.LimitReader(r.Body, pg.cfg.MaxTableBytes)).Decode(&wire); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("decoding replicated tables: %v", err))
		return
	}
	rt, err := dp.ImportRouteTables(s.tableCfg(route), &wire)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.mu.Lock()
	if _, warm := s.segTables[name]; !warm {
		s.segTables[name] = rt
	}
	s.mu.Unlock()
	pg.replRecv.Inc()
	writeJSON(w, http.StatusOK, map[string]string{"status": "stored"})
}

func (s *Server) handleRoutes(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	names := stable.SortedKeys(s.routes)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string][]string{"routes": names})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, Stats{
		Requests:         s.requests.Value(),
		CacheHits:        s.cacheHits.Value(),
		Errors:           s.errs.Value(),
		Shed:             s.shed.Value(),
		Degraded:         s.degraded.Total(),
		DegradedByReason: s.degraded.Snapshot(),
		PanicsRecovered:  s.panics.Value(),
		RetryAfterIssued: s.retryAfterIssued.Value(),
		DPFullSolves:     s.dpFullSolves.Value(),
		DPSegmentSolves:  s.dpSegmentSolves.Value(),
		StitchedServes:   s.stitchedServes.Value(),
		BatchItems:       s.batchItems.Value(),
		LatencyMs: LatencyStats{
			Count: s.latency.Count(),
			P50:   s.latency.Quantile(0.50),
			P95:   s.latency.Quantile(0.95),
			P99:   s.latency.Quantile(0.99),
		},
		Cluster: s.clusterStats(),
	})
}

// decodeJSON reads a bounded request body and decodes it strictly: unknown
// fields (e.g. the typo "departtime") are a 400, not a silent default, and
// bodies beyond MaxBodyBytes are cut off with a structured 400 instead of
// buffering without limit.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return false
	}
	s.fail(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
	return false
}

// normalizeOptimize fills request defaults and validates fields, returning
// a non-zero HTTP status with a message on failure. Shared by the single,
// advise-sweep and batch entry points so the three stay in agreement.
func normalizeOptimize(req *Request) (int, string) {
	if req.Variant == "" {
		req.Variant = VariantQueueAware
	}
	switch req.Variant {
	case VariantQueueAware, VariantGreen, VariantUnconstrained:
	default:
		return http.StatusBadRequest, fmt.Sprintf("unknown variant %q", req.Variant)
	}
	if req.DepartTime < 0 {
		return http.StatusBadRequest, "departTime must be non-negative"
	}
	if req.ArrivalRateVehPerHour < 0 {
		return http.StatusBadRequest, "arrivalRateVehPerHour must be non-negative"
	}
	return 0, ""
}

func (s *Server) lookupRoute(name string) (*road.Route, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.routes[name]
	return r, ok
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()

	var req Request
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if code, msg := normalizeOptimize(&req); code != 0 {
		s.fail(w, code, msg)
		return
	}
	route, ok := s.lookupRoute(req.Route)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("unknown route %q", req.Route))
		return
	}

	// Cluster mode: a route this node neither owns nor has warm tables for
	// is forwarded to its acting owner; any forwarding trouble (loop guard,
	// open breaker, owner unreachable) falls through to local serving.
	if fwd := s.forwardOptimize(r.Context(), req, r.Header.Get(ForwardedByHeader)); fwd != nil {
		writeJSON(w, http.StatusOK, fwd)
		return
	}

	resp, err := s.optimizeCached(r.Context(), route, req)
	if err != nil {
		s.optimizeError(w, err)
		return
	}
	if pg := s.peers; pg != nil {
		// Annotate a copy: resp may alias a cache entry shared with
		// concurrent readers.
		out := *resp
		out.ServedBy = pg.self
		writeJSON(w, http.StatusOK, &out)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// optimizeCached serves one optimize request through the full serving
// stack: response cache, in-flight coalescing (with leader re-election),
// then the degradation-laddered solve. Every compute path — single
// optimize, advise sweeps and batch items — goes through here, so they all
// warm and hit the same cache.
func (s *Server) optimizeCached(ctx context.Context, route *road.Route, req Request) (*Response, error) {
	key := s.cacheKey(req)
	for {
		s.mu.Lock()
		if resp, ok := s.cache[key]; ok {
			s.cacheHits.Inc()
			s.mu.Unlock()
			cached := *resp
			cached.Cached = true
			return &cached, nil
		}
		if c, ok := s.inflight[key]; ok {
			// A twin request is already computing this key; wait for it
			// instead of running the DP again — but never past our own
			// context.
			s.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("request abandoned while coalesced: %w", ctx.Err())
			}
			if c.err != nil {
				if isCtxErr(c.err) && ctx.Err() == nil {
					// The leader died of its own cancellation, not ours:
					// its deadline was tighter, or its client hung up.
					// Our context is live, so loop back and elect a new
					// leader (possibly us) rather than inherit the error.
					continue
				}
				return nil, c.err
			}
			s.cacheHits.Inc()
			cached := *c.resp
			cached.Cached = true
			return &cached, nil
		}
		c := &inflightCall{done: make(chan struct{})}
		s.inflight[key] = c
		s.mu.Unlock()

		resp, err := s.optimize(ctx, route, req)
		c.resp, c.err = resp, err
		s.mu.Lock()
		delete(s.inflight, key)
		// Degraded responses are not cached: the condition that forced the
		// degradation is transient, and a cached degraded plan would keep
		// serving the inferior baseline after the optimizer recovered.
		if err == nil && !resp.Degraded {
			if len(s.cache) >= s.cfg.MaxCacheEntries && len(s.order) > 0 {
				delete(s.cache, s.order[0])
				s.order = s.order[1:]
			}
			s.cache[key] = resp
			s.order = append(s.order, key)
		}
		s.mu.Unlock()
		close(c.done)
		return resp, err
	}
}

// optimizeError maps an optimize failure to a response: context errors are
// transient (the budget ran out with every ladder rung dry) and retryable;
// everything else is a 422 of the optimizer's own.
func (s *Server) optimizeError(w http.ResponseWriter, err error) {
	if isCtxErr(err) {
		s.failRetryable(w, "optimization did not complete within the deadline: "+err.Error())
		return
	}
	s.fail(w, http.StatusUnprocessableEntity, err.Error())
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (s *Server) cacheKey(req Request) string {
	bucket := 0.0
	if s.cfg.CacheDepartBucketSec > 0 {
		// Floor, not int-truncation: truncation would fold buckets -1 and
		// 0 together around zero (and overflows int for huge times).
		bucket = math.Floor(req.DepartTime / s.cfg.CacheDepartBucketSec)
	}
	return fmt.Sprintf("%s|%s|%g|%g", req.Route, req.Variant, bucket, req.ArrivalRateVehPerHour)
}

// optimize runs the degradation ladder for one request:
//
//	rung 0  full method, with the predictor falling back to the default
//	        arrival rate if it errors (degraded: predictor-default-rate)
//	rung 1  the same variant through the coarse-to-fine fast path when the
//	        exact solve exceeds its share of the deadline and
//	        CoarseLadderFactor is configured (degraded: coarse-grid)
//	rung 2  green-window variant when the queue-aware solve exceeds its
//	        share of the deadline (degraded: green-fallback)
//	rung 3  a stale cache entry for the same route (degraded: stale-cache)
//
// The coarse rung keeps the paper's queue-aware windows — it only brackets
// the velocity grid (DESIGN.md §12) — so it is tried first. Following
// Ozatay et al. (PAPERS.md), the lower rungs are the baselines the paper
// compares against: still-valid velocity profiles, just without the
// queue-aware (or any) signal timing — strictly better than an error for a
// vehicle that needs *a* profile now.
func (s *Server) optimize(ctx context.Context, route *road.Route, req Request) (*Response, error) {
	primary, cancel := s.primaryBudget(ctx, req.Variant)
	resp, err := s.runVariant(primary, route, req, req.Variant, false)
	if cancel != nil {
		cancel()
	}
	if err == nil {
		if resp.Degraded {
			s.degraded.Inc(resp.DegradedReason)
		}
		return resp, nil
	}
	if !isCtxErr(err) {
		return nil, err // genuine optimizer error; the ladder is for slowness
	}
	if ctx.Err() == nil && s.cfg.CoarseLadderFactor >= 2 {
		// The exact solve blew its budget but the request still has time:
		// re-solve the same variant on the bracketed grid, ~Factor² cheaper.
		c, cerr := s.runVariant(ctx, route, req, req.Variant, true)
		if cerr == nil {
			c.Degraded, c.DegradedReason = true, DegradedCoarseGrid
			s.degraded.Inc(DegradedCoarseGrid)
			return c, nil
		}
		if !isCtxErr(cerr) {
			return nil, cerr
		}
	}
	if ctx.Err() == nil && req.Variant == VariantQueueAware {
		// The full method blew its budget but the request still has time:
		// compute the green-window baseline on the remaining budget.
		g, gerr := s.runVariant(ctx, route, req, VariantGreen, false)
		if gerr == nil {
			g.Degraded, g.DegradedReason = true, DegradedGreenFallback
			s.degraded.Inc(DegradedGreenFallback)
			return g, nil
		}
		if !isCtxErr(gerr) {
			return nil, gerr
		}
	}
	if st := s.staleFor(req); st != nil {
		out := *st
		out.Cached = true
		out.Degraded, out.DegradedReason = true, DegradedStaleCache
		s.degraded.Inc(DegradedStaleCache)
		return &out, nil
	}
	return nil, err
}

// primaryBudget carves the full method's slice out of the request
// deadline, reserving the remainder for the degradation ladder. Variants
// below queue-aware have no cheaper fallback, so they get the whole
// deadline.
func (s *Server) primaryBudget(ctx context.Context, v Variant) (context.Context, context.CancelFunc) {
	if v != VariantQueueAware {
		return ctx, nil
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return ctx, nil
	}
	budget := time.Duration(float64(time.Until(deadline)) * s.cfg.DegradeBudgetFrac)
	if budget <= 0 {
		return ctx, nil
	}
	return context.WithTimeout(ctx, budget)
}

// staleFor returns the freshest cached plan usable as a last-resort answer
// for req: same route and variant first (any departure bucket), then any
// variant for the route. Nil when the cache holds nothing for the route.
func (s *Server) staleFor(req Request) *Response {
	samePrefix := req.Route + "|" + string(req.Variant) + "|"
	anyPrefix := req.Route + "|"
	s.mu.Lock()
	defer s.mu.Unlock()
	var anyHit *Response
	for i := len(s.order) - 1; i >= 0; i-- {
		k := s.order[i]
		if strings.HasPrefix(k, samePrefix) {
			return s.cache[k]
		}
		if anyHit == nil && strings.HasPrefix(k, anyPrefix) {
			anyHit = s.cache[k]
		}
	}
	return anyHit
}

// arrivalRate resolves the per-control arrival-rate function for one
// request: an explicit request override wins; otherwise the configured
// predictor, degrading to the fallback rate (and flagging it) when the
// predictor — or the injected predictor fault — fails. The degraded flag
// is written from dp.OptimizeCtx's serial window-building phase, before
// any worker goroutine starts, so no synchronization is needed.
func (s *Server) arrivalRate(req Request, degraded *bool) func(road.Control) float64 {
	if req.ArrivalRateVehPerHour > 0 {
		vin := queue.VehPerHour(req.ArrivalRateVehPerHour)
		return func(road.Control) float64 { return vin }
	}
	fallback := queue.VehPerHour(s.cfg.FallbackRateVehPerHour)
	return func(c road.Control) float64 {
		if f := s.cfg.Faults.PredictorErr; f != nil {
			if err := f(); err != nil {
				*degraded = true
				return fallback
			}
		}
		v, err := s.cfg.ArrivalRate(c, req.DepartTime)
		if err != nil || v < 0 {
			*degraded = true
			return fallback
		}
		return v
	}
}

// runVariant executes one optimizer variant under ctx, applying the
// fault-injection seam and the predictor fallback. With coarse set it runs
// the coarse-grid ladder rung: the template's CoarseRefine is overridden
// with CoarseLadderFactor and the solve bypasses the segment-table path,
// because segment tables are exact-only (dp.BuildRouteTables rejects a
// CoarseRefine config).
func (s *Server) runVariant(ctx context.Context, route *road.Route, req Request, variant Variant, coarse bool) (*Response, error) {
	if f := s.cfg.Faults.OptimizeDelay; f != nil {
		if !sleepCtx(f(variant), ctx.Done()) {
			return nil, ctx.Err()
		}
	}
	cfg := s.cfg.DPTemplate
	cfg.Route = route
	cfg.Vehicle = s.cfg.Vehicle
	cfg.DepartTime = req.DepartTime
	if coarse {
		cfg.CoarseRefine = dp.CoarseRefine{Factor: s.cfg.CoarseLadderFactor}
	}
	if cfg.MaxTripSec == 0 {
		cfg.MaxTripSec = 600
	}
	horizon := req.DepartTime + cfg.MaxTripSec + 120

	predictorDegraded := false
	switch variant {
	case VariantGreen:
		cfg.Windows = dp.GreenWindows(req.DepartTime, horizon)
	case VariantQueueAware:
		rate := s.arrivalRate(req, &predictorDegraded)
		wf, err := dp.QueueAwareWindows(s.cfg.QueueParams, rate, req.DepartTime, horizon)
		if err != nil {
			return nil, err
		}
		cfg.Windows = wf
	case VariantUnconstrained:
		cfg.Windows = nil
	}

	var res *dp.Result
	var err error
	if coarse {
		s.dpFullSolves.Inc()
		res, err = optimizeDP(ctx, cfg)
	} else {
		res, err = s.solve(ctx, req.Route, cfg)
	}
	if err != nil {
		return nil, err
	}
	out := &Response{
		ChargeAh:  res.ChargeAh,
		TripSec:   res.TripSec,
		Penalized: res.Penalized,
		Refined:   res.Refined != nil,
	}
	for _, p := range res.Profile.Points() {
		out.Profile = append(out.Profile, PointJSON{T: p.T, Pos: p.Pos, V: p.V})
	}
	for _, a := range res.Arrivals {
		out.Arrivals = append(out.Arrivals, ArrivalJSON{
			Name: a.Name, PositionM: a.PositionM, ArrivalSec: a.ArrivalSec, InWindow: a.InWindow,
		})
	}
	if predictorDegraded {
		out.Degraded, out.DegradedReason = true, DegradedPredictorFallback
	}
	return out, nil
}

// solve runs the DP for one request config. With SegmentTables enabled the
// route's shared per-segment tables are built once (coalesced across
// concurrent requesters) and the answer is stitched from them; otherwise —
// or when the tables cannot serve this config — the monolithic solver
// runs. Only context errors propagate out of the table path: any other
// table failure falls back to the monolithic solver, which remains the
// reference implementation.
func (s *Server) solve(ctx context.Context, routeName string, cfg dp.Config) (*dp.Result, error) {
	if s.cfg.SegmentTables {
		rt, err := s.routeTables(ctx, routeName, cfg)
		if err == nil {
			res, serr := rt.StitchCtx(ctx, cfg)
			if serr == nil {
				s.stitchedServes.Inc()
				return res, nil
			}
			if isCtxErr(serr) {
				return nil, serr
			}
			// Stitch rejected the config (grid drift vs the built tables);
			// fall through to the full solve.
		} else if isCtxErr(err) {
			return nil, err
		}
	}
	s.dpFullSolves.Inc()
	return optimizeDP(ctx, cfg)
}

// routeTables returns the segment tables for a named route, building them
// under the first requester's context when absent. Concurrent builders
// coalesce with the same re-election rule as optimize coalescing: a
// leader cancelled by its own client does not fail followers whose
// contexts are live — one of them rebuilds. Completed tables are kept for
// the server's lifetime; they key on the registered route instance, which
// is immutable, so there is nothing to invalidate.
func (s *Server) routeTables(ctx context.Context, name string, cfg dp.Config) (*dp.RouteTables, error) {
	for {
		s.mu.Lock()
		if rt, ok := s.segTables[name]; ok {
			s.mu.Unlock()
			return rt, nil
		}
		if c, ok := s.tableBuilds[name]; ok {
			s.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("table build abandoned while coalesced: %w", ctx.Err())
			}
			if c.err != nil {
				if isCtxErr(c.err) && ctx.Err() == nil {
					continue // leader died of its own cancellation; re-elect
				}
				return nil, c.err
			}
			return c.rt, nil
		}
		c := &tableCall{done: make(chan struct{})}
		s.tableBuilds[name] = c
		s.mu.Unlock()

		rt, err := s.acquireTables(ctx, name, cfg)
		c.rt, c.err = rt, err
		s.mu.Lock()
		delete(s.tableBuilds, name)
		if err == nil {
			s.segTables[name] = rt
		}
		s.mu.Unlock()
		close(c.done)
		return rt, err
	}
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.errs.Inc()
	writeJSON(w, code, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Encoding errors past the header cannot be reported to the client.
	_ = json.NewEncoder(w).Encode(v)
}

// AdviseRequest asks the cloud when to depart within a window.
type AdviseRequest struct {
	// Route names a registered route (required).
	Route string `json:"route"`
	// EarliestDepart and LatestDepart bound the candidate departures (s).
	EarliestDepart float64 `json:"earliestDepart"`
	LatestDepart   float64 `json:"latestDepart"`
	// StepSec spaces the candidates (default 10 s).
	StepSec float64 `json:"stepSec,omitempty"`
	// Variant selects the optimizer (default queue-aware).
	Variant Variant `json:"variant,omitempty"`
	// ArrivalRateVehPerHour optionally overrides the arrival-rate estimate.
	ArrivalRateVehPerHour float64 `json:"arrivalRateVehPerHour,omitempty"`
}

// AdviseOption summarizes one candidate departure.
type AdviseOption struct {
	DepartTime float64 `json:"departTime"`
	ChargeAh   float64 `json:"chargeAh"`
	TripSec    float64 `json:"tripSec"`
	Penalized  bool    `json:"penalized"`
}

// AdviseResponse carries the evaluated candidates and the recommendation.
type AdviseResponse struct {
	Options []AdviseOption `json:"options"`
	// Best is the recommended departure (lowest charge among
	// non-penalized plans).
	Best AdviseOption `json:"best"`
	// Degraded is true when any candidate was served off the degradation
	// ladder (see Response.Degraded); the comparison across candidates is
	// then apples-to-oranges and the recommendation is best-effort.
	Degraded bool `json:"degraded,omitempty"`
}

// maxAdviseCandidates bounds the sweep size per request.
const maxAdviseCandidates = 64

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()

	var req AdviseRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.StepSec == 0 {
		req.StepSec = 10
	}
	if req.Variant == "" {
		req.Variant = VariantQueueAware
	}
	// Candidate count by index, not by float span: a window spanning exactly
	// k steps holds k+1 candidates, and the limit bounds the candidates.
	count := 0
	if req.StepSec > 0 && req.LatestDepart >= req.EarliestDepart {
		count = int(math.Floor((req.LatestDepart-req.EarliestDepart)/req.StepSec+1e-9)) + 1
	}
	switch {
	case req.StepSec <= 0:
		s.fail(w, http.StatusBadRequest, "stepSec must be positive")
		return
	case req.EarliestDepart < 0 || req.LatestDepart < req.EarliestDepart:
		s.fail(w, http.StatusBadRequest, "departure window invalid")
		return
	case count > maxAdviseCandidates:
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("window spans more than %d candidates; widen stepSec", maxAdviseCandidates))
		return
	case req.ArrivalRateVehPerHour < 0:
		s.fail(w, http.StatusBadRequest, "arrivalRateVehPerHour must be non-negative")
		return
	}
	switch req.Variant {
	case VariantQueueAware, VariantGreen, VariantUnconstrained:
	default:
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("unknown variant %q", req.Variant))
		return
	}
	s.mu.Lock()
	route, ok := s.routes[req.Route]
	s.mu.Unlock()
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Sprintf("unknown route %q", req.Route))
		return
	}

	ctx := r.Context()
	resp := &AdviseResponse{}
	bestIdx, bestCharge := -1, 0.0
	for i := 0; i < count; i++ {
		// Index-stepped, not accumulated: depart = earliest + i·step stays
		// on-grid over long windows where `depart += step` drifts (the same
		// float-accumulation class dp.SweepDepartures was cured of).
		depart := req.EarliestDepart + float64(i)*req.StepSec
		one, err := s.optimizeCached(ctx, route, Request{
			Route: req.Route, DepartTime: depart, Variant: req.Variant,
			ArrivalRateVehPerHour: req.ArrivalRateVehPerHour,
		})
		if err != nil {
			if isCtxErr(err) {
				s.failRetryable(w, fmt.Sprintf("advise sweep ran out of time at depart %.0f s: %v", depart, err))
				return
			}
			s.fail(w, http.StatusUnprocessableEntity, fmt.Sprintf("depart %.0f s: %v", depart, err))
			return
		}
		if one.Degraded {
			resp.Degraded = true
		}
		opt := AdviseOption{
			DepartTime: depart, ChargeAh: one.ChargeAh,
			TripSec: one.TripSec, Penalized: one.Penalized,
		}
		resp.Options = append(resp.Options, opt)
		better := bestIdx < 0 ||
			(!opt.Penalized && resp.Options[bestIdx].Penalized) ||
			(opt.Penalized == resp.Options[bestIdx].Penalized && opt.ChargeAh < bestCharge)
		if better {
			bestIdx, bestCharge = len(resp.Options)-1, opt.ChargeAh
		}
	}
	resp.Best = resp.Options[bestIdx]
	writeJSON(w, http.StatusOK, resp)
}

// BatchRequest carries a fleet's worth of optimize requests in one call.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchItem is the outcome for one batch element, positionally matching
// BatchRequest.Requests: exactly one of Response and Error is set.
type BatchItem struct {
	Response *Response `json:"response,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// BatchResponse mirrors the request order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// handleBatch serves POST /v1/optimize/batch: a fleet uploads many
// requests at once and each is served through the same cached/coalesced
// path as /v1/optimize, fanned across the cores. Combined with segment
// tables this turns a fleet sweep into one table build plus cheap
// stitches. Item failures are reported per item — one bad request does
// not void the rest of the fleet's answers.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()

	var breq BatchRequest
	if !s.decodeJSON(w, r, &breq) {
		return
	}
	if len(breq.Requests) == 0 {
		s.fail(w, http.StatusBadRequest, "batch needs at least one request")
		return
	}
	if len(breq.Requests) > s.cfg.MaxBatchSize {
		s.fail(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d; split the fleet", len(breq.Requests), s.cfg.MaxBatchSize))
		return
	}
	ctx := r.Context()
	out := BatchResponse{Results: make([]BatchItem, len(breq.Requests))}
	// The whole batch holds one admission slot; its internal fan-out is
	// bounded separately so a single big batch cannot seize every core.
	_ = par.ForEach(runtime.GOMAXPROCS(0), len(breq.Requests), func(i int) error {
		req := breq.Requests[i]
		s.batchItems.Inc()
		if code, msg := normalizeOptimize(&req); code != 0 {
			out.Results[i] = BatchItem{Error: msg}
			return nil
		}
		route, ok := s.lookupRoute(req.Route)
		if !ok {
			out.Results[i] = BatchItem{Error: fmt.Sprintf("unknown route %q", req.Route)}
			return nil
		}
		resp, err := s.optimizeCached(ctx, route, req)
		if err != nil {
			out.Results[i] = BatchItem{Error: err.Error()}
			return nil
		}
		out.Results[i] = BatchItem{Response: resp}
		return nil
	})
	if ctx.Err() != nil {
		// The batch's own deadline died mid-fan-out; partial results would
		// mix answers with timeouts, so report the whole call transient.
		s.failRetryable(w, "batch abandoned: "+ctx.Err().Error())
		return
	}
	writeJSON(w, http.StatusOK, &out)
}

// ToProfile converts a Response's trajectory back into a profile.Profile.
func (r *Response) ToProfile() (*profile.Profile, error) {
	pts := make([]profile.Point, 0, len(r.Profile))
	for _, p := range r.Profile {
		pts = append(pts, profile.Point{T: p.T, Pos: p.Pos, V: p.V})
	}
	return profile.New(pts)
}
