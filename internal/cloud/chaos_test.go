package cloud

// Chaos tests: drive every rung of the degradation ladder, the admission
// controller, the panic-recovery middleware and the
// coalescing-under-cancellation contract deterministically through the
// fault-injection seam (faults.go). All of these run under -race in
// `make chaos` / `make check`.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"evvo/internal/dp"
	"evvo/internal/road"
)

// chaosFaults is a concurrency-safe switchboard for the Faults hooks so a
// test can flip failures on and off mid-flight.
type chaosFaults struct {
	predictorDown atomic.Bool
	delayAll      atomic.Bool // delay every variant
	delayQueue    atomic.Bool // delay only the queue-aware variant
	delay         time.Duration
	panicNext     atomic.Bool // panic on the next request, once
}

func (f *chaosFaults) faults() Faults {
	return Faults{
		PredictorErr: func() error {
			if f.predictorDown.Load() {
				return errors.New("injected: SAE predictor unreachable")
			}
			return nil
		},
		OptimizeDelay: func(v Variant) time.Duration {
			if f.delayAll.Load() || (f.delayQueue.Load() && v == VariantQueueAware) {
				return f.delay
			}
			return 0
		},
		Panic: func(string) bool {
			return f.panicNext.CompareAndSwap(true, false)
		},
	}
}

// newChaosServer builds a server with a tight 2 s deadline and the fault
// switchboard wired in.
func newChaosServer(t *testing.T, mutate func(*ServerConfig)) (*chaosFaults, *Server, *httptest.Server) {
	t.Helper()
	f := &chaosFaults{delay: 30 * time.Second}
	cfg := ServerConfig{
		DPTemplate:         coarseDP(),
		DefaultDeadlineSec: 2,
		MaxInFlight:        16,
		Faults:             f.faults(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return f, s, ts
}

// TestChaosPredictorFailureFallsBackToDefaultRate: rung 0 of the ladder —
// the arrival-rate predictor fails, the service computes the queue-aware
// plan from the configured fallback rate and says so.
func TestChaosPredictorFailureFallsBackToDefaultRate(t *testing.T) {
	f, _, ts := newChaosServer(t, nil)
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	f.predictorDown.Store(true)
	degradedResp, err := c.Optimize(ctx, Request{Route: "us25"})
	if err != nil {
		t.Fatalf("predictor failure must degrade, not fail: %v", err)
	}
	if !degradedResp.Degraded || degradedResp.DegradedReason != DegradedPredictorFallback {
		t.Fatalf("degraded=%v reason=%q, want %q",
			degradedResp.Degraded, degradedResp.DegradedReason, DegradedPredictorFallback)
	}

	// The fallback rate is the paper's 153 veh/h; an explicit 153 override
	// bypasses the (broken) predictor and must yield the identical plan.
	explicit, err := c.Optimize(ctx, Request{Route: "us25", ArrivalRateVehPerHour: 153})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.ChargeAh != degradedResp.ChargeAh || explicit.TripSec != degradedResp.TripSec {
		t.Fatalf("fallback plan (%.6f Ah, %.1f s) != explicit 153 veh/h plan (%.6f Ah, %.1f s)",
			degradedResp.ChargeAh, degradedResp.TripSec, explicit.ChargeAh, explicit.TripSec)
	}

	// Predictor recovers: the same request is now served undegraded (the
	// degraded response must not have been cached).
	f.predictorDown.Store(false)
	healthy, err := c.Optimize(ctx, Request{Route: "us25"})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Degraded || healthy.Cached {
		t.Fatalf("after recovery: degraded=%v cached=%v, want fresh full answer",
			healthy.Degraded, healthy.Cached)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded < 1 || st.DegradedByReason[DegradedPredictorFallback] < 1 {
		t.Fatalf("stats do not count the degradation: %+v", st)
	}
}

// TestChaosSlowQueueAwareDegradesToGreen: rung 1 — the queue-aware solve
// exceeds its share of the deadline, so the service returns the
// green-window baseline within the deadline budget instead of hanging.
func TestChaosSlowQueueAwareDegradesToGreen(t *testing.T) {
	f, _, ts := newChaosServer(t, nil)
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	f.delayQueue.Store(true) // only the queue-aware variant is slow
	start := time.Now()
	resp, err := c.Optimize(context.Background(), Request{Route: "us25"})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("slow queue-aware must degrade, not fail: %v", err)
	}
	if !resp.Degraded || resp.DegradedReason != DegradedGreenFallback {
		t.Fatalf("degraded=%v reason=%q, want %q", resp.Degraded, resp.DegradedReason, DegradedGreenFallback)
	}
	// The 2 s deadline splits 50/50: ~1 s burnt on the stalled full method,
	// then the green DP (milliseconds on the coarse grid). Anything close
	// to the injected 30 s delay means the budget was not enforced.
	if elapsed > 2*time.Second {
		t.Fatalf("degraded response took %v, want within the 2 s deadline", elapsed)
	}
	if resp.ChargeAh <= 0 || len(resp.Profile) == 0 {
		t.Fatalf("green fallback is not a drivable plan: %+v", resp)
	}
	// A green-window plan respects green phases; arrivals are reported.
	if len(resp.Arrivals) != 2 {
		t.Fatalf("arrivals = %d, want 2 signals on us25", len(resp.Arrivals))
	}
}

// TestChaosDegradesToStaleCache: rung 2 — everything is slow, but a
// previously cached plan for the route exists and is served stale.
func TestChaosDegradesToStaleCache(t *testing.T) {
	f, _, ts := newChaosServer(t, nil)
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Warm the cache while healthy (departure bucket 0).
	warm, err := c.Optimize(ctx, Request{Route: "us25", DepartTime: 0})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Degraded {
		t.Fatalf("warmup degraded: %+v", warm)
	}

	// Now every optimizer run stalls; a different departure bucket forces
	// a cache miss, and both ladder computations blow the deadline.
	f.delayAll.Store(true)
	start := time.Now()
	resp, err := c.Optimize(ctx, Request{Route: "us25", DepartTime: 600})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("stale-cache rung must serve, not fail: %v", err)
	}
	if !resp.Degraded || resp.DegradedReason != DegradedStaleCache || !resp.Cached {
		t.Fatalf("degraded=%v reason=%q cached=%v, want stale cache hit",
			resp.Degraded, resp.DegradedReason, resp.Cached)
	}
	if resp.ChargeAh != warm.ChargeAh {
		t.Fatalf("stale answer %.6f Ah is not the cached plan %.6f Ah", resp.ChargeAh, warm.ChargeAh)
	}
	if elapsed > 4*time.Second {
		t.Fatalf("stale-cache response took %v, want within the deadline budget", elapsed)
	}
}

// TestChaosAllRungsDryReturns503: no fallback computable and nothing
// cached — the service answers 503 + Retry-After promptly, never hangs.
func TestChaosAllRungsDryReturns503(t *testing.T) {
	f, _, ts := newChaosServer(t, nil)
	f.delayAll.Store(true)

	body := `{"route":"us25"}`
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("503 body not a structured error: %v %q", err, e.Error)
	}
	if elapsed > 4*time.Second {
		t.Fatalf("503 took %v, want prompt failure at the deadline", elapsed)
	}
}

// TestChaosBatchAllRungsDryReturns503: a batch whose items run out of
// budget with nothing cached to serve stale is answered 503 + Retry-After
// as a whole, like a single request, rather than with per-item timeouts.
func TestChaosBatchAllRungsDryReturns503(t *testing.T) {
	f, s, _ := newChaosServer(t, nil)
	f.delayAll.Store(true)
	rec := serveJSON(s.Handler(), "/v1/optimize/batch",
		BatchRequest{Requests: []Request{{Route: "us25"}, {Route: "us25", DepartTime: 300}}}, "300")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("status %d Retry-After %q, want 503 with Retry-After: %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "batch abandoned") {
		t.Fatalf("body %s, want the batch-abandoned error", rec.Body)
	}
}

// TestChaosSheddingAndClientRetry: saturate the in-flight limit; excess
// requests get 429 + Retry-After immediately, and the retrying client
// rides the backoff to an eventual success.
func TestChaosSheddingAndClientRetry(t *testing.T) {
	var delayFirst atomic.Bool
	delayFirst.Store(true)
	cfg := ServerConfig{
		DPTemplate:         coarseDP(),
		DefaultDeadlineSec: 5,
		MaxInFlight:        1,
		MaxQueueDepth:      -1,   // shed immediately when the slot is taken
		QueueWaitSec:       0.01, // (and never linger)
		RetryAfterSec:      1,
		Faults: Faults{
			// The first optimize holds the only slot for a while; later
			// ones are fast.
			OptimizeDelay: func(Variant) time.Duration {
				if delayFirst.CompareAndSwap(true, false) {
					return 600 * time.Millisecond
				}
				return 0
			},
		},
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Occupy the single slot.
	holderDone := make(chan error, 1)
	go func() {
		c, err := NewClient(ts.URL, WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
		if err != nil {
			holderDone <- err
			return
		}
		_, err = c.Optimize(context.Background(), Request{Route: "us25", DepartTime: 0})
		holderDone <- err
	}()
	time.Sleep(150 * time.Millisecond) // holder is inside its 600 ms stall

	// A bare request is shed with 429 + Retry-After.
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		strings.NewReader(`{"route":"us25","departTime":600}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The retrying client sheds on early attempts and succeeds once the
	// slot frees up (Retry-After: 1 floors its first backoff).
	retrier, err := NewClient(ts.URL, WithRetryPolicy(RetryPolicy{
		MaxAttempts: 6, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := retrier.Optimize(context.Background(), Request{Route: "us25", DepartTime: 1200})
	if err != nil {
		t.Fatalf("backoff retry never succeeded: %v", err)
	}
	if got.ChargeAh <= 0 {
		t.Fatalf("retried response invalid: %+v", got)
	}
	if err := <-holderDone; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}

	st := statsOf(t, ts.URL)
	if st.Shed < 1 || st.RetryAfterIssued < 1 {
		t.Fatalf("shed/retry-after not counted: %+v", st)
	}
}

// TestChaosPanicRecovered: an injected handler panic becomes a structured
// 500, the process keeps serving, and the recovery is counted.
func TestChaosPanicRecovered(t *testing.T) {
	f, _, ts := newChaosServer(t, nil)
	c, err := NewClient(ts.URL, WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	f.panicNext.Store(true)
	var apiErr *APIError
	_, err = c.Optimize(ctx, Request{Route: "us25"})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("panic not converted to 500: %v", err)
	}
	if !strings.Contains(apiErr.Msg, "internal error") {
		t.Fatalf("500 body not structured: %q", apiErr.Msg)
	}

	// The process survived: the very next request computes normally.
	resp, err := c.Optimize(ctx, Request{Route: "us25"})
	if err != nil || resp.ChargeAh <= 0 {
		t.Fatalf("server did not survive the panic: %v", err)
	}
	st := statsOf(t, ts.URL)
	if st.PanicsRecovered != 1 {
		t.Fatalf("panicsRecovered = %d, want 1", st.PanicsRecovered)
	}
}

// TestChaosLeaderCancelledFollowerReruns: a coalesced follower whose own
// context is live must not inherit the cancelled leader's context error —
// it re-runs the computation itself.
func TestChaosLeaderCancelledFollowerReruns(t *testing.T) {
	var calls atomic.Int64
	firstEntered := make(chan struct{})
	old := optimizeDP
	optimizeDP = func(ctx context.Context, cfg dp.Config) (*dp.Result, error) {
		if calls.Add(1) == 1 {
			close(firstEntered)
			<-ctx.Done() // the leader's solve stalls until its client gives up
			return nil, ctx.Err()
		}
		return old(ctx, cfg)
	}
	defer func() { optimizeDP = old }()

	s, err := NewServer(ServerConfig{DPTemplate: coarseDP(), MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body, err := json.Marshal(Request{Route: "us25", DepartTime: 12})
	if err != nil {
		t.Fatal(err)
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderCode := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body)).WithContext(leaderCtx)
		h.ServeHTTP(rec, req)
		leaderCode <- rec.Code
	}()
	<-firstEntered // leader owns the in-flight call and is stalled

	followerRec := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		followerRec <- rec
	}()
	// Give the follower a beat to park on the in-flight call, then kill
	// the leader's request.
	time.Sleep(100 * time.Millisecond)
	cancelLeader()

	select {
	case code := <-leaderCode:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("cancelled leader got %d, want 503", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled leader never returned")
	}
	select {
	case rec := <-followerRec:
		if rec.Code != http.StatusOK {
			t.Fatalf("follower got %d: %s — must re-run, not inherit leader's cancellation",
				rec.Code, rec.Body.String())
		}
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cached {
			t.Fatal("follower claims a cache hit; it should have recomputed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never returned after leader cancellation")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("optimizeDP ran %d times, want 2 (stalled leader + follower re-run)", got)
	}
}

// TestChaosFollowerSharesHealthyLeaderError: a non-context leader error
// (here: infeasible optimization) is shared with followers as before —
// re-running would just fail again.
func TestChaosFollowerSharesHealthyLeaderError(t *testing.T) {
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	old := optimizeDP
	optimizeDP = func(ctx context.Context, cfg dp.Config) (*dp.Result, error) {
		if calls.Add(1) == 1 {
			close(entered)
		}
		<-release
		return nil, errors.New("no feasible trajectory (injected)")
	}
	defer func() { optimizeDP = old }()

	s, err := NewServer(ServerConfig{DPTemplate: coarseDP(), MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body, _ := json.Marshal(Request{Route: "us25", DepartTime: 12})
	codes := make(chan int, 2)
	post := func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		codes <- rec.Code
	}
	go post()
	<-entered
	go post()
	time.Sleep(100 * time.Millisecond)
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusUnprocessableEntity {
			t.Fatalf("request %d got %d, want shared 422", i, code)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("optimizeDP ran %d times, want 1 (followers share real errors)", got)
	}
}

// statsOf fetches /v1/stats without admission/retry interference.
func statsOf(t *testing.T, baseURL string) Stats {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestChaosDeadlineHeaderCapped: the client may tighten the compute
// deadline but never extend it past the server's cap.
func TestChaosDeadlineHeaderCapped(t *testing.T) {
	s, err := NewServer(ServerConfig{
		DPTemplate:         coarseDP(),
		DefaultDeadlineSec: 2,
		MaxDeadlineSec:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(header string) *http.Request {
		r := httptest.NewRequest("POST", "/v1/optimize", nil)
		if header != "" {
			r.Header.Set(DeadlineHeader, header)
		}
		return r
	}
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 2 * time.Second},           // server default
		{"250", 250 * time.Millisecond}, // client tightens
		{"60000", 3 * time.Second},      // capped at MaxDeadlineSec
		{"garbage", 2 * time.Second},    // unparsable → default
		{"-5", 2 * time.Second},         // non-positive → default
		{"1e300", 3 * time.Second},      // beyond a Duration's range → capped, not negative
		{"+Inf", 3 * time.Second},       // likewise
		{"NaN", 2 * time.Second},        // not a number → default
	}
	for _, tc := range cases {
		if got := s.requestDeadline(mk(tc.header)); got != tc.want {
			t.Fatalf("header %q: deadline %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestChaosArrivalRatePredictorErrorConfigured: a real (non-injected)
// predictor error configured on the server degrades the same way the
// fault seam does.
func TestChaosArrivalRatePredictorErrorConfigured(t *testing.T) {
	s, err := NewServer(ServerConfig{
		DPTemplate: coarseDP(),
		ArrivalRate: func(road.Control, float64) (float64, error) {
			return 0, errors.New("upstream SAE model 500")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Optimize(context.Background(), Request{Route: "us25"})
	if err != nil {
		t.Fatalf("predictor error must degrade, not fail: %v", err)
	}
	if !resp.Degraded || resp.DegradedReason != DegradedPredictorFallback {
		t.Fatalf("degraded=%v reason=%q, want %q", resp.Degraded, resp.DegradedReason, DegradedPredictorFallback)
	}
}

// TestChaosBodyLimits: oversized bodies and unknown fields are structured
// 400s on both POST endpoints.
func TestChaosBodyLimits(t *testing.T) {
	s, err := NewServer(ServerConfig{DPTemplate: coarseDP(), MaxBodyBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	huge := `{"route":"` + strings.Repeat("x", 512) + `"}`
	for _, path := range []string{"/v1/optimize", "/v1/advise"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: oversize body response not JSON: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: oversize body got %d, want 400", path, resp.StatusCode)
		}
		if !strings.Contains(e.Error, "exceeds") {
			t.Fatalf("%s: oversize error %q does not name the limit", path, e.Error)
		}

		// Unknown fields (e.g. a misspelled parameter) are rejected, not
		// silently ignored. (Note: Go's decoder matches field names
		// case-insensitively, so the typo has to differ by more than case.)
		resp, err = http.Post(ts.URL+path, "application/json",
			strings.NewReader(`{"route":"us25","departureTime":12}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: unknown field got %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestChaosAdviseDegradedFlag: a degraded candidate marks the whole advise
// response as degraded.
func TestChaosAdviseDegradedFlag(t *testing.T) {
	f, _, ts := newChaosServer(t, nil)
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	f.predictorDown.Store(true)
	out, err := c.Advise(context.Background(), AdviseRequest{
		Route: "us25", EarliestDepart: 0, LatestDepart: 10, StepSec: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatalf("advise with failing predictor not marked degraded: %+v", out)
	}
	if len(out.Options) != 2 {
		t.Fatalf("options = %d, want 2", len(out.Options))
	}
}

// TestChaosSlowExactDegradesToCoarseGrid: the coarse-grid rung — the exact
// solve blows its budget, and with CoarseLadderFactor configured the
// service re-solves the *same* queue-aware variant on the bracketed grid
// instead of abandoning the paper's windows for the green baseline.
func TestChaosSlowExactDegradesToCoarseGrid(t *testing.T) {
	// Stall only the first optimizer run (the exact primary); the coarse
	// rerun of the same variant must go through undelayed.
	var stalled atomic.Bool
	_, _, ts := newChaosServer(t, func(c *ServerConfig) {
		c.CoarseLadderFactor = 3
		c.Faults = Faults{OptimizeDelay: func(Variant) time.Duration {
			if stalled.CompareAndSwap(false, true) {
				return 30 * time.Second
			}
			return 0
		}}
	})
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	resp, err := c.Optimize(context.Background(), Request{Route: "us25"})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("slow exact solve must degrade to coarse grid, not fail: %v", err)
	}
	if !resp.Degraded || resp.DegradedReason != DegradedCoarseGrid {
		t.Fatalf("degraded=%v reason=%q, want %q", resp.Degraded, resp.DegradedReason, DegradedCoarseGrid)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("degraded response took %v, want within the 2 s deadline", elapsed)
	}
	if resp.ChargeAh <= 0 || len(resp.Profile) == 0 {
		t.Fatalf("coarse-grid plan is not drivable: %+v", resp)
	}
	// The rung keeps the queue-aware windows: both us25 signals are crossed
	// inside their zero-queue windows, unpenalized.
	if len(resp.Arrivals) != 2 {
		t.Fatalf("arrivals = %d, want 2 signals on us25", len(resp.Arrivals))
	}
	for _, a := range resp.Arrivals {
		if !a.InWindow {
			t.Fatalf("coarse-grid plan misses a zero-queue window: %+v", resp.Arrivals)
		}
	}
	if resp.Penalized {
		t.Fatal("coarse-grid plan penalized on the chaos route")
	}

	// The coarse answer matches the exact one within the documented ε (on
	// this corridor they are equal; 1e-3 Ah is the published bound).
	exact, err := c.Optimize(context.Background(), Request{Route: "us25"})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Degraded {
		t.Fatalf("second request should be the healthy exact solve: %+v", exact)
	}
	if diff := resp.ChargeAh - exact.ChargeAh; diff < -1e-12 || diff > 1e-3 {
		t.Fatalf("coarse charge %v vs exact %v: outside [0, ε]", resp.ChargeAh, exact.ChargeAh)
	}

	st := statsOf(t, ts.URL)
	if st.DegradedByReason[DegradedCoarseGrid] != 1 {
		t.Fatalf("stats do not count the coarse-grid rung: %+v", st.DegradedByReason)
	}
}

// TestDegradeCoarseGridConfigValidation: factor 1 (exact re-run disguised
// as a fallback) and negatives are config errors, not silent no-ops.
func TestDegradeCoarseGridConfigValidation(t *testing.T) {
	for _, factor := range []int{1, -2} {
		cfg := ServerConfig{DPTemplate: coarseDP(), CoarseLadderFactor: factor}
		if _, err := NewServer(cfg); err == nil {
			t.Fatalf("CoarseLadderFactor %d accepted", factor)
		}
	}
}
