package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"evvo/internal/dp"
	"evvo/internal/road"
)

// escRouteName and escRoute's signal name need HTML escaping in JSON, so
// the byte-identity checks cover encoding/json's escaper too.
const escRouteName = "<r&1>"

func escRoute(t *testing.T) *road.Route {
	t.Helper()
	r, err := road.NewRoute(road.RouteConfig{
		LengthM:      1500,
		DefaultMinMS: road.KmhToMs(40),
		DefaultMaxMS: road.KmhToMs(60),
		Controls: []road.Control{{
			Kind: road.ControlSignal, PositionM: 800, Name: "<light & 1>",
			Timing: road.SignalTiming{RedSec: 30, GreenSec: 30},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// encodeRef is the reference body: json.NewEncoder(&buf).Encode of the
// value a handler answers with.
func encodeRef(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// serveJSON posts v to path through h, with an optional X-Deadline-Ms.
func serveJSON(h http.Handler, path string, v any, deadlineMs ...string) *httptest.ResponseRecorder {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	for _, ms := range deadlineMs {
		req.Header.Set(DeadlineHeader, ms)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// entryFor returns the cache entry serving req (nil when not cached).
func entryFor(s *Server, req Request) *cacheEntry {
	normalizeOptimize(&req)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache[s.cacheKey(req)]
}

// hitForm is what a cache hit answers: the entry's response with Cached set.
func hitForm(r *Response) *Response {
	out := *r
	out.Cached = true
	return &out
}

func assertBody(t *testing.T, what string, rec *httptest.ResponseRecorder, code int, want string) {
	t.Helper()
	if rec.Code != code {
		t.Fatalf("%s: status %d, want %d: %s", what, rec.Code, code, rec.Body)
	}
	if got := rec.Body.String(); got != want {
		t.Fatalf("%s: body differs from the encoding/json reference\n got: %.300s\nwant: %.300s", what, got, want)
	}
}

// TestEncodedBodiesByteIdentical pins the encoded-hit contract (DESIGN.md
// §8): every body the single and batch endpoints write — misses, first and
// repeated hits, item errors, degraded and stale-cache answers and a
// clustered node's servedBy — is byte-equal to encoding/json's encoding
// of the equivalent value.
func TestEncodedBodiesByteIdentical(t *testing.T) {
	f, s, _ := newChaosServer(t, nil)
	if err := s.RegisterRoute(escRouteName, escRoute(t)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	at := func(depart float64) Request { return Request{Route: escRouteName, DepartTime: depart} }

	// Single endpoint: a miss, its first hit, a repeated hit, an error.
	assertBody(t, "miss", serveJSON(h, "/v1/optimize", at(7)), http.StatusOK, encodeRef(t, entryFor(s, at(7)).resp))
	hit7 := encodeRef(t, hitForm(entryFor(s, at(7)).resp))
	assertBody(t, "first hit", serveJSON(h, "/v1/optimize", at(7)), http.StatusOK, hit7)
	assertBody(t, "repeated hit", serveJSON(h, "/v1/optimize", at(7)), http.StatusOK, hit7)
	assertBody(t, "unknown route", serveJSON(h, "/v1/optimize", Request{Route: "<nope&>"}),
		http.StatusNotFound, encodeRef(t, map[string]string{"error": `unknown route "<nope&>"`}))
	serveJSON(h, "/v1/optimize", at(50)) // cached, never hit: its batch hit below is the first

	// Batch: memoized and first hits, a miss, item errors.
	batch := BatchRequest{Requests: []Request{
		at(7), at(100), at(50), {Route: "<nope&>"}, {Route: escRouteName, Variant: "bogus<>"}, at(7),
	}}
	rec := serveJSON(h, "/v1/optimize/batch", batch)
	e7, e50, e100 := entryFor(s, at(7)), entryFor(s, at(50)), entryFor(s, at(100))
	errItems := []BatchItem{{Error: `unknown route "<nope&>"`}, {Error: `unknown variant "bogus<>"`}}
	assertBody(t, "batch", rec, http.StatusOK, encodeRef(t, BatchResponse{Results: []BatchItem{
		{Response: hitForm(e7.resp)}, {Response: e100.resp}, {Response: hitForm(e50.resp)},
		errItems[0], errItems[1], {Response: hitForm(e7.resp)},
	}}))
	rec = serveJSON(h, "/v1/optimize/batch", batch)
	assertBody(t, "batch of hits", rec, http.StatusOK, encodeRef(t, BatchResponse{Results: []BatchItem{
		{Response: hitForm(e7.resp)}, {Response: hitForm(e100.resp)}, {Response: hitForm(e50.resp)},
		errItems[0], errItems[1], {Response: hitForm(e7.resp)},
	}}))

	// Degraded: the predictor is down, so the plan comes from the fallback
	// rate — the default rate's plan — flagged and not cached.
	f.predictorDown.Store(true)
	predictorRec := serveJSON(h, "/v1/optimize", at(200))
	predictorBatch := serveJSON(h, "/v1/optimize/batch", BatchRequest{Requests: []Request{at(205), at(7)}})
	f.predictorDown.Store(false)
	if entryFor(s, at(200)) != nil {
		t.Fatal("degraded plan was cached")
	}
	serveJSON(h, "/v1/optimize", at(200))
	serveJSON(h, "/v1/optimize", at(205))
	degradedForm := func(r *Response) *Response {
		out := *r
		out.Degraded, out.DegradedReason = true, DegradedPredictorFallback
		return &out
	}
	assertBody(t, "degraded", predictorRec, http.StatusOK, encodeRef(t, degradedForm(entryFor(s, at(200)).resp)))
	assertBody(t, "degraded batch", predictorBatch, http.StatusOK, encodeRef(t, BatchResponse{Results: []BatchItem{
		{Response: degradedForm(entryFor(s, at(205)).resp)}, {Response: hitForm(e7.resp)},
	}}))

	// Stale cache: every solve stalls past the deadline, so a new bucket is
	// served the route's freshest cached plan — as a single request, as a
	// stalled batch item whose batch deadline has passed by the time it is
	// answered, and as the coalesced follower of a single request.
	f.delayAll.Store(true)
	staleRec := serveJSON(h, "/v1/optimize", at(400), "300")
	staleItem := serveJSON(h, "/v1/optimize/batch", BatchRequest{Requests: []Request{at(7), at(410)}}, "300")
	leader := make(chan *httptest.ResponseRecorder)
	go func() { leader <- serveJSON(h, "/v1/optimize", at(405), "300") }()
	for key := s.cacheKey(Request{Route: escRouteName, DepartTime: 405, Variant: VariantQueueAware}); ; {
		s.mu.Lock()
		_, inFlight := s.inflight.calls[key]
		s.mu.Unlock()
		if inFlight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	staleBatch := serveJSON(h, "/v1/optimize/batch", BatchRequest{Requests: []Request{at(7), at(405)}})
	staleLeader := <-leader
	f.delayAll.Store(false)
	stale := hitForm(entryFor(s, at(205)).resp)
	stale.Degraded, stale.DegradedReason = true, DegradedStaleCache
	assertBody(t, "stale", staleRec, http.StatusOK, encodeRef(t, stale))
	assertBody(t, "stale leader", staleLeader, http.StatusOK, encodeRef(t, stale))
	assertBody(t, "stale batch item", staleItem, http.StatusOK, encodeRef(t, BatchResponse{Results: []BatchItem{
		{Response: hitForm(e7.resp)}, {Response: stale},
	}}))
	assertBody(t, "stale batch", staleBatch, http.StatusOK, encodeRef(t, BatchResponse{Results: []BatchItem{
		{Response: hitForm(e7.resp)}, {Response: stale},
	}}))
}

// TestEncodedBodiesClusterServedBy: a clustered node's answers carry its
// servedBy on misses and hits alike, single and batch. The node stamps its
// ID once, on the cached response, so its hits take the same memoized path
// as a standalone node's; every body must still be byte-identical to the
// encoding/json form of a per-answer copy of the standalone answer with
// Cached set on hits and servedBy stamped.
func TestEncodedBodiesClusterServedBy(t *testing.T) {
	const self = "n<1>&"
	boot := func(cluster *ClusterConfig) (*Server, http.Handler) {
		s, err := NewServer(ServerConfig{DPTemplate: coarseDP(), SegmentTables: true, Cluster: cluster})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if err := s.RegisterRoute(escRouteName, escRoute(t)); err != nil {
			t.Fatal(err)
		}
		return s, s.Handler()
	}
	s, h := boot(&ClusterConfig{NodeID: self})
	ref, refH := boot(nil)
	stamped := func(r *Response, hit bool) *Response {
		out := *r
		out.Cached = out.Cached || hit
		out.ServedBy = self
		return &out
	}

	req := Request{Route: escRouteName, DepartTime: 3}
	miss := serveJSON(h, "/v1/optimize", req)
	serveJSON(refH, "/v1/optimize", req)
	if got := entryFor(s, req).resp.ServedBy; got != self {
		t.Fatalf("cached response servedBy = %q, want %q stamped at store", got, self)
	}
	plain := entryFor(ref, req).resp
	assertBody(t, "cluster miss", miss, http.StatusOK, encodeRef(t, stamped(plain, false)))
	for _, what := range []string{"cluster first hit", "cluster repeated hit"} {
		assertBody(t, what, serveJSON(h, "/v1/optimize", req), http.StatusOK, encodeRef(t, stamped(plain, true)))
	}
	fresh := Request{Route: escRouteName, DepartTime: 90}
	batch := serveJSON(h, "/v1/optimize/batch", BatchRequest{Requests: []Request{req, fresh}})
	serveJSON(refH, "/v1/optimize", fresh)
	assertBody(t, "cluster batch", batch, http.StatusOK, encodeRef(t, BatchResponse{Results: []BatchItem{
		{Response: stamped(plain, true)}, {Response: stamped(entryFor(ref, fresh).resp, false)},
	}}))
	hitBatch := serveJSON(h, "/v1/optimize/batch", BatchRequest{Requests: []Request{fresh, req}})
	assertBody(t, "cluster hit batch", hitBatch, http.StatusOK, encodeRef(t, BatchResponse{Results: []BatchItem{
		{Response: stamped(entryFor(ref, fresh).resp, true)}, {Response: stamped(plain, true)},
	}}))
}

// TestEncodeFailureAnswered: a value encoding/json rejects is a 500 with
// the usual JSON error from the single writers, and that item's error in
// a batch — never a 200 with an empty body.
func TestEncodeFailureAnswered(t *testing.T) {
	s, err := NewServer(ServerConfig{DPTemplate: coarseDP()})
	if err != nil {
		t.Fatal(err)
	}
	nanErr := map[string]string{"error": "encoding response: json: unsupported value: NaN"}
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, &Response{ChargeAh: math.NaN()})
	assertBody(t, "writeJSON", rec, http.StatusInternalServerError, encodeRef(t, nanErr))

	good := &Response{ChargeAh: 0.25, Profile: []PointJSON{{T: 1, Pos: 2, V: 3}}}
	rec = httptest.NewRecorder()
	s.writeBatch(rec, []BatchItem{{Response: &Response{TripSec: math.Inf(1)}}, {Response: good}}, make([][]byte, 2))
	assertBody(t, "writeBatch", rec, http.StatusOK, encodeRef(t, BatchResponse{Results: []BatchItem{
		{Error: "encoding response: json: unsupported value: +Inf"}, {Response: good},
	}}))

	// Through the handlers: a plan that cannot be encoded is cached like
	// any other, so its miss and its hits must all fail the same way.
	old := optimizeDP
	optimizeDP = func(ctx context.Context, cfg dp.Config) (*dp.Result, error) {
		res, err := old(ctx, cfg)
		if err == nil {
			res.ChargeAh = math.NaN()
		}
		return res, err
	}
	defer func() { optimizeDP = old }()
	h := s.Handler()
	req := Request{Route: "us25", DepartTime: 20}
	for _, what := range []string{"NaN miss", "NaN hit"} {
		assertBody(t, what, serveJSON(h, "/v1/optimize", req), http.StatusInternalServerError, encodeRef(t, nanErr))
	}
	assertBody(t, "NaN batch hit", serveJSON(h, "/v1/optimize/batch", BatchRequest{Requests: []Request{req}}),
		http.StatusOK, encodeRef(t, BatchResponse{Results: []BatchItem{{Error: nanErr["error"]}}}))
}

// TestConcurrentFirstHitsMemoOnce: racing first hits on one cached key all
// answer the same bytes, and the entry's memo is published once — every
// racer returns the one published slice. Part of `make chaos` (-race).
func TestConcurrentFirstHitsMemoOnce(t *testing.T) {
	s, err := NewServer(ServerConfig{DPTemplate: coarseDP(), MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	req := Request{Route: "us25", DepartTime: 30}
	if rec := serveJSON(h, "/v1/optimize", req); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", rec.Code, rec.Body)
	}
	e := entryFor(s, req)
	if e.hit.Load() != nil {
		t.Fatal("memo encoded at store time; it must wait for the first hit")
	}
	const racers = 8
	bodies := make([]string, racers)
	memos := make([][]byte, racers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < racers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			start.Wait()
			bodies[i] = serveJSON(h, "/v1/optimize", req).Body.String()
		}()
		go func() {
			defer wg.Done()
			start.Wait()
			memos[i], _ = e.hitJSON()
		}()
	}
	start.Done()
	wg.Wait()
	want := encodeRef(t, hitForm(e.resp))
	for i := range bodies {
		if bodies[i] != want {
			t.Fatalf("racer %d body differs from the reference", i)
		}
	}
	published := *e.hit.Load()
	for i, m := range memos {
		if len(m) == 0 || &m[0] != &published[0] {
			t.Fatalf("racer %d returned its own encoding, not the one published memo", i)
		}
	}
}

// hitBatch boots a server on cloudd's production grid (zero DPTemplate,
// segment tables on), fills its cache with a 32-item batch over four keys
// and returns a function that serves that batch again through
// Server.Handler, every item a hit: the hot-cache shape.
func hitBatch(b *testing.B) func() *httptest.ResponseRecorder {
	s, err := NewServer(ServerConfig{SegmentTables: true})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	breq := BatchRequest{Requests: make([]Request, 32)}
	for i := range breq.Requests {
		breq.Requests[i] = Request{Route: "us25", DepartTime: float64(10 * (i % 4))}
	}
	body, err := json.Marshal(breq)
	if err != nil {
		b.Fatal(err)
	}
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/optimize/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	serve() // fills the cache: every later item is a hit
	return serve
}

// BenchmarkBatchHit serves the 32-item hot-cache batch: the DP idles, and
// decoding, admission, fan-out and the response encoding are the whole
// server-side cost.
func BenchmarkBatchHit(b *testing.B) {
	serve := hitBatch(b)
	b.SetBytes(int64(serve().Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// BenchmarkClientDecodeBatch decodes the hot-cache batch's response body
// (32 hits, writeBatch's encoding) the way Client.do decodes a 200: one
// json.Decoder over the body into a BatchResponse. It is the client-side
// half of the hot-cache workload, which BenchmarkBatchHit does not see.
func BenchmarkClientDecodeBatch(b *testing.B) {
	body := hitBatch(b)().Body.Bytes()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out BatchResponse
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&out); err != nil {
			b.Fatal(err)
		}
		if len(out.Results) != 32 {
			b.Fatalf("decoded %d items, want 32", len(out.Results))
		}
	}
}
