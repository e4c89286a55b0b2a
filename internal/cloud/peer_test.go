package cloud

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"evvo/internal/cluster"
	"evvo/internal/dp"
	"evvo/internal/road"
)

// TestClusterConfigNormalize: defaults are filled, and every heartbeat
// that time.NewTicker would reject (or that overflows a Duration once
// graded dead) fails validation instead of panicking the heartbeat loop.
func TestClusterConfigNormalize(t *testing.T) {
	peers := map[string]string{"n2": "http://n2", "n3": "http://n3"}
	cases := []struct {
		name          string
		cfg           ClusterConfig
		ok            bool
		wantReplicas  int
		wantHeartbeat float64
	}{
		{"defaults", ClusterConfig{NodeID: "n1", Peers: peers}, true, 2, 0.5},
		{"replicas capped at membership", ClusterConfig{NodeID: "n1", Peers: peers, Replicas: 9}, true, 3, 0.5},
		{"standalone member", ClusterConfig{NodeID: "n1"}, true, 1, 0.5},
		{"explicit heartbeat", ClusterConfig{NodeID: "n1", Peers: peers, HeartbeatSec: 1.0 / 6}, true, 2, 1.0 / 6},
		{"one-nanosecond heartbeat", ClusterConfig{NodeID: "n1", HeartbeatSec: 1e-9}, true, 1, 1e-9},
		{"no node ID", ClusterConfig{Peers: peers}, false, 0, 0},
		{"self among peers", ClusterConfig{NodeID: "n2", Peers: peers}, false, 0, 0},
		{"peer without URL", ClusterConfig{NodeID: "n1", Peers: map[string]string{"n2": ""}}, false, 0, 0},
		{"negative replicas", ClusterConfig{NodeID: "n1", Replicas: -1}, false, 0, 0},
		{"negative heartbeat", ClusterConfig{NodeID: "n1", HeartbeatSec: -0.5}, false, 0, 0},
		{"NaN heartbeat", ClusterConfig{NodeID: "n1", HeartbeatSec: math.NaN()}, false, 0, 0},
		{"+Inf heartbeat", ClusterConfig{NodeID: "n1", HeartbeatSec: math.Inf(1)}, false, 0, 0},
		{"-Inf heartbeat", ClusterConfig{NodeID: "n1", HeartbeatSec: math.Inf(-1)}, false, 0, 0},
		{"heartbeat below a nanosecond", ClusterConfig{NodeID: "n1", HeartbeatSec: 1e-12}, false, 0, 0},
		{"heartbeat beyond a Duration", ClusterConfig{NodeID: "n1", HeartbeatSec: 1e300}, false, 0, 0},
		{"dead grade beyond a Duration", ClusterConfig{NodeID: "n1", HeartbeatSec: 2e9}, false, 0, 0},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		err := cfg.normalize()
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: accepted %+v", tc.name, tc.cfg)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if cfg.Replicas != tc.wantReplicas || cfg.HeartbeatSec != tc.wantHeartbeat {
			t.Errorf("%s: replicas %d heartbeat %g, want %d and %g",
				tc.name, cfg.Replicas, cfg.HeartbeatSec, tc.wantReplicas, tc.wantHeartbeat)
		}
	}
}

// TestClusterFetchCancelledByCallerRecordsNoVerdict: table fetches this node
// cancels itself — here by their own 20 ms deadline, against a peer that
// is slow but healthy — must neither trip the peer's breaker nor count as
// failed fetches, and a cancelled half-open probe must release its slot
// rather than wedge the breaker half-open.
func TestClusterFetchCancelledByCallerRecordsNoVerdict(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		http.Error(w, "too slow", http.StatusServiceUnavailable)
	}))
	defer slow.Close()
	cfg := ClusterConfig{NodeID: "self", Peers: map[string]string{"slow": slow.URL}}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	pg, err := newPeerGroup(cfg, &Faults{})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.close()
	pl := pg.peers["slow"]
	fetch := func() {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := pg.fetchOne(ctx, pl, "us25", dp.Config{}); err == nil {
			t.Fatal("fetch from the stalled peer succeeded")
		}
	}

	for i := 0; i < breakerFails; i++ {
		fetch()
	}
	if st := pl.breaker.State(time.Now()); st != cluster.BreakerClosed || pl.breaker.Opens() != 0 {
		t.Fatalf("self-cancelled fetches left the breaker %v with %d opens, want closed and 0", st, pl.breaker.Opens())
	}
	if n := pg.tableFetchFails.Value(); n != 0 {
		t.Fatalf("self-cancelled fetches counted as %d failed fetches", n)
	}

	// Open the breaker with its cooldown already over: the next fetch is
	// the half-open probe, and this node cancels it.
	past := time.Now().Add(-secToDur(breakerCooldownSec) - time.Second)
	for i := 0; i < breakerFails; i++ {
		pl.breaker.Failure(past)
	}
	fetch()
	if !pl.breaker.Allow(time.Now()) {
		t.Fatal("a cancelled half-open probe kept its slot: every later fetch to the peer fast-fails")
	}
}

// TestClusterFetch404KeepsBreakerClosed: a replica that answers 404 "does
// not own tables" before replication reaches it is reachable, so its
// answers must not open its breaker; each attempt still counts as a failed
// fetch.
func TestClusterFetch404KeepsBreakerClosed(t *testing.T) {
	notYet := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "node replica does not own tables", http.StatusNotFound)
	}))
	defer notYet.Close()
	cfg := ClusterConfig{NodeID: "self", Peers: map[string]string{"replica": notYet.URL}}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	pg, err := newPeerGroup(cfg, &Faults{})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.close()
	pl := pg.peers["replica"]
	for i := 0; i < breakerFails; i++ {
		if _, err := pg.fetchOne(context.Background(), pl, "us25", dp.Config{}); err == nil {
			t.Fatal("fetch from a peer without tables succeeded")
		}
	}
	if st := pl.breaker.State(time.Now()); st != cluster.BreakerClosed || pl.breaker.Opens() != 0 {
		t.Fatalf("%d 404 answers left the breaker %v with %d opens, want closed and 0", breakerFails, st, pl.breaker.Opens())
	}
	if n := pg.tableFetchFails.Value(); n != breakerFails {
		t.Fatalf("%d 404 answers counted as %d failed fetches", breakerFails, n)
	}
}

// TestClusterTablesGetEncodesFirst: a table GET encodes its payload before
// it commits a status, so an export that cannot be encoded is a 500 with a
// JSON error rather than an empty 200 the peer would read as EOF, and a
// good payload goes out with its Content-Length.
func TestClusterTablesGetEncodesFirst(t *testing.T) {
	s, err := NewServer(ServerConfig{DPTemplate: coarseDP(), SegmentTables: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.tableCfg(road.US25())
	rt, err := dp.BuildRouteTables(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/tables/us25", nil))
		return rec
	}

	s.segTables["us25"] = rt
	rec := get()
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("GET: HTTP %d, Content-Length %q for a %d-byte body",
			rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len())
	}
	if _, err := decodeTables(rec.Body, cfg); err != nil {
		t.Fatalf("served payload does not decode: %v", err)
	}

	// Import does not bound the solve count it carries, so these tables
	// export a count wider than the payload's int32 field.
	w := rt.Export()
	w.SegmentSolves = math.MaxInt32 + 1
	bad, err := dp.ImportRouteTables(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	s.segTables["us25"] = bad
	rec = get()
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body["error"] == "" {
		t.Fatalf("unencodable export: HTTP %d, body %q", rec.Code, rec.Body.String())
	}
}

// rawWire gob-encodes arbitrary bytes the way a dp.TablesWire encodes its
// flat layout, so fuzz seeds can damage the payload inside the envelope.
type rawWire []byte

func (r rawWire) MarshalBinary() ([]byte, error) { return r, nil }

// FuzzDecodeTables: decodeTables is the only decoder for a payload a node
// accepts from a peer, so any byte string must yield either an error or
// tables that stitch without panicking. Seeds: a coarse-grid export, the
// same export damaged the ways dp's import-corruption suite damages it,
// truncations, and the flat payload damaged inside its gob envelope.
func FuzzDecodeTables(f *testing.F) {
	s, err := NewServer(ServerConfig{DPTemplate: coarseDP(), SegmentTables: true})
	if err != nil {
		f.Fatal(err)
	}
	cfg := s.tableCfg(road.US25())
	rt, err := dp.BuildRouteTables(context.Background(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	encode := func(w *dp.TablesWire) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := encode(rt.Export())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	for _, mutate := range []func(w *dp.TablesWire){
		func(w *dp.TablesWire) { w.Fingerprint++ },
		func(w *dp.TablesWire) { w.Specs = w.Specs[:1]; w.Entries = w.Entries[:1] },
		func(w *dp.TablesWire) { w.Entries = w.Entries[:1] },
		func(w *dp.TablesWire) { w.Entries[0][0].EntryJ = 10_000 },
		func(w *dp.TablesWire) {
			w.Entries[1][0].EntryJ, w.Entries[1][1].EntryJ = w.Entries[1][1].EntryJ, w.Entries[1][0].EntryJ
		},
		func(w *dp.TablesWire) { w.Entries[0][0].Crossings[0].ExitJ = -5 },
		func(w *dp.TablesWire) { cr := &w.Entries[0][0].Crossings[0]; cr.Path = cr.Path[:1] },
		func(w *dp.TablesWire) { w.Entries[0][0].Crossings[0].DurSec = -1 },
		func(w *dp.TablesWire) { w.Entries[0][0].Crossings[0].DurSec = math.Inf(1) },
		func(w *dp.TablesWire) { w.Entries[0][0].Crossings[0].CostAh = math.Inf(-1) },
		func(w *dp.TablesWire) { w.Entries[0][0].Crossings[0].CostAh = math.NaN() },
		func(w *dp.TablesWire) { w.Entries[0][0].Crossings[0].Path[1] = 60000 },
		func(w *dp.TablesWire) { w.Entries[0][0].Crossings[0].Path[0]++ },
		func(w *dp.TablesWire) { cr := &w.Entries[0][0].Crossings[0]; cr.Path[len(cr.Path)-1]++ },
		func(w *dp.TablesWire) {
			ew := &w.Entries[0][0]
			for n := len(ew.Crossings); n > 0; n-- {
				ew.Crossings = append(ew.Crossings, ew.Crossings[0])
			}
		},
		func(w *dp.TablesWire) { w.Specs[0].EndStage++ },
	} {
		w := rt.Export()
		mutate(w)
		f.Add(encode(w))
	}
	// Byte-level seeds: the flat payload inside the gob envelope, damaged
	// where the codec's framing checks look.
	flat, err := rt.Export().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	for _, damage := range []func(b []byte) []byte{
		func(b []byte) []byte { return b[:len(b)/2] },
		func(b []byte) []byte { return append(b, 0) },
		func(b []byte) []byte { b[0] = 'X'; return b },
		func(b []byte) []byte { b[4]++; return b },
		func(b []byte) []byte { b[5] = 2; return b },
		func(b []byte) []byte { b[21] = 0x7f; return b }, // a spec count near 2³¹
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rawWire(damage(bytes.Clone(flat)))); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := decodeTables(bytes.NewReader(payload), cfg)
		if err != nil {
			return
		}
		res, err := got.StitchCtx(context.Background(), cfg)
		if err != nil {
			return
		}
		if math.IsNaN(res.ChargeAh) || math.IsNaN(res.TripSec) || res.Profile == nil {
			t.Fatalf("imported tables stitched a malformed plan: %.6f Ah, %.3f s", res.ChargeAh, res.TripSec)
		}
	})
}
