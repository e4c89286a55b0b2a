package cloud

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

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
// is slow but healthy — say nothing about the peer, so they must not count
// as failed fetches.
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

	for i := 0; i < 3; i++ {
		fetch()
	}
	if n := pg.tableFetchFails.Value(); n != 0 {
		t.Fatalf("self-cancelled fetches counted as %d failed fetches", n)
	}
}

// TestClusterFetch404CountsOneFailure: a replica that answers 404 "does
// not own tables" before replication reaches it did not deliver, so each
// such answer counts as exactly one failed fetch.
func TestClusterFetch404CountsOneFailure(t *testing.T) {
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
	for i := int64(1); i <= 3; i++ {
		if _, err := pg.fetchOne(context.Background(), pl, "us25", dp.Config{}); err == nil {
			t.Fatal("fetch from a peer without tables succeeded")
		}
		if n := pg.tableFetchFails.Value(); n != i {
			t.Fatalf("%d 404 answers counted as %d failed fetches", i, n)
		}
	}
}

// TestClusterTablesGetEncodesFirst: a table GET encodes its payload before
// it commits a status, so a good payload goes out with its Content-Length
// (and an encoding error would be a 500 with a JSON error rather than an
// empty 200 the peer would read as EOF).
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
}

// rawWire gob-encodes arbitrary bytes the way a dp.TablesWire encodes its
// flat layout, so fuzz seeds can damage the payload inside the envelope.
type rawWire []byte

func (r rawWire) MarshalBinary() ([]byte, error) { return r, nil }

// FuzzDecodeTables: decodeTables is the only decoder for a payload a node
// accepts from a peer, so any byte string must yield either an error or
// tables that stitch without panicking. Seeds: the export of a 100 m route
// with one signal on dp's tiny fuzz grid (Δs 50 m, Δv 2 m/s, Δt 2 s), so
// one exec decodes, imports and stitches a frame of a few hundred bytes;
// truncations; and the flat payload damaged inside its gob envelope, first
// where the import's framing checks look, then one field of each kind
// (dp's FuzzTablesWire carries the same damage as column mutations). Every
// seed but the export must be refused.
func FuzzDecodeTables(f *testing.F) {
	s, err := NewServer(ServerConfig{
		DPTemplate:    dp.Config{DsM: 50, DvMS: 2, DtSec: 2, MaxTripSec: 60},
		SegmentTables: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	route, err := road.NewRoute(road.RouteConfig{LengthM: 100, DefaultMaxMS: 10,
		Controls: []road.Control{{Kind: road.ControlSignal, PositionM: 50, Name: "l",
			Timing: road.SignalTiming{RedSec: 30, GreenSec: 30}}}})
	if err != nil {
		f.Fatal(err)
	}
	cfg := s.tableCfg(route)
	rt, err := dp.BuildRouteTables(context.Background(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rt.Export()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	refused := func(payload []byte) {
		f.Helper()
		if _, err := decodeTables(bytes.NewReader(payload), cfg); err == nil {
			f.Fatalf("a damaged seed of %d bytes imported", len(payload))
		}
		f.Add(payload)
	}
	refused(buf.Bytes()[:buf.Len()/2])
	refused([]byte{})
	flat, err := rt.Export().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	// Offsets into the layout (DESIGN.md §13): the first entry set starts
	// past the 26-byte header and every spec; its first entry table's
	// columns (exits, durations, costs, path lengths, then the path slab)
	// start 12 bytes in.
	le := binary.LittleEndian
	set := 26
	for range le.Uint32(flat[18:]) {
		set += 28 + int(le.Uint32(flat[set+24:]))
	}
	n, cols := int(le.Uint32(flat[set+8:])), set+12
	bump := func(at int) func(b []byte) []byte { return func(b []byte) []byte { b[at]++; return b } }
	for _, damage := range []func(b []byte) []byte{
		func(b []byte) []byte { return b[:len(b)/2] },
		func(b []byte) []byte { return append(b, 0) },
		func(b []byte) []byte { b[0] = 'X'; return b },
		func(b []byte) []byte { b[4]++; return b },
		func(b []byte) []byte { b[5] = 2; return b },
		func(b []byte) []byte { b[21] = 0x7f; return b }, // a spec count near 2³¹
		bump(6),  // fingerprint
		bump(14), // segment solves
		bump(22), // entry-set count
		bump(26), // spec 0 start stage
		bump(30), // spec 0 end stage
		func(b []byte) []byte { b[34+7] ^= 0x80; return b }, // spec 0 starts at -0 m
		bump(42),      // spec 0 end m
		bump(50),      // spec 0 name length
		bump(54),      // spec 0 name
		bump(set),     // entry count
		bump(set + 4), // entry velocity
		bump(set + 8), // crossing count
		bump(cols),    // exit velocity
		func(b []byte) []byte { b[cols+4*n+7] |= 0x80; return b },                       // negative duration
		func(b []byte) []byte { b[cols+12*n+6], b[cols+12*n+7] = 0xff, 0x7f; return b }, // NaN cost
		bump(cols + 20*n), // path length
		bump(cols + 24*n), // path index
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rawWire(damage(bytes.Clone(flat)))); err != nil {
			f.Fatal(err)
		}
		refused(buf.Bytes())
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
