package dp

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"
)

// TestWireRoundTripParity: Export → gob → Import under the same config must
// produce tables that stitch the identical plan the original tables do —
// imported replicas are exact, never approximations.
func TestWireRoundTripParity(t *testing.T) {
	cfg := coarseUS25(nil)
	rt := buildTestTables(t, cfg)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rt.Export()); err != nil {
		t.Fatal(err)
	}
	var w TablesWire
	if err := gob.NewDecoder(&buf).Decode(&w); err != nil {
		t.Fatal(err)
	}
	imp, err := ImportRouteTables(cfg, &w)
	if err != nil {
		t.Fatal(err)
	}
	if imp.SegmentSolves() != rt.SegmentSolves() || imp.Crossings() != rt.Crossings() {
		t.Fatalf("imported tables carry %d solves / %d crossings, original %d / %d",
			imp.SegmentSolves(), imp.Crossings(), rt.SegmentSolves(), rt.Crossings())
	}

	want, err := rt.StitchCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := imp.StitchCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Imported crossings are byte-identical to the originals, so the stitch
	// must agree bit-for-bit, not just within tolerance.
	if got.ChargeAh != want.ChargeAh || got.TripSec != want.TripSec || got.Penalized != want.Penalized {
		t.Fatalf("imported stitch diverged: %.9f Ah / %.1f s vs %.9f Ah / %.1f s",
			got.ChargeAh, got.TripSec, want.ChargeAh, want.TripSec)
	}
	if got.Profile.Len() != want.Profile.Len() {
		t.Fatalf("profile lengths differ: %d vs %d", got.Profile.Len(), want.Profile.Len())
	}
}

// TestWireFingerprintPinsGrid: tables exported under one grid or route must
// be refused by an importer whose local config differs in either.
func TestWireFingerprintPinsGrid(t *testing.T) {
	cfg := coarseUS25(nil)
	w := buildTestTables(t, cfg).Export()

	coarser := cfg
	coarser.DsM = 200
	if _, err := ImportRouteTables(coarser, w); err == nil {
		t.Fatal("tables built on a different grid were imported")
	}
	otherRoute := cfg
	otherRoute.Route = openRoad(t)
	if _, err := ImportRouteTables(otherRoute, w); err == nil {
		t.Fatal("tables built on a different route were imported")
	}
}

// TestWireFingerprintGolden pins the fingerprint bytes on the stitch
// golden's grids: nodes of different versions import each other's tables
// only while the digest of an unchanged grid stays the same.
func TestWireFingerprintGolden(t *testing.T) {
	want := []uint64{0xe2bab68164f85150, 0x5158aea53b44e787, 0xee9febf44ae66618, 0x94334c6c0678147a}
	for i, cfg := range stitchGrids() {
		cfg.applyDefaults()
		g, err := buildGrid(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		stages, err := buildStages(cfg, g.n, g.ds, g.jMax)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintTables(&cfg, g, stages); got != want[i] {
			t.Fatalf("grid %d: fingerprint %#016x, want %#016x", i, got, want[i])
		}
	}
}

// TestWireImportRejectsCorruption: structurally damaged payloads with a
// valid fingerprint must still be refused.
func TestWireImportRejectsCorruption(t *testing.T) {
	cfg := coarseUS25(nil)
	rt := buildTestTables(t, cfg)

	corrupt := func(name string, mutate func(w *TablesWire)) {
		t.Helper()
		w := rt.Export()
		mutate(w)
		if _, err := ImportRouteTables(cfg, w); err == nil {
			t.Fatalf("%s: corrupted wire accepted", name)
		}
	}
	corrupt("truncated segments", func(w *TablesWire) { w.Specs = w.Specs[:1]; w.Entries = w.Entries[:1] })
	corrupt("entry/spec mismatch", func(w *TablesWire) { w.Entries = w.Entries[:1] })
	corrupt("entry out of band", func(w *TablesWire) { w.Entries[0][0].EntryJ = 10_000 })
	// Segment 0 enters at the forced-zero start stage (one entry table), so
	// the ordering mutation uses segment 1, whose entry band is wide.
	corrupt("entries out of order", func(w *TablesWire) {
		w.Entries[1][0].EntryJ, w.Entries[1][1].EntryJ = w.Entries[1][1].EntryJ, w.Entries[1][0].EntryJ
	})
	corrupt("exit out of band", func(w *TablesWire) { w.Entries[0][0].Crossings[0].ExitJ = -5 })
	corrupt("truncated path", func(w *TablesWire) {
		cr := &w.Entries[0][0].Crossings[0]
		cr.Path = cr.Path[:1]
	})
	corrupt("negative duration", func(w *TablesWire) { w.Entries[0][0].Crossings[0].DurSec = -1 })
	corrupt("infinite duration", func(w *TablesWire) { w.Entries[0][0].Crossings[0].DurSec = math.Inf(1) })
	corrupt("-Inf cost", func(w *TablesWire) { w.Entries[0][0].Crossings[0].CostAh = math.Inf(-1) })
	corrupt("NaN cost", func(w *TablesWire) { w.Entries[0][0].Crossings[0].CostAh = math.NaN() })
	corrupt("path speed out of band", func(w *TablesWire) {
		for _, ets := range w.Entries {
			for _, ew := range ets {
				for _, cw := range ew.Crossings {
					cw.Path[1] = 60000
				}
			}
		}
	})
	corrupt("path leaves from another entry", func(w *TablesWire) { w.Entries[0][0].Crossings[0].Path[0]++ })
	corrupt("path ends at another exit", func(w *TablesWire) {
		cr := &w.Entries[0][0].Crossings[0]
		cr.Path[len(cr.Path)-1]++
	})
	// Valid crossings repeated past what the exit band can hold: only the
	// count bound can refuse this payload, before the flat arrays are sized.
	exit := rt.stages[rt.specs[0].EndStage]
	limit := (exit.maxJ - exit.minJ + 1) * (rt.grid.kMax + 1)
	corrupt("crossing count beyond exit band", func(w *TablesWire) {
		ew := &w.Entries[0][0]
		for len(ew.Crossings) <= limit {
			ew.Crossings = append(ew.Crossings, ew.Crossings[0])
		}
	})
	corrupt("shifted spec stages", func(w *TablesWire) { w.Specs[0].EndStage++ })
	if _, err := ImportRouteTables(cfg, nil); err == nil {
		t.Fatal("nil wire accepted")
	}
}

// sameWire fails t unless got equals want field for field, floats by their
// bits (so a NaN cost matches itself) and nil slices only with nil.
func sameWire(t *testing.T, name string, got, want *TablesWire) {
	t.Helper()
	bitsEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.Fingerprint != want.Fingerprint || got.SegmentSolves != want.SegmentSolves ||
		!slices.EqualFunc(got.Specs, want.Specs, func(a, b SegmentSpec) bool {
			return a.StartStage == b.StartStage && a.EndStage == b.EndStage && a.BoundaryName == b.BoundaryName &&
				bitsEq(a.StartM, b.StartM) && bitsEq(a.EndM, b.EndM)
		}) || len(got.Entries) != len(want.Entries) {
		t.Fatalf("%s: header or specs differ after the round trip", name)
	}
	for s := range want.Entries {
		if len(got.Entries[s]) != len(want.Entries[s]) {
			t.Fatalf("%s: segment %d carries %d entries, want %d", name, s, len(got.Entries[s]), len(want.Entries[s]))
		}
		for e, we := range want.Entries[s] {
			ge := got.Entries[s][e]
			if ge.EntryJ != we.EntryJ || len(ge.Crossings) != len(we.Crossings) || (ge.Crossings == nil) != (we.Crossings == nil) {
				t.Fatalf("%s: segment %d entry %d differs", name, s, e)
			}
			for c, wc := range we.Crossings {
				gc := ge.Crossings[c]
				if gc.ExitJ != wc.ExitJ || !bitsEq(gc.DurSec, wc.DurSec) || !bitsEq(gc.CostAh, wc.CostAh) ||
					!slices.Equal(gc.Path, wc.Path) || (gc.Path == nil) != (wc.Path == nil) {
					t.Fatalf("%s: segment %d entry %d crossing %d differs: %+v, want %+v", name, s, e, c, gc, wc)
				}
			}
		}
	}
}

func roundTrip(t *testing.T, name string, w *TablesWire) []byte {
	t.Helper()
	b, err := w.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var got TablesWire
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sameWire(t, name, &got, w)
	return b
}

// TestWireBinaryRoundTrip: the flat codec is total — every export, and
// every structurally corrupted export the import must refuse, decodes to
// the value that was encoded, so ImportRouteTables stays the only judge of
// a payload's meaning. The mutations mirror TestWireImportRejectsCorruption.
func TestWireBinaryRoundTrip(t *testing.T) {
	for i, cfg := range stitchGrids() {
		roundTrip(t, fmt.Sprintf("grid %d", i), buildTestTables(t, cfg).Export())
	}

	rt := buildTestTables(t, coarseUS25(nil))
	exit := rt.stages[rt.specs[0].EndStage]
	limit := (exit.maxJ - exit.minJ + 1) * (rt.grid.kMax + 1)
	for _, m := range []struct {
		name   string
		mutate func(w *TablesWire)
	}{
		{"truncated segments", func(w *TablesWire) { w.Specs = w.Specs[:1]; w.Entries = w.Entries[:1] }},
		{"entry/spec mismatch", func(w *TablesWire) { w.Entries = w.Entries[:1] }},
		{"entry out of band", func(w *TablesWire) { w.Entries[0][0].EntryJ = 10_000 }},
		{"entries out of order", func(w *TablesWire) {
			w.Entries[1][0].EntryJ, w.Entries[1][1].EntryJ = w.Entries[1][1].EntryJ, w.Entries[1][0].EntryJ
		}},
		{"exit out of band", func(w *TablesWire) { w.Entries[0][0].Crossings[0].ExitJ = -5 }},
		{"truncated path", func(w *TablesWire) { cr := &w.Entries[0][0].Crossings[0]; cr.Path = cr.Path[:1] }},
		{"negative duration", func(w *TablesWire) { w.Entries[0][0].Crossings[0].DurSec = -1 }},
		{"infinite duration", func(w *TablesWire) { w.Entries[0][0].Crossings[0].DurSec = math.Inf(1) }},
		{"-Inf cost", func(w *TablesWire) { w.Entries[0][0].Crossings[0].CostAh = math.Inf(-1) }},
		{"NaN cost", func(w *TablesWire) { w.Entries[0][0].Crossings[0].CostAh = math.NaN() }},
		{"path speed out of band", func(w *TablesWire) {
			for _, ets := range w.Entries {
				for _, ew := range ets {
					for _, cw := range ew.Crossings {
						cw.Path[1] = 60000
					}
				}
			}
		}},
		{"path leaves from another entry", func(w *TablesWire) { w.Entries[0][0].Crossings[0].Path[0]++ }},
		{"path ends at another exit", func(w *TablesWire) { cr := &w.Entries[0][0].Crossings[0]; cr.Path[len(cr.Path)-1]++ }},
		{"crossing count beyond exit band", func(w *TablesWire) {
			ew := &w.Entries[0][0]
			for len(ew.Crossings) <= limit {
				ew.Crossings = append(ew.Crossings, ew.Crossings[0])
			}
		}},
		{"shifted spec stages", func(w *TablesWire) { w.Specs[0].EndStage++ }},
	} {
		w := rt.Export()
		m.mutate(w)
		roundTrip(t, m.name, w)
	}
}

// smallWire is a hand-sized payload for byte-level tests: two segments,
// one entry table with no crossings, and ragged paths. wide adds a path
// index past 255 as the last index of the slab, forcing 2-byte paths.
func smallWire(wide bool) *TablesWire {
	w := &TablesWire{
		Fingerprint: 0x0123456789abcdef, SegmentSolves: 3,
		Specs: []SegmentSpec{{0, 2, 0, 200, "light-1"}, {2, 4, 200, 400, ""}},
		Entries: [][]EntryWire{
			{{EntryJ: 0, Crossings: []CrossingWire{{ExitJ: 5, DurSec: 20, CostAh: 0.01, Path: []uint16{0, 3, 5}}}}},
			{{EntryJ: 3, Crossings: []CrossingWire{}}, {EntryJ: 4, Crossings: []CrossingWire{
				{ExitJ: 6, DurSec: 19.5, CostAh: 0.02, Path: []uint16{4, 5, 6}},
				{ExitJ: 7, DurSec: 18, CostAh: -0.5, Path: []uint16{4, 7}},
			}}},
		},
	}
	if wide {
		p := w.Entries[1][1].Crossings[1].Path
		p[len(p)-1] = 300
	}
	return w
}

// heapDelta reports the bytes f allocated on the heap.
func heapDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWireUnmarshalRejects: UnmarshalBinary refuses every payload it did
// not frame — wrong magic, version or width, a cut at any byte, trailing
// bytes, a wide payload MarshalBinary would have written narrow — and a
// forged count fails before it is allocated.
func TestWireUnmarshalRejects(t *testing.T) {
	reject := func(name string, b []byte) {
		t.Helper()
		var w TablesWire
		if err := w.UnmarshalBinary(b); err == nil {
			t.Fatalf("%s: payload accepted", name)
		}
	}
	for _, wide := range []bool{false, true} {
		valid := roundTrip(t, "small", smallWire(wide))
		if wide != (valid[5] == 2) {
			t.Fatalf("wide=%v: payload path width %d", wide, valid[5])
		}
		// Every cut, so every field boundary.
		for n := range valid {
			reject(fmt.Sprintf("wide=%v cut at %d", wide, n), valid[:n])
		}
		reject("trailing byte", append(slices.Clone(valid), 0))
		for _, c := range []struct {
			name string
			at   int
			to   byte
		}{{"bad magic", 0, 'X'}, {"unknown version", 4, wireVersion + 1}, {"width 0", 5, 0}, {"width 3", 5, 3}} {
			b := slices.Clone(valid)
			b[c.at] = c.to
			reject(c.name, b)
		}
	}
	// The wide payload's only index past 255 is its last: bring it under
	// 256 and the 2-byte layout is no longer the one MarshalBinary picks.
	narrowed := roundTrip(t, "small", smallWire(true))
	narrowed[len(narrowed)-1] = 0
	reject("2-byte paths that fit in 1", narrowed)

	// A 40-byte payload: header, one entry set holding one entry table
	// that claims 2³¹ crossings, then two bytes.
	forged := append([]byte(wireMagic), wireVersion, 1)
	forged = binary.LittleEndian.AppendUint64(forged, 1)
	for _, v := range []uint32{0, 0, 1, 1, 7, 1 << 31} { // solves, specs, sets, entries, entry j, crossings
		forged = binary.LittleEndian.AppendUint32(forged, v)
	}
	forged = append(forged, 0, 0)
	if len(forged) != 40 {
		t.Fatalf("forged payload is %d bytes", len(forged))
	}
	var err error
	if n := heapDelta(func() { err = new(TablesWire).UnmarshalBinary(forged) }); err == nil || n > 1<<16 {
		t.Fatalf("2³¹ claimed crossings: err %v after allocating %d bytes", err, n)
	}
}

// TestWirePayloadGolden pins the flat payload of the production US-25
// tables byte for byte: a layout change must bump wireVersion (and this
// digest), or nodes of different versions would misread each other.
func TestWirePayloadGolden(t *testing.T) {
	const want = 0x7f4d60dd1ab365bc
	b, err := buildTestTables(t, stitchGrids()[0]).Export().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	_, _ = h.Write(b)
	if got := h.Sum64(); got != want || b[4] != wireVersion {
		t.Fatalf("payload (%d bytes, version %d) digest %#016x, want %#016x", len(b), b[4], got, uint64(want))
	}
}

// FuzzTablesWire: any byte string either fails to decode or decodes to a
// value that re-encodes to the same bytes, without panicking and without
// allocating more than a small multiple of its length.
func FuzzTablesWire(f *testing.F) {
	for _, wide := range []bool{false, true} {
		b, err := smallWire(wide).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	rt, err := BuildRouteTables(context.Background(), coarseUS25(nil))
	if err != nil {
		f.Fatal(err)
	}
	b, err := rt.Export().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte(wireMagic))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var w TablesWire
		var err error
		if n := heapDelta(func() { err = w.UnmarshalBinary(payload) }); n > 8*uint64(len(payload))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), n)
		}
		if err != nil {
			return
		}
		again, err := w.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("decoded %d bytes re-encode to %d different bytes", len(payload), len(again))
		}
	})
}

// BenchmarkTablesWire times both ends of a table exchange on the
// production US-25 grid the way a cluster runs them: Export and gob
// encode on the sender, gob decode and ImportRouteTables on the receiver.
func BenchmarkTablesWire(b *testing.B) {
	cfg := stitchGrids()[0]
	rt, err := BuildRouteTables(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(rt.Export()); err != nil {
		b.Fatal(err)
	}
	b.Run("export+gob", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(payload.Len())/1000, "payload-KB")
		for n := 0; n < b.N; n++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(rt.Export()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gob+import", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			var w TablesWire
			if err := gob.NewDecoder(bytes.NewReader(payload.Bytes())).Decode(&w); err != nil {
				b.Fatal(err)
			}
			if _, err := ImportRouteTables(cfg, &w); err != nil {
				b.Fatal(err)
			}
		}
	})
}
