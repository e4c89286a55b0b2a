package dp

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/metrics"
	"slices"
	"testing"

	"evvo/internal/ev"
	"evvo/internal/road"
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
	if !bytes.Equal(imp.Export().flat, w.flat) {
		t.Fatal("imported tables re-export to different bytes")
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

// tinyGrid is a two-segment route (a signal halfway) on a grid small
// enough that a whole import, grid rebuild included, takes microseconds:
// the framing test and FuzzTablesWire import thousands of payloads. wide
// sets Δv so fine, with a speed floor keeping each band narrow, that
// velocity indices pass 255 and paths travel two bytes per index.
func tinyGrid(t testing.TB, wide bool) Config {
	t.Helper()
	rc := road.RouteConfig{LengthM: 100, DefaultMaxMS: 10}
	cfg := Config{Vehicle: ev.SparkEV(), DsM: 50, DvMS: 2, DtSec: 2, MaxTripSec: 60}
	if wide {
		rc.LengthM, rc.DefaultMinMS, cfg.DvMS = 200, 9.85, 0.03
	}
	rc.Controls = []road.Control{{Kind: road.ControlSignal, PositionM: rc.LengthM / 2,
		Timing: road.SignalTiming{RedSec: 30, GreenSec: 30}, Name: "l"}}
	r, err := road.NewRoute(rc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Route = r
	return cfg
}

// cloneTables deep-copies rt's specs and entry-table columns, so a test
// can damage the copy and Export tables no build would write.
func cloneTables(rt *RouteTables) *RouteTables {
	c := *rt
	c.specs = slices.Clone(rt.specs)
	c.entries = make([][]entryTable, len(rt.entries))
	for s, ets := range rt.entries {
		c.entries[s] = make([]entryTable, len(ets))
		for e, et := range ets {
			et.exitJ, et.durSec, et.costAh = slices.Clone(et.exitJ), slices.Clone(et.durSec), slices.Clone(et.costAh)
			et.paths = slices.Clone(et.paths)
			c.entries[s][e] = et
		}
	}
	return &c
}

// specsLen is the byte length of rt's header and specs in the flat
// layout: the offset of its first entry set.
func specsLen(rt *RouteTables) int {
	n := wireHeaderLen
	for _, sp := range rt.specs {
		n += wireSpecMin + len(sp.BoundaryName)
	}
	return n
}

// damaged is a flat payload the import must refuse.
type damaged struct {
	name    string
	payload []byte
}

// corruptPayloads damages rt's payload every way ImportRouteTables must
// refuse: the specs or entry-table columns of a deep copy mutated and then
// Exported, and the fields no column holds (the fingerprint, the solve
// count and a path length) patched in the bytes. Segment 0 enters at the
// forced-zero source (one entry table), so the mutations of the entry
// order use segment 1, whose entry band is wide.
func corruptPayloads(rt *RouteTables) []damaged {
	var out []damaged
	mutate := func(name string, f func(c *RouteTables)) {
		c := cloneTables(rt)
		f(c)
		out = append(out, damaged{name, c.Export().flat})
	}
	patch := func(name string, f func(b []byte)) {
		b := rt.Export().flat
		f(b)
		out = append(out, damaged{name, b})
	}
	stride := func(c *RouteTables, s int) int { return c.specs[s].EndStage - c.specs[s].StartStage + 1 }

	mutate("truncated segments", func(c *RouteTables) { c.specs, c.entries = c.specs[:1], c.entries[:1] })
	mutate("entry/spec mismatch", func(c *RouteTables) { c.entries = c.entries[:1] })
	mutate("entry out of band", func(c *RouteTables) { c.entries[0][0].entryJ = 10_000 })
	mutate("entries out of order", func(c *RouteTables) {
		ets := c.entries[1]
		ets[0].entryJ, ets[1].entryJ = ets[1].entryJ, ets[0].entryJ
	})
	mutate("missing entry table", func(c *RouteTables) { c.entries[1] = c.entries[1][:len(c.entries[1])-1] })
	mutate("exit out of band", func(c *RouteTables) { c.entries[0][0].exitJ[0] = -5 })
	mutate("negative duration", func(c *RouteTables) { c.entries[0][0].durSec[0] = -1 })
	mutate("infinite duration", func(c *RouteTables) { c.entries[0][0].durSec[0] = math.Inf(1) })
	mutate("-Inf cost", func(c *RouteTables) { c.entries[0][0].costAh[0] = math.Inf(-1) })
	mutate("NaN cost", func(c *RouteTables) { c.entries[0][0].costAh[0] = math.NaN() })
	mutate("path speed out of band", func(c *RouteTables) {
		for s, ets := range c.entries {
			for _, et := range ets {
				for i := 1; i < len(et.paths); i += stride(c, s) {
					et.paths[i] = 60000
				}
			}
		}
	})
	mutate("path leaves from another entry", func(c *RouteTables) { c.entries[0][0].paths[0]++ })
	mutate("path ends at another exit", func(c *RouteTables) { c.entries[0][0].paths[stride(c, 0)-1]++ })
	// Valid crossings repeated past what the exit band can hold: only the
	// count bound can refuse this payload, before the columns are sized.
	mutate("crossing count beyond exit band", func(c *RouteTables) {
		exit := c.stages[c.specs[0].EndStage]
		et := &c.entries[0][0]
		for len(et.exitJ) <= (exit.maxJ-exit.minJ+1)*(c.grid.kMax+1) {
			et.exitJ, et.durSec, et.costAh = append(et.exitJ, et.exitJ[0]), append(et.durSec, et.durSec[0]), append(et.costAh, et.costAh[0])
			et.paths = append(et.paths, et.paths[:stride(c, 0)]...)
		}
	})
	mutate("shifted spec stages", func(c *RouteTables) { c.specs[0].EndStage++ })
	mutate("renamed boundary", func(c *RouteTables) { c.specs[0].BoundaryName += "'" })
	mutate("moved boundary", func(c *RouteTables) { c.specs[0].EndM++ })
	le := binary.LittleEndian
	patch("fingerprint", func(b []byte) { b[6]++ })
	patch("solve count", func(b []byte) { le.PutUint32(b[14:], uint32(rt.SegmentSolves()+1)) })
	// Crossing 0 of segment 0's first entry table claims a one-stage path.
	at := specsLen(rt) + wireEntrySetMin + wireEntryMin + len(rt.entries[0][0].exitJ)*(4+8+8)
	patch("truncated path", func(b []byte) { le.PutUint32(b[at:], 1) })
	return out
}

// TestWireImportRejectsCorruption: damaged payloads are refused, those
// with a valid fingerprint included.
func TestWireImportRejectsCorruption(t *testing.T) {
	cfg := coarseUS25(nil)
	rt := buildTestTables(t, cfg)
	for _, d := range corruptPayloads(rt) {
		if _, err := ImportRouteTables(cfg, &TablesWire{flat: d.payload}); err == nil {
			t.Fatalf("%s: corrupted payload accepted", d.name)
		}
	}
	if _, err := ImportRouteTables(cfg, nil); err == nil {
		t.Fatal("nil wire accepted")
	}
	if _, err := ImportRouteTables(cfg, &TablesWire{}); err == nil {
		t.Fatal("empty wire accepted")
	}
}

// heapDelta reports the bytes f allocated on the heap, from the runtime's
// cumulative allocation counter. Read through runtime/metrics it does not
// stop the world, as runtime.ReadMemStats does, which would cost more than
// the tiny-grid import it brackets. The counter takes a large allocation
// (over 32 KB) the moment it is made, and small ones when their span
// leaves its P's cache. A GC cycle flushes every cache at once, so a
// reading across one can count small objects allocated before f: f runs
// again (it must be repeatable) while a GC cycle ends during it, at most
// three times.
func heapDelta(f func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	var n uint64
	for try := 0; try < 3; try++ {
		metrics.Read(s)
		allocs, cycles := s[0].Value.Uint64(), s[1].Value.Uint64()
		f()
		metrics.Read(s)
		if n = s[0].Value.Uint64() - allocs; s[1].Value.Uint64() == cycles {
			break
		}
	}
	return n
}

// TestWireImportRejectsFraming: ImportRouteTables refuses every payload
// Export did not write — wrong magic, version or width, a cut at any
// byte, trailing bytes, a wide payload Export would have written narrow —
// and a forged count fails before it is allocated. Both path widths
// import and re-export to the same bytes.
func TestWireImportRejectsFraming(t *testing.T) {
	reject := func(name string, cfg Config, b []byte) {
		t.Helper()
		if _, err := ImportRouteTables(cfg, &TablesWire{flat: b}); err == nil {
			t.Fatalf("%s: payload accepted", name)
		}
	}
	for _, wide := range []bool{false, true} {
		cfg := tinyGrid(t, wide)
		valid := buildTestTables(t, cfg).Export().flat
		if wide != (valid[5] == 2) {
			t.Fatalf("wide=%v: payload path width %d", wide, valid[5])
		}
		rt, err := ImportRouteTables(cfg, &TablesWire{flat: valid})
		if err != nil {
			t.Fatalf("wide=%v: %v", wide, err)
		}
		if !bytes.Equal(rt.Export().flat, valid) {
			t.Fatalf("wide=%v: imported tables re-export to different bytes", wide)
		}
		// Every cut, so every field boundary.
		for n := range valid {
			reject(fmt.Sprintf("wide=%v cut at %d", wide, n), cfg, valid[:n])
		}
		reject("trailing byte", cfg, append(slices.Clone(valid), 0))
		for _, c := range []struct {
			name string
			at   int
			to   byte
		}{{"bad magic", 0, 'X'}, {"unknown version", 4, wireVersion + 1}, {"width 0", 5, 0}, {"width 3", 5, 3}} {
			b := slices.Clone(valid)
			b[c.at] = c.to
			reject(c.name, cfg, b)
		}
	}

	cfg := tinyGrid(t, false)
	rt := buildTestTables(t, cfg)
	reject("2-byte paths that fit in 1", cfg, rt.appendFlat(nil, 2))

	// Segment 0's first entry table claims 2³¹ crossings, and the payload
	// ends two bytes later.
	at := specsLen(rt) + wireEntrySetMin + 4
	forged := rt.Export().flat[:at+4+2]
	binary.LittleEndian.PutUint32(forged[at:], 1<<31)
	var err error
	if n := heapDelta(func() { _, err = ImportRouteTables(cfg, &TablesWire{flat: forged}) }); err == nil || n > 1<<16 {
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

// FuzzTablesWire: any byte string either fails to import or imports to
// tables whose Export is the same bytes, without panicking and without
// allocating more than a small multiple of its length. It imports under
// tinyGrid, so one import costs microseconds; the seeds are its export,
// that export cut, widened and damaged every way corruptPayloads damages
// it, and the bare magic.
func FuzzTablesWire(f *testing.F) {
	cfg := tinyGrid(f, false)
	rt, err := BuildRouteTables(context.Background(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	valid := rt.Export().flat
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(rt.appendFlat(nil, 2))
	f.Add([]byte(wireMagic))
	f.Add([]byte{})
	for _, d := range corruptPayloads(rt) {
		f.Add(d.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var imp *RouteTables
		var err error
		if n := heapDelta(func() { imp, err = ImportRouteTables(cfg, &TablesWire{flat: payload}) }); n > 8*uint64(len(payload))+1<<16 {
			t.Fatalf("importing %d bytes allocated %d", len(payload), n)
		}
		if err != nil {
			return
		}
		if again := imp.Export().flat; !bytes.Equal(again, payload) {
			t.Fatalf("imported %d bytes re-export to %d different bytes", len(payload), len(again))
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
