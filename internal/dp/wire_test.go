package dp

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
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
