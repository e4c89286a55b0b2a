// Cross-node exchange format for segment tables (DESIGN.md §13).
//
// A cluster of cloudd nodes shards segment-table ownership by route key:
// the owner builds the tables once and its peers fetch or receive replicas
// instead of re-running the per-segment DP solves. Only the *solved*
// artifact travels — the crossings. Everything derivable from the config
// (grid, stages, bands) is rebuilt locally in microseconds by the
// importer, which keeps the wire format small and, more importantly, makes
// the import verifiable: the receiver recomputes the grid fingerprint from
// its own route registration and config and refuses tables built on
// different physics, so a misconfigured peer can never poison the cache
// with tables that stitch incorrect plans.
package dp

import (
	"fmt"
	"hash/fnv"
	"math"
)

// TablesWire is the serializable form of RouteTables. All fields are
// exported and free of function values and pointers so encoding/gob and
// encoding/json both handle it.
type TablesWire struct {
	// Fingerprint identifies the grid the tables were built on: the
	// grid-defining config fields plus the discretized route the solver
	// actually consumed (per-stage bands, signals, dwells, grades). Import
	// recomputes it locally and rejects mismatches.
	Fingerprint uint64
	Specs       []SegmentSpec
	Entries     [][]EntryWire
	// SegmentSolves is the build cost the owner paid, carried along so an
	// importing node's reuse accounting can report it.
	SegmentSolves int
}

// EntryWire is the wire form of one entry table.
type EntryWire struct {
	EntryJ    int
	Crossings []CrossingWire
}

// CrossingWire is the wire form of one crossing of an entry table.
type CrossingWire struct {
	ExitJ  int
	DurSec float64
	CostAh float64
	Path   []uint16
}

// Export converts the tables to their wire form. The crossing paths are
// copied (one copy per entry table, sub-sliced per crossing), so the wire
// value stays valid however long the caller holds it.
func (rt *RouteTables) Export() *TablesWire {
	w := &TablesWire{
		Fingerprint:   fingerprintTables(&rt.cfg, rt.grid, rt.stages),
		Specs:         rt.Segments(),
		SegmentSolves: rt.segmentSolves,
	}
	w.Entries = make([][]EntryWire, len(rt.entries))
	for s, ets := range rt.entries {
		stride := rt.specs[s].EndStage - rt.specs[s].StartStage + 1
		w.Entries[s] = make([]EntryWire, len(ets))
		for e := range ets {
			et := &ets[e]
			paths := append([]uint16(nil), et.paths...)
			ew := EntryWire{EntryJ: et.entryJ, Crossings: make([]CrossingWire, len(et.exitJ))}
			for c := range ew.Crossings {
				ew.Crossings[c] = CrossingWire{
					ExitJ: int(et.exitJ[c]), DurSec: et.durSec[c], CostAh: et.costAh[c],
					Path: paths[c*stride : (c+1)*stride : (c+1)*stride],
				}
			}
			w.Entries[s][e] = ew
		}
	}
	return w
}

// ImportRouteTables reconstructs servable RouteTables from their wire form
// under the local cfg (the receiver's registered route and DP template).
// The grid and stages are rebuilt locally; the wire supplies only the
// solved crossings. The import is rejected when the fingerprints disagree
// (different route geometry, vehicle, or grid) or when the payload is
// structurally inconsistent with the local grid — a truncated or corrupted
// replica must never become a serving table.
func ImportRouteTables(cfg Config, w *TablesWire) (*RouteTables, error) {
	if w == nil {
		return nil, fmt.Errorf("dp: nil table wire")
	}
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g, err := buildGrid(&cfg)
	if err != nil {
		return nil, err
	}
	stages, err := buildStages(cfg, g.n, g.ds, g.jMax)
	if err != nil {
		return nil, err
	}
	if local := fingerprintTables(&cfg, g, stages); local != w.Fingerprint {
		return nil, fmt.Errorf("dp: imported tables were built on a different grid (fingerprint %016x, local %016x)",
			w.Fingerprint, local)
	}

	// The fingerprint pins the physics; the checks below pin the payload's
	// structure against the locally rebuilt segmentation.
	bounds := segmentBounds(stages)
	if len(w.Specs) != len(bounds)-1 || len(w.Entries) != len(w.Specs) {
		return nil, fmt.Errorf("dp: imported tables carry %d segments (%d entry sets), local route splits into %d",
			len(w.Specs), len(w.Entries), len(bounds)-1)
	}
	rt := &RouteTables{cfg: cfg, key: gridKeyOf(&cfg), stages: stages, grid: g,
		segmentSolves: w.SegmentSolves}
	for s := range w.Specs {
		a, b := bounds[s], bounds[s+1]
		spec := w.Specs[s]
		if spec.StartStage != a || spec.EndStage != b {
			return nil, fmt.Errorf("dp: imported segment %d spans stages [%d,%d], local split says [%d,%d]",
				s, spec.StartStage, spec.EndStage, a, b)
		}
		ets := make([]entryTable, 0, len(w.Entries[s]))
		prevJ := -1
		for _, ew := range w.Entries[s] {
			if ew.EntryJ <= prevJ || ew.EntryJ < stages[a].minJ || ew.EntryJ > stages[a].maxJ {
				return nil, fmt.Errorf("dp: imported segment %d entry velocity %d outside band [%d,%d] or out of order",
					s, ew.EntryJ, stages[a].minJ, stages[a].maxJ)
			}
			prevJ = ew.EntryJ
			// The entry's flat arrays are sized from the payload, so bound
			// the count before allocating: a sweep yields at most one
			// crossing per exit-band cell.
			if limit := (stages[b].maxJ - stages[b].minJ + 1) * (g.kMax + 1); len(ew.Crossings) > limit {
				return nil, fmt.Errorf("dp: imported segment %d entry %d carries %d crossings, its exit band holds %d",
					s, ew.EntryJ, len(ew.Crossings), limit)
			}
			n, stride := len(ew.Crossings), b-a+1
			et := entryTable{
				entryJ: ew.EntryJ,
				exitJ:  make([]int32, n),
				durSec: make([]float64, n),
				costAh: make([]float64, n),
				paths:  make([]uint16, n*stride),
			}
			for c, cw := range ew.Crossings {
				if cw.ExitJ < stages[b].minJ || cw.ExitJ > stages[b].maxJ {
					return nil, fmt.Errorf("dp: imported crossing exits at velocity %d outside band [%d,%d]",
						cw.ExitJ, stages[b].minJ, stages[b].maxJ)
				}
				if err := checkPath(cw.Path, stages[a:b+1], ew.EntryJ, cw.ExitJ); err != nil {
					return nil, err
				}
				if !finite(cw.DurSec) || cw.DurSec < 0 || !finite(cw.CostAh) || cw.CostAh >= inf {
					return nil, fmt.Errorf("dp: imported crossing has non-finite duration/cost (%g s, %g Ah)",
						cw.DurSec, cw.CostAh)
				}
				et.exitJ[c], et.durSec[c], et.costAh[c] = int32(cw.ExitJ), cw.DurSec, cw.CostAh
				copy(et.path(c, stride), cw.Path)
			}
			ets = append(ets, et)
		}
		rt.specs = append(rt.specs, spec)
		rt.entries = append(rt.entries, ets)
	}
	rt.index()
	return rt, nil
}

// checkPath verifies that an imported crossing's stage path is one the
// segment sweep could have produced: one velocity index per segment stage,
// starting at the entry velocity, ending at the exit velocity, and inside
// every stage's admissible band. A path outside the bands would stitch a
// plan the physics never priced.
func checkPath(path []uint16, seg []stageInfo, entryJ, exitJ int) error {
	if len(path) != len(seg) {
		return fmt.Errorf("dp: imported crossing path has %d stages, segment spans %d", len(path), len(seg))
	}
	if int(path[0]) != entryJ || int(path[len(path)-1]) != exitJ {
		return fmt.Errorf("dp: imported crossing path runs %d→%d, crossing says %d→%d",
			path[0], path[len(path)-1], entryJ, exitJ)
	}
	for i, j := range path {
		if int(j) < seg[i].minJ || int(j) > seg[i].maxJ {
			return fmt.Errorf("dp: imported crossing path stage %d velocity %d outside band [%d,%d]",
				i, j, seg[i].minJ, seg[i].maxJ)
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// fingerprintTables hashes everything the segment solver consumed: the
// grid-defining config fields, the vehicle, and the discretized stages
// (bands, zero points, signals with their timing, dwells, per-stage
// grades). Two nodes agree on the fingerprint exactly when their registered
// routes and DP templates would build interchangeable tables.
func fingerprintTables(cfg *Config, g dpGrid, stages []stageInfo) uint64 {
	h := fnv.New64a()
	put := func(vals ...any) { _, _ = fmt.Fprintln(h, vals...) } // hash.Hash.Write never fails
	put("grid", g.n, math.Float64bits(g.ds), g.jMax, g.kMax)
	put("cfg", math.Float64bits(cfg.DsM), math.Float64bits(cfg.DvMS), math.Float64bits(cfg.DtSec),
		math.Float64bits(cfg.MaxTripSec), math.Float64bits(cfg.AccelMaxMS2), math.Float64bits(cfg.DecelMaxMS2),
		math.Float64bits(cfg.TimeWeightAhPerSec), math.Float64bits(cfg.StopDwellSec),
		cfg.CoarseRefine.Factor, math.Float64bits(cfg.CoarseRefine.CorridorMS))
	put("vehicle", cfg.Vehicle)
	for i, st := range stages {
		put("stage", i, math.Float64bits(st.posM), st.minJ, st.maxJ, st.forceZero, math.Float64bits(st.dwellSec))
		if st.signal != nil {
			put("signal", st.signal.Name, math.Float64bits(st.signal.PositionM),
				math.Float64bits(st.signal.Timing.RedSec), math.Float64bits(st.signal.Timing.GreenSec),
				math.Float64bits(st.signal.Timing.OffsetSec))
		}
		if i < len(stages)-1 {
			put("grade", math.Float64bits(cfg.Route.GradeAt(st.posM+g.ds/2)))
		}
	}
	return h.Sum64()
}
