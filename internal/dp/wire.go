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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// TablesWire is the serializable form of RouteTables. Its binary form is
// the flat layout of MarshalBinary, which encoding/gob picks up through
// the encoding.BinaryMarshaler hook, so a gob stream of a TablesWire
// carries one byte string rather than a reflective walk over every
// crossing.
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
		0, 0) // the retired coarse factor and corridor: keeps fingerprints stable across versions
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

// The flat table layout (DESIGN.md §13), all integers little-endian. It
// mirrors the wire structs field by field, each entry table as parallel
// arrays:
//
//	header     magic "EVTW", version u8, path width u8, fingerprint u64,
//	           segment solves i32, spec count u32, entry-set count u32
//	spec       start stage i32, end stage i32, start m f64, end m f64,
//	           boundary-name length u32, name bytes
//	entry set  entry count u32, then per entry table: entry j i32,
//	           crossing count n u32, n exit j i32, n duration f64,
//	           n cost f64, n path length u32, then the path slab: every
//	           crossing's path back to back, one index per width bytes
//
// Floats travel as their IEEE-754 bits, so every value (NaN payloads and
// -0 included) round-trips bit for bit. The path width is 1 when every
// path index is below 256 and 2 otherwise: paths are most of the payload,
// and on the production US-25 grid every index fits one byte.
//
// The codec only frames: every TablesWire whose ints fit their fields
// round-trips exactly, so a structurally broken table set (ragged paths,
// mismatched segment counts, indices outside their bands) encodes and
// decodes unchanged and is refused by ImportRouteTables, the one
// validator. A layout change bumps wireVersion; nodes on different
// versions cannot read each other's payloads, so a fetch fails and the
// requester builds locally.
const (
	wireMagic   = "EVTW"
	wireVersion = 1
	// wireHeaderLen is the fixed header: magic, version, width,
	// fingerprint, segment solves and the two counts.
	wireHeaderLen = 4 + 1 + 1 + 8 + 4 + 4 + 4
	// The fewest bytes one spec, entry set, entry table or crossing can
	// occupy. UnmarshalBinary checks every count against the bytes left
	// times these before it allocates, so a forged count costs an error,
	// not memory.
	wireSpecMin     = 4 + 4 + 8 + 8 + 4
	wireEntrySetMin = 4
	wireEntryMin    = 4 + 4
	wireCrossingMin = 4 + 8 + 8 + 4
)

// MarshalBinary encodes the tables in the flat layout. It fails only on a
// value that does not fit its field: an int outside int32 or a count
// outside uint32.
func (w *TablesWire) MarshalBinary() ([]byte, error) {
	size, nPath, width := wireHeaderLen, 0, 1
	for _, sp := range w.Specs {
		size += wireSpecMin + len(sp.BoundaryName)
	}
	for _, ets := range w.Entries {
		size += wireEntrySetMin
		for _, ew := range ets {
			size += wireEntryMin + len(ew.Crossings)*wireCrossingMin
			for _, cw := range ew.Crossings {
				nPath += len(cw.Path)
				for _, j := range cw.Path {
					if j > math.MaxUint8 {
						width = 2
					}
				}
			}
		}
	}

	e := wireEncoder{b: make([]byte, 0, size+nPath*width)}
	e.b = append(e.b, wireMagic...)
	e.b = append(e.b, wireVersion, byte(width))
	e.b = binary.LittleEndian.AppendUint64(e.b, w.Fingerprint)
	e.i32(w.SegmentSolves, "segment solves")
	e.u32(len(w.Specs))
	e.u32(len(w.Entries))
	for _, sp := range w.Specs {
		e.i32(sp.StartStage, "spec start stage")
		e.i32(sp.EndStage, "spec end stage")
		e.f64(sp.StartM)
		e.f64(sp.EndM)
		e.u32(len(sp.BoundaryName))
		e.b = append(e.b, sp.BoundaryName...)
	}
	for _, ets := range w.Entries {
		e.u32(len(ets))
		for _, ew := range ets {
			e.i32(ew.EntryJ, "entry velocity")
			e.u32(len(ew.Crossings))
			for _, cw := range ew.Crossings {
				e.i32(cw.ExitJ, "exit velocity")
			}
			for _, cw := range ew.Crossings {
				e.f64(cw.DurSec)
			}
			for _, cw := range ew.Crossings {
				e.f64(cw.CostAh)
			}
			for _, cw := range ew.Crossings {
				e.u32(len(cw.Path))
			}
			for _, cw := range ew.Crossings {
				for _, j := range cw.Path {
					if width == 1 {
						e.b = append(e.b, byte(j))
					} else {
						e.b = binary.LittleEndian.AppendUint16(e.b, j)
					}
				}
			}
		}
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

// wireEncoder appends fields to b, keeping the first range error.
type wireEncoder struct {
	b   []byte
	err error
}

func (e *wireEncoder) i32(v int, field string) {
	if (v < math.MinInt32 || v > math.MaxInt32) && e.err == nil {
		e.err = fmt.Errorf("dp: table wire %s %d does not fit int32", field, v)
	}
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(int32(v)))
}

func (e *wireEncoder) u32(n int) {
	if uint64(n) > math.MaxUint32 && e.err == nil {
		e.err = fmt.Errorf("dp: table wire count %d does not fit uint32", n)
	}
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(n))
}

func (e *wireEncoder) f64(x float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(x))
}

var errWireTruncated = errors.New("dp: table payload truncated")

// UnmarshalBinary decodes the flat layout into w. It checks the framing
// only — magic, version, the canonical path width, every count against
// the bytes left, and no trailing bytes — and leaves the tables' meaning
// to ImportRouteTables. It keeps no reference to data. On error w is left
// unchanged.
func (w *TablesWire) UnmarshalBinary(data []byte) error {
	if len(data) < len(wireMagic) || string(data[:len(wireMagic)]) != wireMagic {
		return errors.New("dp: not a table payload (bad magic)")
	}
	if len(data) < wireHeaderLen {
		return errWireTruncated
	}
	if v := data[4]; v != wireVersion {
		return fmt.Errorf("dp: table payload version %d, this node reads %d", v, wireVersion)
	}
	width := int(data[5])
	if width != 1 && width != 2 {
		return fmt.Errorf("dp: table payload path width %d, want 1 or 2", width)
	}
	d := wireDecoder{b: data[6:]}
	out := TablesWire{Fingerprint: d.u64()}
	out.SegmentSolves = d.i32()
	nSpecs := d.count(wireSpecMin)
	nSets := d.count(wireEntrySetMin)
	if d.err != nil {
		return d.err
	}
	out.Specs = make([]SegmentSpec, nSpecs)
	for i := range out.Specs {
		sp := &out.Specs[i]
		sp.StartStage, sp.EndStage = d.i32(), d.i32()
		sp.StartM, sp.EndM = d.f64(), d.f64()
		sp.BoundaryName = string(d.bytes(d.count(1)))
	}
	if d.err != nil {
		return d.err
	}
	out.Entries = make([][]EntryWire, nSets)
	for s := range out.Entries {
		ets := make([]EntryWire, d.count(wireEntryMin))
		for e := range ets {
			d.entry(&ets[e], width)
		}
		out.Entries[s] = ets
	}
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("dp: table payload has %d trailing bytes", len(d.b))
	}
	// MarshalBinary picks the narrowest width, so a wide payload whose
	// paths all fit one byte is not one it wrote.
	if width == 2 && d.maxPath <= math.MaxUint8 {
		return errors.New("dp: table payload uses 2-byte paths that fit in 1")
	}
	*w = out
	return nil
}

// entry decodes one entry table into ew.
func (d *wireDecoder) entry(ew *EntryWire, width int) {
	ew.EntryJ = d.i32()
	cws := make([]CrossingWire, d.count(wireCrossingMin))
	ew.Crossings = cws
	for c := range cws {
		cws[c].ExitJ = d.i32()
	}
	for c := range cws {
		cws[c].DurSec = d.f64()
	}
	for c := range cws {
		cws[c].CostAh = d.f64()
	}
	lens := d.bytes(4 * len(cws))
	if d.err != nil {
		return
	}
	total := uint64(0)
	for c := range cws {
		total += uint64(binary.LittleEndian.Uint32(lens[4*c:]))
	}
	if total > uint64(len(d.b)/width) {
		d.err = errWireTruncated
		return
	}
	slab := d.bytes(int(total) * width)
	paths := make([]uint16, total)
	if width == 1 {
		for i, b := range slab {
			paths[i] = uint16(b)
		}
	} else {
		for i := range paths {
			paths[i] = binary.LittleEndian.Uint16(slab[2*i:])
			d.maxPath = max(d.maxPath, paths[i])
		}
	}
	off := 0
	for c := range cws {
		l := int(binary.LittleEndian.Uint32(lens[4*c:]))
		cws[c].Path = paths[off : off+l : off+l]
		off += l
	}
}

// wireDecoder consumes fields from b. A read past the end sets err and
// yields zeros (and counts of zero), so callers check err once per run of
// fields. maxPath is the largest 2-byte path index read so far.
type wireDecoder struct {
	b       []byte
	err     error
	maxPath uint16
}

func (d *wireDecoder) bytes(n int) []byte {
	if d.err != nil || n > len(d.b) {
		if d.err == nil {
			d.err = errWireTruncated
		}
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *wireDecoder) u32() uint32 {
	if b := d.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *wireDecoder) u64() uint64 {
	if b := d.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *wireDecoder) i32() int { return int(int32(d.u32())) }

func (d *wireDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a u32 count of items that each occupy at least minBytes and
// fails unless that many fit in the bytes left.
func (d *wireDecoder) count(minBytes int) int {
	n := d.u32()
	if d.err == nil && uint64(n)*uint64(minBytes) > uint64(len(d.b)) {
		d.err = errWireTruncated
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}
