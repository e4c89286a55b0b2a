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
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// TablesWire is the serialized form of RouteTables: the flat layout
// below, as bytes. Export writes it and ImportRouteTables is its one
// reader. Its binary form is that layout, which encoding/gob picks up
// through the encoding.BinaryMarshaler hook, so a gob stream of a
// TablesWire carries one byte string.
type TablesWire struct{ flat []byte }

// MarshalBinary returns the flat layout. It never fails.
func (w *TablesWire) MarshalBinary() ([]byte, error) { return w.flat, nil }

// UnmarshalBinary keeps a copy of data (gob reuses its buffer once the
// hook returns). It checks nothing: ImportRouteTables reads and validates
// the layout in one pass.
func (w *TablesWire) UnmarshalBinary(data []byte) error {
	w.flat = bytes.Clone(data)
	return nil
}

// Export writes the tables in the flat layout, straight from the specs
// and the entry-table columns. Every field comes from a build or a checked
// import, so it cannot fail.
func (rt *RouteTables) Export() *TablesWire {
	size, nPath, width := wireHeaderLen, 0, 1
	for _, sp := range rt.specs {
		size += wireSpecMin + len(sp.BoundaryName)
	}
	for _, ets := range rt.entries {
		size += wireEntrySetMin
		for i := range ets {
			et := &ets[i]
			size += wireEntryMin + len(et.exitJ)*wireCrossingMin
			nPath += len(et.paths)
			for _, j := range et.paths {
				if j > math.MaxUint8 {
					width = 2
				}
			}
		}
	}
	return &TablesWire{flat: rt.appendFlat(make([]byte, 0, size+nPath*width), width)}
}

// appendFlat appends the flat layout with the given path width to b.
// Export picks the narrowest width that holds every path index.
func (rt *RouteTables) appendFlat(b []byte, width int) []byte {
	le := binary.LittleEndian
	b = append(b, wireMagic...)
	b = append(b, wireVersion, byte(width))
	b = le.AppendUint64(b, fingerprintTables(&rt.cfg, rt.grid, rt.stages))
	b = le.AppendUint32(b, uint32(rt.SegmentSolves()))
	b = le.AppendUint32(b, uint32(len(rt.specs)))
	b = le.AppendUint32(b, uint32(len(rt.entries)))
	for _, sp := range rt.specs {
		b = le.AppendUint32(b, uint32(sp.StartStage))
		b = le.AppendUint32(b, uint32(sp.EndStage))
		b = le.AppendUint64(b, math.Float64bits(sp.StartM))
		b = le.AppendUint64(b, math.Float64bits(sp.EndM))
		b = le.AppendUint32(b, uint32(len(sp.BoundaryName)))
		b = append(b, sp.BoundaryName...)
	}
	for s, ets := range rt.entries {
		stride := rt.specs[s].EndStage - rt.specs[s].StartStage + 1
		b = le.AppendUint32(b, uint32(len(ets)))
		for i := range ets {
			et := &ets[i]
			b = le.AppendUint32(b, uint32(et.entryJ))
			b = le.AppendUint32(b, uint32(len(et.exitJ)))
			for _, j := range et.exitJ {
				b = le.AppendUint32(b, uint32(j))
			}
			for _, x := range et.durSec {
				b = le.AppendUint64(b, math.Float64bits(x))
			}
			for _, x := range et.costAh {
				b = le.AppendUint64(b, math.Float64bits(x))
			}
			for range et.exitJ {
				b = le.AppendUint32(b, uint32(stride))
			}
			for _, j := range et.paths {
				if width == 1 {
					b = append(b, byte(j))
				} else {
					b = le.AppendUint16(b, j)
				}
			}
		}
	}
	return b
}

// ImportRouteTables reconstructs servable RouteTables from their flat
// layout under the local cfg (the receiver's registered route and DP
// template). The grid and stages are rebuilt locally; the wire supplies
// only the solved crossings, decoded straight into entry-table columns.
// It is the layout's one reader and checks, in one pass, both the framing
// (magic, version, path width, every count against the bytes left before
// it allocates, no trailing bytes, the narrowest path width) and the
// meaning: the fingerprint, the segment split a local build would make,
// one entry table per entry velocity in band order, the solve count,
// in-band exits and paths, and finite durations and costs. A truncated,
// corrupted or foreign replica never becomes a serving table.
func ImportRouteTables(cfg Config, w *TablesWire) (*RouteTables, error) {
	if w == nil {
		return nil, fmt.Errorf("dp: nil table wire")
	}
	data := w.flat
	if len(data) < len(wireMagic) || string(data[:len(wireMagic)]) != wireMagic {
		return nil, errors.New("dp: not a table payload (bad magic)")
	}
	if len(data) < wireHeaderLen {
		return nil, errWireTruncated
	}
	if v := data[4]; v != wireVersion {
		return nil, fmt.Errorf("dp: table payload version %d, this node reads %d", v, wireVersion)
	}
	width := int(data[5])
	if width != 1 && width != 2 {
		return nil, fmt.Errorf("dp: table payload path width %d, want 1 or 2", width)
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
	d := wireDecoder{b: data[6:]}
	fp, solves := d.u64(), d.i32()
	nSpecs, nSets := d.count(wireSpecMin), d.count(wireEntrySetMin)
	if d.err != nil {
		return nil, d.err
	}
	if local := fingerprintTables(&cfg, g, stages); local != fp {
		return nil, fmt.Errorf("dp: imported tables were built on a different grid (fingerprint %016x, local %016x)",
			fp, local)
	}

	// The fingerprint pins the physics; the checks below pin the payload
	// to the segmentation and entry bands a local build would produce.
	rt := &RouteTables{cfg: cfg, key: gridKeyOf(&cfg), stages: stages, grid: g, specs: segmentSpecs(stages)}
	if nSpecs != len(rt.specs) || nSets != nSpecs {
		return nil, fmt.Errorf("dp: imported tables carry %d segments (%d entry sets), local route splits into %d",
			nSpecs, nSets, len(rt.specs))
	}
	for s, want := range rt.specs {
		got := SegmentSpec{StartStage: d.i32(), EndStage: d.i32(), StartM: d.f64(), EndM: d.f64()}
		got.BoundaryName = string(d.bytes(d.count(1)))
		if d.err != nil {
			return nil, d.err
		}
		if got.StartStage != want.StartStage || got.EndStage != want.EndStage || got.BoundaryName != want.BoundaryName ||
			math.Float64bits(got.StartM) != math.Float64bits(want.StartM) || math.Float64bits(got.EndM) != math.Float64bits(want.EndM) {
			return nil, fmt.Errorf("dp: imported segment %d is %+v, local split says %+v", s, got, want)
		}
	}
	rt.entries = make([][]entryTable, len(rt.specs))
	for s, sp := range rt.specs {
		seg := stages[sp.StartStage : sp.EndStage+1]
		n := d.count(wireEntryMin)
		if d.err != nil {
			return nil, d.err
		}
		if n != seg[0].maxJ-seg[0].minJ+1 {
			return nil, fmt.Errorf("dp: imported segment %d carries %d entry tables, its entry band [%d,%d] needs one per velocity",
				s, n, seg[0].minJ, seg[0].maxJ)
		}
		rt.entries[s] = make([]entryTable, n)
		for e := range rt.entries[s] {
			if err := d.table(&rt.entries[s][e], seg, seg[0].minJ+e, width, g.kMax+1); err != nil {
				return nil, err
			}
		}
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("dp: table payload has %d trailing bytes", len(d.b))
	}
	// A build runs one solve per entry table, so the count a peer reports
	// is checked, never trusted: it feeds the importer's reuse accounting.
	if solves != rt.SegmentSolves() {
		return nil, fmt.Errorf("dp: imported tables claim %d segment solves for %d entry tables", solves, rt.SegmentSolves())
	}
	// Export picks the narrowest width, so a wide payload whose paths all
	// fit one byte is not one it wrote.
	if width == 2 && d.maxPath <= math.MaxUint8 {
		return nil, errors.New("dp: table payload uses 2-byte paths that fit in 1")
	}
	rt.index()
	return rt, nil
}

// table decodes the entry table of velocity entryJ over the segment
// stages seg into et, checking every column as it reads it. Each crossing
// path must be one the segment sweep could have produced: one velocity
// index per segment stage, starting at the entry velocity, ending at the
// exit velocity, and inside every stage's admissible band. A path outside
// the bands would stitch a plan the physics never priced.
func (d *wireDecoder) table(et *entryTable, seg []stageInfo, entryJ, width, kw int) error {
	if j := d.i32(); d.err == nil && j != entryJ {
		return fmt.Errorf("dp: imported entry table enters at velocity %d, the band's next velocity is %d", j, entryJ)
	}
	n := d.count(wireCrossingMin)
	exits, durs, costs, lens := d.bytes(4*n), d.bytes(8*n), d.bytes(8*n), d.bytes(4*n)
	if d.err != nil {
		return d.err
	}
	// The columns are sized from the payload, so bound the count before
	// allocating: a sweep yields at most one crossing per exit-band cell.
	exit, stride := seg[len(seg)-1], len(seg)
	if limit := (exit.maxJ - exit.minJ + 1) * kw; n > limit {
		return fmt.Errorf("dp: imported entry %d carries %d crossings, its exit band holds %d", entryJ, n, limit)
	}
	le := binary.LittleEndian
	for c := range n {
		if l := int(le.Uint32(lens[4*c:])); l != stride {
			return fmt.Errorf("dp: imported crossing path has %d stages, segment spans %d", l, stride)
		}
	}
	slab := d.bytes(n * stride * width)
	if d.err != nil {
		return d.err
	}

	*et = entryTable{
		entryJ: entryJ,
		exitJ:  make([]int32, n),
		durSec: make([]float64, n),
		costAh: make([]float64, n),
		paths:  make([]uint16, n*stride),
	}
	for c := range n {
		j := int(int32(le.Uint32(exits[4*c:])))
		if j < exit.minJ || j > exit.maxJ {
			return fmt.Errorf("dp: imported crossing exits at velocity %d outside band [%d,%d]", j, exit.minJ, exit.maxJ)
		}
		dur, cost := math.Float64frombits(le.Uint64(durs[8*c:])), math.Float64frombits(le.Uint64(costs[8*c:]))
		if !finite(dur) || dur < 0 || !finite(cost) || cost >= inf {
			return fmt.Errorf("dp: imported crossing has non-finite duration/cost (%g s, %g Ah)", dur, cost)
		}
		et.exitJ[c], et.durSec[c], et.costAh[c] = int32(j), dur, cost
	}
	for i := range et.paths {
		if width == 1 {
			et.paths[i] = uint16(slab[i])
		} else {
			et.paths[i] = le.Uint16(slab[2*i:])
			d.maxPath = max(d.maxPath, et.paths[i])
		}
	}
	for c := range n {
		path := et.path(c, stride)
		if int(path[0]) != entryJ || int(path[stride-1]) != int(et.exitJ[c]) {
			return fmt.Errorf("dp: imported crossing path runs %d→%d, crossing says %d→%d", path[0], path[stride-1], entryJ, et.exitJ[c])
		}
		for i, j := range path {
			if int(j) < seg[i].minJ || int(j) > seg[i].maxJ {
				return fmt.Errorf("dp: imported crossing path stage %d velocity %d outside band [%d,%d]", i, j, seg[i].minJ, seg[i].maxJ)
			}
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
			put("grade", math.Float64bits(cfg.Route.GradeAt(st.posM+float64(g.ds/2))))
		}
	}
	return h.Sum64()
}

// The flat table layout (DESIGN.md §13), all integers little-endian. It
// mirrors RouteTables field by field, each entry table as its parallel
// columns:
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
// Floats travel as their IEEE-754 bits, so every value round-trips bit
// for bit. The path width is 1 when every path index is below 256 and 2
// otherwise: paths are most of the payload, and on the production US-25
// grid every index fits one byte. A layout change bumps wireVersion;
// nodes on different versions cannot read each other's payloads, so a
// fetch fails and the requester builds locally.
const (
	wireMagic   = "EVTW"
	wireVersion = 1
	// wireHeaderLen is the fixed header: magic, version, width,
	// fingerprint, segment solves and the two counts.
	wireHeaderLen = 4 + 1 + 1 + 8 + 4 + 4 + 4
	// The fewest bytes one spec, entry set, entry table or crossing can
	// occupy. ImportRouteTables checks every count against the bytes left
	// times these before it allocates, so a forged count costs an error,
	// not memory.
	wireSpecMin     = 4 + 4 + 8 + 8 + 4
	wireEntrySetMin = 4
	wireEntryMin    = 4 + 4
	wireCrossingMin = 4 + 8 + 8 + 4
)

var errWireTruncated = errors.New("dp: table payload truncated")

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
