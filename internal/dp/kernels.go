// Lane kernels for the DP relaxation (DESIGN.md §12).
//
// The gather pass (parallel.go) splits each (destination column j2, source
// column j) row into two phases: a vectorizable *evaluation* over the
// source row's time buckets — candidate cost, exact elapsed time, target
// bucket and feasibility mask as parallel float64 lanes — and a scalar
// *commit* that resolves the k2 scatter; improveFilter, between the two,
// drops the lanes that cannot improve their cell. relaxEval is the evaluation phase:
// it dispatches to the AVX2 kernel (kernels_amd64.s) when the CPU supports
// it and finishes any non-multiple-of-4 tail with the portable Go
// reference. The assembly is a lane-for-lane transcription of relaxEvalGo —
// separate VMULPD/VADDPD in the reference's operation order, never FMA — so
// the two are bit-identical on every input (pinned by kernels_test.go).
package dp

import (
	"math"
	"math/bits"
	"sync"
)

// solveSlabs recycles a sweep's large allocations across solves and table
// builds: the four double-buffered value arrays (one backing slab,
// sub-sliced), the banded backpointer slab and the relaxation pool.
// Recycling is safe because the DP re-seeds everything it reads — cost and
// backpointer cells are inf/-1-filled per stage across the destination band
// that bounds every read, and exact/scratch cells are only ever read behind
// a finite-cost mask — so stale contents cannot leak between solves. The
// arrays hold no pointers, which also keeps them out of GC scans.
type solveSlabs struct {
	vals []float64 // 4*width: curCost, nxtCost, curExact, nxtExact
	// backs holds each relaxed stage's incoming backpointers over that
	// stage's [minJ, maxJ] band only, the way the stitch bands its
	// boundaries: destination stage i's band starts at backOff[i] (see
	// band and back).
	backs   []int32
	backOff []int
	pool    *relaxPool
}

var slabPool = sync.Pool{New: func() any { return new(solveSlabs) }}

// grabSlabs returns recycled slabs grown to the given geometry; the sweep
// sizes the backpointer band itself (band).
func grabSlabs(width, workers, jw, kw int) *solveSlabs {
	s := slabPool.Get().(*solveSlabs)
	if cap(s.vals) < 4*width {
		s.vals = make([]float64, 4*width)
	}
	s.vals = s.vals[:4*width]
	s.pool = s.pool.fit(workers, jw, kw)
	return s
}

// band lays out backs for the destination stages dst of one sweep, in
// order: Σ (maxJ−minJ+1)·kw cells rather than a full velocity width per
// stage.
func (s *solveSlabs) band(dst []stageInfo, kw int) {
	s.backOff = append(s.backOff[:0], 0)
	off := 0
	for _, st := range dst {
		off += (st.maxJ - st.minJ + 1) * kw
		s.backOff = append(s.backOff, off)
	}
	if cap(s.backs) < off {
		s.backs = make([]int32, off)
	}
	s.backs = s.backs[:off]
}

// back returns the backpointer of cell (j, k) of destination stage i, whose
// stage description is st.
func (s *solveSlabs) back(i int, st stageInfo, j, k, kw int) int32 {
	return s.backs[s.backOff[i]+(j-st.minJ)*kw+k]
}

// relaxEval fills, for each source time bucket k in [0, len(cost)):
//
//	cand[k] = (cost[k] + zeta) + tCost          // candidate cost, no penalty
//	tot[k]  = exact[k] + step                   // exact elapsed time
//	k2f[k]  = min(floor(tot[k]*invDt+0.5), kMaxF) // destination bucket
//	mask bit k = cost[k] != inf && tot[k] <= maxTrip
//
// mask packs 4 lanes per byte (bit k&3 of mask[k>>2]). The window penalty
// is deliberately excluded: it needs the absolute arrival time and is added
// by the scalar commit pass, which only looks at masked-in lanes.
//
// Inputs must be free of NaNs (the DP arrays only ever hold finite values
// or the inf sentinel); the asm and Go paths are bit-identical under that
// contract and diverge only in NaN min-propagation.
func relaxEval(cand, tot, k2f []float64, mask []uint8, cost, exact []float64,
	zeta, tCost, step, maxTrip, invDt, kMaxF float64, useAsm bool) {

	from := 0
	if useAsm {
		if n4 := len(cost) &^ 3; n4 > 0 {
			relaxEvalAsm(cand[:n4], tot[:n4], k2f[:n4], mask[:n4>>2], cost[:n4], exact[:n4],
				zeta, tCost, step, maxTrip, invDt, kMaxF)
			from = n4
		}
	}
	relaxEvalGo(cand, tot, k2f, mask, cost, exact, zeta, tCost, step, maxTrip, invDt, kMaxF, from)
}

// relaxEvalGo is the portable reference for relaxEval, starting at lane
// `from` (always a multiple of 4). The expression order is the kernel
// contract: the assembly must perform the exact same roundings. The
// float64 conversion rounds the product before the add; without it arm64
// compiles e*invDt+0.5 to one fused multiply-add, whose single rounding can
// move a bucket (the Go spec permits the fusion, and an explicit
// conversion is what forbids it; `make kernel-fma` checks the arm64 code).
func relaxEvalGo(cand, tot, k2f []float64, mask []uint8, cost, exact []float64,
	zeta, tCost, step, maxTrip, invDt, kMaxF float64, from int) {

	for k := from; k < len(cost); k++ {
		if k&3 == 0 {
			mask[k>>2] = 0
		}
		c0 := cost[k]
		e := exact[k] + step
		cand[k] = (c0 + zeta) + tCost
		tot[k] = e
		f := math.Floor(float64(e*invDt) + 0.5)
		if f > kMaxF {
			f = kMaxF
		}
		k2f[k] = f
		//lint:allow floateq inf is the exact MaxFloat64 unreached-state sentinel, assigned verbatim and never computed
		if c0 != inf && e <= maxTrip {
			mask[k>>2] |= 1 << (k & 3)
		}
	}
}

// improveFilter is the improvement pre-test of both scalar commits, the
// sweep's gather (parallel.go) and the stitch (segment.go); DESIGN.md
// §11–12. It runs on one relaxEval row, after the trip-budget mask is set,
// and clears every masked-in lane whose candidate, priced with its
// bucket's penalty floor, cannot beat its destination cell:
//
//	f   = min(max(k2f[c], 0), kMaxF)   // clamped bucket, NaN -> 0
//	idx = rowOff[c] + int(f)
//	bit c survives iff cand[c] + floor[int(f)] < cost[idx]
//
// A nil floor adds nothing (the gather's rows). It returns how many lanes
// were masked in before filtering (the caller's expansion count) and how
// many survive (the caller skips its commit when none do). rowOff[c] is
// lane c's destination row offset within cost: a gather row has one
// destination column, so its offsets are all zero and cost is that
// column; a stitch row spreads over an exit boundary's banded slab,
// rowOff[c] = (exitJ-minJ)*(kMax+1).
//
// floor[k2] is a lower bound on the window penalty the commit adds to an
// arrival in bucket k2 (penaltyFloor), so the add is the commit's own:
// where the floor is PenaltyAh the commit adds the same PenaltyAh to the
// same candidate, and where it is 0 the test is the pre-penalty one.
//
// The AVX2 kernel gathers cost[idx] and floor[f] without a bounds check,
// so the index range is pinned here: the clamp keeps f in [0, kMaxF],
// every rowOff lies in [0, maxRowOff] (zero for the gather;
// RouteTables.index derives the stitch's from band-checked exits), and the
// assertions below bound the largest index by len(cost) and len(floor).
// The clamp never fires on DP input — relaxEval already caps k2f at kMaxF,
// and arrival times are non-negative — it only makes the gather's address
// range a property of this function.
func improveFilter(mask []uint8, cand, k2f, floor []float64, rowOff []int32, maxRowOff int, cost []float64,
	kMaxF float64, useAsm bool) (expanded, kept int) {

	if !(kMaxF >= 0) || float64(maxRowOff)+kMaxF >= float64(len(cost)) {
		panic("dp: improvement filter row offsets reach past the destination slab")
	}
	if floor != nil && float64(len(floor)) <= kMaxF {
		panic("dp: improvement filter penalty floor is shorter than the bucket range")
	}
	from := 0
	if useAsm {
		if n4 := len(cand) &^ 3; n4 > 0 {
			expanded, kept = improveFilterAsm(mask[:n4>>2], cand[:n4], k2f[:n4], floor, rowOff[:n4], cost, kMaxF)
			from = n4
		}
	}
	e, k := improveFilterGo(mask, cand, k2f, floor, rowOff, cost, kMaxF, from)
	return expanded + e, kept + k
}

// improveFilterGo is the portable reference for improveFilter over lanes
// [from, len(cand)), from a multiple of 4. The clamp is written the way
// VMAXPD/VMINPD evaluate it, so the asm and Go masks agree bit for bit.
func improveFilterGo(mask []uint8, cand, k2f, floor []float64, rowOff []int32, cost []float64,
	kMaxF float64, from int) (expanded, kept int) {

	for bi := from >> 2; bi < (len(cand)+3)>>2; bi++ {
		m := mask[bi]
		expanded += bits.OnesCount8(m)
		keep := m
		for base := bi << 2; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros8(m)
			f := k2f[i]
			if !(f > 0) {
				f = 0
			}
			if !(f < kMaxF) {
				f = kMaxF
			}
			b, nc := int(f), cand[i]
			if floor != nil {
				nc += floor[b]
			}
			if !(nc < cost[int(rowOff[i])+b]) {
				keep &^= 1 << (i & 3)
			}
		}
		mask[bi] = keep
		kept += bits.OnesCount8(keep)
	}
	return expanded, kept
}

// maskCount returns how many lanes a relaxEval mask holds.
func maskCount(mask []uint8) int {
	n := 0
	for _, m := range mask {
		n += bits.OnesCount8(m)
	}
	return n
}

// SetAsmKernels forces the assembly kernels on or off and returns the
// previous setting. Enabling them on a CPU without AVX2 support is a no-op.
// Intended for tests and benchmarks; do not call concurrently with a
// running solve (each stage snapshots the setting before spawning workers,
// so flips between solves are always safe).
func SetAsmKernels(on bool) (prev bool) {
	prev = useAsmKernels
	useAsmKernels = on && asmSupported
	return prev
}

// KernelsEnabled reports whether the AVX2 relaxation kernels are in use.
func KernelsEnabled() bool { return useAsmKernels }

// fillF64 sets every element of dst to v by copy-doubling (compiles to
// memmove chunks, far faster than an element loop on the wide DP slabs).
func fillF64(dst []float64, v float64) {
	if len(dst) == 0 {
		return
	}
	dst[0] = v
	for i := 1; i < len(dst); i *= 2 {
		copy(dst[i:], dst[:i])
	}
}

// fillI32 sets every element of dst to v by copy-doubling.
func fillI32(dst []int32, v int32) {
	if len(dst) == 0 {
		return
	}
	dst[0] = v
	for i := 1; i < len(dst); i *= 2 {
		copy(dst[i:], dst[:i])
	}
}
