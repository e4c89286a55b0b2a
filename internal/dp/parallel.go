package dp

import (
	"math/bits"
	"sync"

	"evvo/internal/queue"
)

// stageRelax is one stage's relaxation, formulated as a *gather*: instead of
// each source state scattering updates into the next stage (whose cells many
// sources share), each destination velocity column j2 scans its own
// predecessor band and performs every write into cost/exact/back itself.
// Workers own disjoint contiguous ranges of destination columns, so two
// goroutines never write the same cell and the pass needs no locks.
//
// Each (j2, j) pair is processed in two phases (DESIGN.md §12): relaxEval
// (kernels.go) evaluates the source row's time buckets as contiguous
// float64 lanes — candidate cost, exact elapsed time, destination bucket,
// packed feasibility mask — and a scalar commit pass resolves the k2
// scatter. With AVX2, improveFilter runs between them: it gathers each
// masked-in lane's destination cell from column j2 and clears the lanes
// whose pre-penalty candidate is not strictly below it (a nil penalty
// floor), so the commit walks, in ascending k, only the lanes that may
// improve their cell, and a row with no survivor skips the commit. Without
// AVX2 the filter would be a Go loop repeating the commit's own compare,
// so the commit walks the whole mask.
//
// The pre-test is exact: within a stage the destination costs only fall,
// and the window penalty the commit adds is finite and >= 0
// (Config.validate), so a lane that cannot beat its cell's value before
// the row cannot beat the live cell either. The commit still compares
// against the live cell, because earlier lanes of the same row may have
// lowered it. StatesExpanded counts every masked-in lane before the
// filter, with kernels on or off.
//
// Determinism: for any destination cell (j2, k2) the candidate predecessors
// (j, k) are visited in ascending (j, k) order — exactly the order the
// serial scatter loop visits them — and a candidate replaces the incumbent
// only on strict improvement (nc < cost). Ties therefore keep the lowest
// (j, k) predecessor, and the relaxed arrays are bit-identical for any
// worker count, including 1, and for kernels on or off (relaxEvalAsm is
// bit-identical to relaxEvalGo).
type stageRelax struct {
	kMax int
	tw   int // transition-table row width (jMax+1)

	curMinJ, curMaxJ int
	nxtMinJ, nxtMaxJ int

	bands *accelBands
	tr    *gradeTable
	dTauT []float64 // transposed traversal times, [j2*tw+j]

	curCost, curExact []float64
	nxtCost, nxtExact []float64
	nxtBack           []int32 // the destination band only: column j2 at (j2-nxtMinJ)*(kMax+1)

	dwell, timeW, maxTrip, invDt, depart, penalty float64

	ws     []queue.Window // sorted by Start (shrunkWindows' contract)
	hasWin bool

	// Finite time-bucket ranges from the pool: kLo/kHi bound each source
	// column's finite cells (recorded when the previous stage wrote them),
	// so the lane loop skips the all-inf prefix and suffix. nxtKLo/nxtKHi
	// receive this stage's destination ranges; columns a worker owns but
	// never writes are recorded empty.
	kLo, kHi       []int
	nxtKLo, nxtKHi []int

	useAsm bool // kernel dispatch, snapshotted in run before workers start
}

// relaxScratch is one worker's private lane buffers for relaxEval and
// improveFilter. rowOff is the gather's all-zero row offsets (its rows have
// a single destination column); it is allocated only for a relaxPool's
// workers, never written, and nil in the stitch's lanes, which carry their
// own offsets per crossing.
type relaxScratch struct {
	cand, tot, k2f []float64
	mask           []uint8
	rowOff         []int32
}

// relaxPool carries the allocations that persist across a solve's stages:
// per-worker lane buffers, the per-column finite-range tracking that the
// stages hand forward, and a parallel stage's fan-out state. One pool
// serves one solve at a time.
type relaxPool struct {
	kLo, kHi       []int
	nxtKLo, nxtKHi []int
	per            []relaxScratch

	// stage is the relaxation run is working on. Helper w relaxes
	// destination columns [lo[w], hi[w]] into counts[w]; helpers[w] is its
	// goroutine body, made once with the pool, so a parallel stage starts
	// its helpers without allocating.
	stage          stageRelax
	lo, hi, counts []int
	helpers        []func()
	wg             sync.WaitGroup
}

func newRelaxPool(workers, jw, kw int) *relaxPool {
	if workers < 1 {
		workers = 1
	}
	p := &relaxPool{
		kLo: make([]int, jw), kHi: make([]int, jw),
		nxtKLo: make([]int, jw), nxtKHi: make([]int, jw),
		per: make([]relaxScratch, workers),
		lo:  make([]int, workers), hi: make([]int, workers), counts: make([]int, workers),
		helpers: make([]func(), workers),
	}
	for i := range p.per {
		p.per[i] = newRelaxScratch(kw)
		p.per[i].rowOff = make([]int32, kw)
	}
	for w := range p.helpers {
		p.helpers[w] = func() {
			defer p.wg.Done()
			p.counts[w] = p.stage.gather(p.lo[w], p.hi[w], &p.per[w])
		}
	}
	return p
}

// newRelaxScratch allocates lane buffers for relaxEval calls of up to n lanes.
func newRelaxScratch(n int) relaxScratch {
	return relaxScratch{
		cand: make([]float64, n),
		tot:  make([]float64, n),
		k2f:  make([]float64, n),
		mask: make([]uint8, (n+3)/4),
	}
}

// fit returns a pool sized for the given geometry, reusing the receiver's
// allocations when they are large enough (p may be nil).
func (p *relaxPool) fit(workers, jw, kw int) *relaxPool {
	if workers < 1 {
		workers = 1
	}
	if p == nil || len(p.per) < workers || cap(p.kLo) < jw || cap(p.per[0].cand) < kw {
		return newRelaxPool(workers, jw, kw)
	}
	p.kLo, p.kHi = p.kLo[:jw], p.kHi[:jw]
	p.nxtKLo, p.nxtKHi = p.nxtKLo[:jw], p.nxtKHi[:jw]
	for i := range p.per {
		sc := &p.per[i]
		sc.cand, sc.tot, sc.k2f = sc.cand[:kw], sc.tot[:kw], sc.k2f[:kw]
		sc.mask = sc.mask[:(kw+3)/4]
		sc.rowOff = sc.rowOff[:kw]
	}
	return p
}

// seed resets the source ranges to a single finite cell: column j, bucket k.
func (p *relaxPool) seed(j, k, kw int) {
	for i := range p.kLo {
		p.kLo[i], p.kHi[i] = kw, -1
	}
	p.kLo[j], p.kHi[j] = k, k
}

// advance publishes the just-relaxed stage's destination ranges as the
// next stage's source ranges.
func (p *relaxPool) advance() {
	p.kLo, p.nxtKLo = p.nxtKLo, p.kLo
	p.kHi, p.nxtKHi = p.nxtKHi, p.kHi
}

// run relaxes p.stage across at most `workers` goroutines and returns the
// number of states expanded (identical for every worker count). The
// destination columns split into contiguous chunks, one per helper
// goroutine, all joined before run returns. The caller only waits: had it
// relaxed a chunk itself, the last helper started would sit in its
// processor's run-next slot, which an idle processor steals only after a
// delay, and on the production grid that cost an exact solve ~25 %.
func (p *relaxPool) run(workers int) int {
	s := &p.stage
	s.kLo, s.kHi = p.kLo, p.kHi
	s.nxtKLo, s.nxtKHi = p.nxtKLo, p.nxtKHi
	s.useAsm = useAsmKernels
	cols := s.nxtMaxJ - s.nxtMinJ + 1
	if cols <= 0 {
		return 0
	}
	workers = min(workers, cols, len(p.per))
	if workers <= 1 {
		return s.gather(s.nxtMinJ, s.nxtMaxJ, &p.per[0])
	}
	chunk := (cols + workers - 1) / workers
	w := 0
	for ; w < workers; w++ {
		a := s.nxtMinJ + w*chunk
		if a > s.nxtMaxJ {
			break
		}
		p.lo[w], p.hi[w] = a, min(a+chunk-1, s.nxtMaxJ)
		p.wg.Add(1)
		go p.helpers[w]()
	}
	p.wg.Wait()
	expanded := 0
	for _, c := range p.counts[:w] {
		expanded += c
	}
	return expanded
}

// gather relaxes the destination columns [j2a, j2b]. Only this call writes
// those columns' cells and range entries.
func (s *stageRelax) gather(j2a, j2b int, sc *relaxScratch) int {
	expanded := 0
	kw := s.kMax + 1
	kMaxF := float64(s.kMax)
	for j2 := j2a; j2 <= j2b; j2++ {
		minW, maxW := kw, -1
		jA := max(s.bands.pLo[j2], s.curMinJ)
		jB := min(s.bands.pHi[j2], s.curMaxJ)
		if jA <= jB {
			// [:kw] reslices teach the bounds-check pass that one k2 < kw
			// test covers all three scatter writes.
			dstCost := s.nxtCost[j2*kw:][:kw]
			dstExact := s.nxtExact[j2*kw:][:kw]
			dstBack := s.nxtBack[(j2-s.nxtMinJ)*kw:][:kw]
			row := j2 * s.tw
			for j := jA; j <= jB; j++ {
				if j2 < s.bands.lo[j] || j2 > s.bands.hi[j] {
					continue
				}
				t := row + j
				if !s.tr.okT[t] {
					continue // zero average speed or beyond the power envelope
				}
				lo, hi := s.kLo[j], s.kHi[j]
				if lo > hi {
					continue // no finite source cell in this column
				}
				step := s.dwell + s.dTauT[t]
				zeta := s.tr.zetaT[t]
				// Rounded before relaxEval adds it, as the AVX2 kernel
				// receives it: the conversion keeps arm64 from fusing it
				// into the lane sum.
				tCost := float64(s.timeW * step)
				packed := int32(j) << 16
				// Evaluate the finite span as 4-aligned lanes; buckets below
				// lo inside the alignment slack hold the inf sentinel and
				// mask out.
				a := lo &^ 3
				n := hi + 1 - a
				srcCost := s.curCost[j*kw+a : j*kw+a+n]
				srcExact := s.curExact[j*kw+a : j*kw+a+n]
				nb := (n + 3) >> 2
				mask := sc.mask[:nb]
				relaxEval(sc.cand[:n], sc.tot[:n], sc.k2f[:n], mask,
					srcCost, srcExact, zeta, tCost, step, s.maxTrip, s.invDt, kMaxF, s.useAsm)
				if s.useAsm {
					exp, kept := improveFilter(mask, sc.cand[:n], sc.k2f[:n], nil, sc.rowOff[:n], 0, dstCost,
						kMaxF, true)
					expanded += exp
					if kept == 0 {
						continue
					}
				} else {
					expanded += maskCount(mask)
				}
				// Commit the surviving lanes: ascending k via the packed
				// mask; the window penalty needs the absolute arrival time,
				// so it lands here rather than in the lanes. Arrival times
				// ascend with k inside a row (each bucket stores the exact
				// elapsed time that rounds to it), and the windows are sorted
				// and disjoint, so a cursor replaces the per-lane window scan.
				wi := 0
				tt, cd, kf := sc.tot[:n], sc.cand[:n], sc.k2f[:n]
				for bi, m := range mask {
					if m == 0 {
						continue
					}
					base := bi << 2
					for ; m != 0; m &= m - 1 {
						i := base + bits.TrailingZeros8(m)
						if i >= len(tt) {
							break // unreachable: mask bits past n are never set
						}
						tot := tt[i]
						nc := cd[i]
						if s.hasWin {
							t := s.depart + tot
							for wi < len(s.ws) && s.ws[wi].End <= t {
								wi++
							}
							if wi >= len(s.ws) || t < s.ws[wi].Start {
								nc += s.penalty
							}
						}
						k2 := int(kf[i])
						if uint(k2) >= uint(kw) {
							continue // unreachable: k2f is clamped to kMaxF
						}
						if nc < dstCost[k2] {
							dstCost[k2] = nc
							dstExact[k2] = tot
							dstBack[k2] = packed | int32(a+i)
							if k2 < minW {
								minW = k2
							}
							if k2 > maxW {
								maxW = k2
							}
						}
					}
				}
			}
		}
		s.nxtKLo[j2], s.nxtKHi[j2] = minW, maxW
	}
	return expanded
}
