package dp

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"evvo/internal/queue"
)

// randLanes builds a source row like the DP's: a mix of finite costs and
// inf sentinels, with exact times that keep some lanes inside and some
// outside the trip budget. No NaNs, per the kernel contract.
func randLanes(rng *rand.Rand, n int) (cost, exact []float64) {
	cost = make([]float64, n)
	exact = make([]float64, n)
	for i := range cost {
		if rng.Float64() < 0.3 {
			cost[i] = inf
			// Unreached cells can hold any stale exact value, including huge
			// ones from a recycled slab.
			exact[i] = rng.Float64() * 1e12
			continue
		}
		cost[i] = rng.NormFloat64() * 3
		exact[i] = rng.Float64() * 900
	}
	return cost, exact
}

// TestRelaxEvalAsmMatchesGo pins the bit-parity contract: the AVX2 kernel
// must produce bit-identical lanes to the portable reference for every
// length, including ragged tails handled by the Go epilogue.
func TestRelaxEvalAsmMatchesGo(t *testing.T) {
	if !asmSupported {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 63, 64, 65, 421, 1000} {
		cost, exact := randLanes(rng, n)
		zeta := rng.NormFloat64()
		tCost := rng.Float64() * 0.01
		step := 1 + rng.Float64()*20
		maxTrip := 840.0
		invDt := 1 / 2.0
		kMaxF := 420.0

		nb := (n + 3) / 4
		aCand, aTot, aK2f := make([]float64, n), make([]float64, n), make([]float64, n)
		aMask := make([]uint8, nb)
		gCand, gTot, gK2f := make([]float64, n), make([]float64, n), make([]float64, n)
		gMask := make([]uint8, nb)

		relaxEval(aCand, aTot, aK2f, aMask, cost, exact, zeta, tCost, step, maxTrip, invDt, kMaxF, true)
		relaxEval(gCand, gTot, gK2f, gMask, cost, exact, zeta, tCost, step, maxTrip, invDt, kMaxF, false)

		for k := 0; k < n; k++ {
			if math.Float64bits(aCand[k]) != math.Float64bits(gCand[k]) {
				t.Fatalf("n=%d lane %d cand: asm %x go %x", n, k, math.Float64bits(aCand[k]), math.Float64bits(gCand[k]))
			}
			if math.Float64bits(aTot[k]) != math.Float64bits(gTot[k]) {
				t.Fatalf("n=%d lane %d tot: asm %x go %x", n, k, math.Float64bits(aTot[k]), math.Float64bits(gTot[k]))
			}
			if math.Float64bits(aK2f[k]) != math.Float64bits(gK2f[k]) {
				t.Fatalf("n=%d lane %d k2f: asm %v go %v", n, k, aK2f[k], gK2f[k])
			}
		}
		for b := 0; b < nb; b++ {
			if aMask[b] != gMask[b] {
				t.Fatalf("n=%d mask byte %d: asm %04b go %04b", n, b, aMask[b], gMask[b])
			}
		}
	}
}

// filterRow builds a stitch-shaped filter input of n lanes over a
// destination slab of `rows` velocity rows by kw buckets: random
// trip-budget mask bits, crossings that share destination cells (few rows,
// a narrow bucket range), inf-sentinel cells in the slab, and candidates
// that tie their cell exactly. A few buckets sit outside [0, kMaxF], NaN
// included, to exercise the clamp.
func filterRow(rng *rand.Rand, n, rows, kw int) (mask []uint8, cand, k2f []float64, rowOff []int32, maxRowOff int, cost []float64) {
	cost = make([]float64, rows*kw)
	for i := range cost {
		cost[i] = rng.NormFloat64()
		if rng.Float64() < 0.2 {
			cost[i] = inf
		}
	}
	mask = make([]uint8, (n+3)/4)
	cand, k2f, rowOff = make([]float64, n), make([]float64, n), make([]int32, n)
	for c := 0; c < n; c++ {
		if rng.Float64() < 0.7 {
			mask[c>>2] |= 1 << (c & 3)
		}
		rowOff[c] = int32(rng.Intn(rows) * kw)
		maxRowOff = max(maxRowOff, int(rowOff[c]))
		k := min(rng.Intn(8), kw-1)
		k2f[c] = float64(k)
		cand[c] = rng.NormFloat64()
		switch r := rng.Float64(); {
		case r < 0.15:
			cand[c] = cost[int(rowOff[c])+k] // a tie never improves
		case r < 0.2:
			k2f[c] = []float64{-3, float64(kw) + 5, math.NaN()}[rng.Intn(3)]
		}
	}
	return mask, cand, k2f, rowOff, maxRowOff, cost
}

// gatherRow builds a gather-shaped filter input: filterRow's lanes over a
// single kw-long destination column, so every row offset is zero, with the
// buckets replaced by ascending ones the way relaxEval's rounded arrival
// times ascend: a random rate below one bucket per lane makes runs of
// consecutive lanes round to the same cell, and the last lanes clamp at
// kMaxF. Ties are redrawn against the new buckets.
func gatherRow(rng *rand.Rand, n, kw int) (mask []uint8, cand, k2f []float64, rowOff []int32, cost []float64) {
	mask, cand, k2f, rowOff, _, cost = filterRow(rng, n, 1, kw)
	rate, start := 0.2+0.6*rng.Float64(), float64(rng.Intn(kw/2))
	for c := range k2f {
		k2f[c] = math.Min(math.Floor(start+rate*float64(c)+0.5), float64(kw-1))
		if rng.Float64() < 0.15 {
			cand[c] = cost[int(k2f[c])] // a tie never improves
		}
	}
	return mask, cand, k2f, rowOff, cost
}

// TestImproveFilterAsmMatchesGo pins the pre-test's parity contract: the
// AVX2 gather kernel and the portable reference leave bit-identical masks
// and return the same pre-filter lane count for every length, including
// ragged tails, lanes sharing a destination cell and inf-sentinel cells,
// for both callers' shapes: the stitch's crossings spread over a banded
// slab, and the sweep's gather rows with all-zero offsets into one
// kw-long column. The Go reference is checked against the definition lane
// by lane.
func TestImproveFilterAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(shape string, n int, mask []uint8, cand, k2f []float64, rowOff []int32, maxRowOff int, cost []float64, kMaxF float64) {
		t.Helper()
		want := 0
		for _, m := range mask {
			want += bits.OnesCount8(m)
		}
		goMask := append([]uint8(nil), mask...)
		if got := improveFilter(goMask, cand, k2f, rowOff, maxRowOff, cost, kMaxF, false); got != want {
			t.Fatalf("%s n=%d: go filter counted %d lanes, mask holds %d", shape, n, got, want)
		}
		for c := 0; c < n; c++ {
			f := k2f[c]
			if !(f > 0) {
				f = 0
			}
			f = math.Min(f, kMaxF)
			in := mask[c>>2]>>(c&3)&1 == 1
			keep := in && cand[c] < cost[int(rowOff[c])+int(f)]
			if got := goMask[c>>2]>>(c&3)&1 == 1; got != keep {
				t.Fatalf("%s n=%d lane %d: go filter kept %v, definition says %v", shape, n, c, got, keep)
			}
		}
		if !asmSupported {
			return
		}
		asmMask := append([]uint8(nil), mask...)
		if got := improveFilter(asmMask, cand, k2f, rowOff, maxRowOff, cost, kMaxF, true); got != want {
			t.Fatalf("%s n=%d: asm filter counted %d lanes, mask holds %d", shape, n, got, want)
		}
		for b := range goMask {
			if asmMask[b] != goMask[b] {
				t.Fatalf("%s n=%d mask byte %d: asm %04b go %04b", shape, n, b, asmMask[b], goMask[b])
			}
		}
	}
	const rows, kw = 5, 16
	for n := 1; n <= 1000; n += 1 + n/16 {
		mask, cand, k2f, rowOff, maxRowOff, cost := filterRow(rng, n, rows, kw)
		check("stitch", n, mask, cand, k2f, rowOff, maxRowOff, cost, kw-1)
	}
	const gatherKw = 421 // the production grid's bucket count
	for n := 1; n <= gatherKw; n += 1 + n/16 {
		mask, cand, k2f, rowOff, cost := gatherRow(rng, n, gatherKw)
		check("gather", n, mask, cand, k2f, rowOff, 0, cost, gatherKw-1)
	}
}

// TestImproveFilterBoundsAsserted: a row offset that would gather past the
// destination slab panics before any lane is read.
func TestImproveFilterBoundsAsserted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-slab row offset accepted")
		}
	}()
	cost := make([]float64, 2*8)
	improveFilter([]uint8{0xf}, make([]float64, 4), make([]float64, 4), []int32{0, 0, 8, 9}, 9, cost, 7, asmSupported)
}

// kernelName labels a kernel dispatch setting in benchmark names.
func kernelName(asm bool) string {
	if asm {
		return "avx2"
	}
	return "go"
}

// BenchmarkRelaxEval and BenchmarkImproveFilter time the two lane kernels
// on one production-sized stitch row (1024 crossings, every lane in the
// trip budget), so the lane work can be told apart from the scalar commits
// that BenchmarkStitchUS25 and BenchmarkOptimizeUS25 include.
func BenchmarkRelaxEval(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(3))
	cost, exact := make([]float64, n), make([]float64, n)
	for i := range cost {
		cost[i], exact[i] = rng.Float64(), rng.Float64()*300
	}
	sc := newRelaxScratch(n)
	for _, asm := range []bool{false, asmSupported} {
		b.Run(kernelName(asm), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				relaxEval(sc.cand, sc.tot, sc.k2f, sc.mask, cost, exact, 0.1, 0, 12, 840, 0.5, 420, asm)
			}
		})
	}
}

func BenchmarkImproveFilter(b *testing.B) {
	const n, rows, kw = 1024, 11, 421
	rng := rand.New(rand.NewSource(5))
	_, cand, k2f, rowOff, maxRowOff, cost := filterRow(rng, n, rows, kw)
	for i := range k2f {
		k2f[i] = float64(rng.Intn(kw))
	}
	mask := make([]uint8, n/4)
	for _, asm := range []bool{false, asmSupported} {
		b.Run(kernelName(asm), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range mask {
					mask[j] = 0xf
				}
				improveFilter(mask, cand, k2f, rowOff, maxRowOff, cost, kw-1, asm)
			}
		})
	}
}

// TestRelaxEvalClampAndSentinel exercises the two delicate lanes of the
// contract directly: the kMaxF clamp (floor result above the bucket range)
// and the inf sentinel match (NEQ on the exact MaxFloat64 bit pattern).
func TestRelaxEvalClampAndSentinel(t *testing.T) {
	cost := []float64{0, inf, 1, 2}
	exact := []float64{0, 0, 1e6, 839}
	cand, tot, k2f := make([]float64, 4), make([]float64, 4), make([]float64, 4)
	mask := make([]uint8, 1)
	for _, useAsm := range []bool{false, asmSupported} {
		relaxEval(cand, tot, k2f, mask, cost, exact, 0.5, 0.01, 1, 840, 0.5, 420, useAsm)
		if k2f[2] != 420 {
			t.Fatalf("useAsm=%v: clamp failed, k2f=%v", useAsm, k2f[2])
		}
		// Lane 0 feasible, lane 1 inf-masked, lane 2 over budget, lane 3 at
		// the budget edge (tot = 840 <= 840).
		if mask[0] != 0b1001 {
			t.Fatalf("useAsm=%v: mask %04b, want 1001", useAsm, mask[0])
		}
	}
}

// TestSolveParityKernelsOnOff runs the full Fig-6-style solve with kernels
// forced on and off and requires bit-identical results, for serial and
// parallel relaxation. This is the end-to-end form of the parity contract.
func TestSolveParityKernelsOnOff(t *testing.T) {
	if !asmSupported {
		t.Skip("no AVX2 on this CPU")
	}
	wf, err := QueueAwareWindows(queue.US25Params(),
		ConstantArrivalRate(queue.VehPerHour(153)), 0, 900)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cfg := coarseUS25(wf)
		cfg.DepartTime = 40
		cfg.StopDwellSec = 2
		cfg.Workers = workers

		prev := SetAsmKernels(true)
		on, errOn := Optimize(cfg)
		SetAsmKernels(false)
		off, errOff := Optimize(cfg)
		SetAsmKernels(prev)

		if errOn != nil || errOff != nil {
			t.Fatalf("workers=%d: errOn=%v errOff=%v", workers, errOn, errOff)
		}
		requireIdenticalResults(t, on, off, "kernels on vs off")
	}
}

func TestSetAsmKernelsReportsState(t *testing.T) {
	prev := SetAsmKernels(false)
	if KernelsEnabled() {
		t.Fatal("kernels reported enabled after SetAsmKernels(false)")
	}
	SetAsmKernels(true)
	if KernelsEnabled() != asmSupported {
		t.Fatalf("KernelsEnabled=%v, want asmSupported=%v", KernelsEnabled(), asmSupported)
	}
	SetAsmKernels(prev)
}
