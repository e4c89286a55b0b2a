package dp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
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

// filterDefinition is improveFilter's written definition, lane by lane:
// the clamped bucket, the floor added when there is one, the strict
// compare against the destination cell.
func filterDefinition(mask []uint8, cand, k2f, floor []float64, rowOff []int32, cost []float64, kMaxF float64) []uint8 {
	out := make([]uint8, len(mask))
	for c := range cand {
		if mask[c>>2]>>(c&3)&1 == 0 {
			continue
		}
		f := k2f[c]
		if !(f > 0) {
			f = 0
		}
		b := int(math.Min(f, kMaxF))
		nc := cand[c]
		if floor != nil {
			nc += floor[b]
		}
		if nc < cost[int(rowOff[c])+b] {
			out[c>>2] |= 1 << (c & 3)
		}
	}
	return out
}

// checkImproveFilter runs improveFilter on one row with the Go reference
// and, where the CPU has AVX2, the asm kernel. Both must return the input
// mask's lane count as expanded and the output mask's as kept, the Go
// mask must match filterDefinition bit for bit, and the asm mask the Go
// one.
func checkImproveFilter(t *testing.T, shape string, mask []uint8, cand, k2f, floor []float64, rowOff []int32,
	maxRowOff int, cost []float64, kMaxF float64) {
	t.Helper()
	n := len(cand)
	want := maskCount(mask)
	def := filterDefinition(mask, cand, k2f, floor, rowOff, cost, kMaxF)
	for _, asm := range []bool{false, asmSupported} {
		got := append([]uint8(nil), mask...)
		expanded, kept := improveFilter(got, cand, k2f, floor, rowOff, maxRowOff, cost, kMaxF, asm)
		if expanded != want {
			t.Fatalf("%s n=%d %s: filter counted %d lanes, mask holds %d", shape, n, kernelName(asm), expanded, want)
		}
		if kept != maskCount(got) {
			t.Fatalf("%s n=%d %s: filter kept %d lanes, output mask holds %d", shape, n, kernelName(asm), kept, maskCount(got))
		}
		for b := range got {
			if got[b] != def[b] {
				t.Fatalf("%s n=%d %s mask byte %d: %04b, definition says %04b", shape, n, kernelName(asm), b, got[b], def[b])
			}
		}
	}
}

// floorRows returns the penalty-floor rows a kw-bucket filter test runs
// under: none (the gather's nil), all zero, a random 0/p mix whose bucket 0
// (where NaN and negative buckets clamp) holds p, and p everywhere, which
// also prices lanes bound for inf-sentinel cells.
func floorRows(rng *rand.Rand, kw int, p float64) map[string][]float64 {
	zero, mixed, full := make([]float64, kw), make([]float64, kw), make([]float64, kw)
	for k := range mixed {
		if k == 0 || rng.Intn(2) == 0 {
			mixed[k] = p
		}
		full[k] = p
	}
	return map[string][]float64{"nil": nil, "zero": zero, "mixed": mixed, "full": full}
}

// TestImproveFilterAsmMatchesGo pins the pre-test's parity contract: the
// AVX2 gather kernel and the portable reference leave bit-identical masks,
// equal to the written definition, and return the same pre-filter and kept
// lane counts for every length, including ragged tails, lanes sharing a
// destination cell, inf-sentinel cells and NaN buckets, for both callers'
// shapes — the stitch's crossings spread over a banded slab, and the
// sweep's gather rows with all-zero offsets into one kw-long column — and
// under every penalty-floor row.
func TestImproveFilterAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const rows, kw = 5, 16
	for n := 1; n <= 1000; n += 1 + n/16 {
		mask, cand, k2f, rowOff, maxRowOff, cost := filterRow(rng, n, rows, kw)
		for name, floor := range floorRows(rng, kw, 1) {
			checkImproveFilter(t, "stitch/"+name, mask, cand, k2f, floor, rowOff, maxRowOff, cost, kw-1)
		}
	}
	const gatherKw = 421 // the production grid's bucket count
	for n := 1; n <= gatherKw; n += 1 + n/16 {
		mask, cand, k2f, rowOff, cost := gatherRow(rng, n, gatherKw)
		checkImproveFilter(t, "gather", mask, cand, k2f, nil, rowOff, 0, cost, gatherKw-1)
	}
}

// FuzzImproveFilter checks improveFilter on fuzzed rows, penalty floor
// included: each lane is a control byte (bit 0 masks it in, bits 1-3 pick
// its destination row, bit 4 makes its bucket a near-range integer rather
// than raw float bits, bit 5 ties its candidate to its cell) followed by
// the raw bits of its candidate and bucket; the seed draws the slab
// (inf-sentinel and NaN cells included) and the floor row, whose kind is
// nil, zero, a 0/p mix or arbitrary values with NaN and infinities.
func FuzzImproveFilter(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	for i, n := range []int{1, 4, 7, 16, 33, 100} {
		lanes := make([]byte, 17*n)
		rng.Read(lanes)
		f.Add(int64(i), uint8(i), uint8(5*n), uint8(i), lanes)
	}
	f.Fuzz(func(t *testing.T, seed int64, rowsB, kwB, floorKind uint8, lanes []byte) {
		rows, kw := 1+int(rowsB%8), 1+int(kwB%64)
		n := min(len(lanes)/17, 1024)
		if n == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		cost := make([]float64, rows*kw)
		for i := range cost {
			switch r := rng.Float64(); {
			case r < 0.2:
				cost[i] = inf
			case r < 0.22:
				cost[i] = math.NaN()
			default:
				cost[i] = rng.NormFloat64()
			}
		}
		var floor []float64
		switch floorKind % 4 {
		case 1:
			floor = make([]float64, kw)
		case 2:
			floor = floorRows(rng, kw, rng.Float64()*2)["mixed"]
		case 3:
			floor = make([]float64, kw)
			for k := range floor {
				floor[k] = []float64{rng.NormFloat64(), math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(4)]
			}
		}
		mask := make([]uint8, (n+3)/4)
		cand, k2f, rowOff := make([]float64, n), make([]float64, n), make([]int32, n)
		maxRowOff := 0
		for c := 0; c < n; c++ {
			lane := lanes[17*c:]
			ctl := lane[0]
			mask[c>>2] |= (ctl & 1) << (c & 3)
			rowOff[c] = int32(int(ctl>>1&7) % rows * kw)
			maxRowOff = max(maxRowOff, int(rowOff[c]))
			cand[c] = math.Float64frombits(binary.LittleEndian.Uint64(lane[1:]))
			bucket := binary.LittleEndian.Uint64(lane[9:])
			k2f[c] = math.Float64frombits(bucket)
			if ctl&16 != 0 {
				k2f[c] = float64(int(bucket%uint64(kw+8)) - 4)
			}
			if ctl&32 != 0 {
				f := k2f[c]
				if !(f > 0) {
					f = 0
				}
				cand[c] = cost[int(rowOff[c])+int(math.Min(f, float64(kw-1)))]
			}
		}
		checkImproveFilter(t, "fuzz", mask, cand, k2f, floor, rowOff, maxRowOff, cost, float64(kw-1))
	})
}

// TestImproveFilterBoundsAsserted: a row offset that would gather past the
// destination slab, or a penalty floor shorter than the bucket range,
// panics before any lane is read.
func TestImproveFilterBoundsAsserted(t *testing.T) {
	cost := make([]float64, 2*8)
	for name, call := range map[string]func(){
		"row offset": func() {
			improveFilter([]uint8{0xf}, make([]float64, 4), make([]float64, 4), nil, []int32{0, 0, 8, 9}, 9, cost, 7, asmSupported)
		},
		"floor": func() {
			improveFilter([]uint8{0xf}, make([]float64, 4), make([]float64, 4), make([]float64, 7), make([]int32, 4), 8, cost, 7, asmSupported)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range accepted", name)
				}
			}()
			call()
		}()
	}
}

// TestPenaltyFloor pins the floor's one safety property: for any arrival
// time, floor[bucket] never exceeds the penalty the commit's window test
// adds, where the bucket is relaxEval's (clamped as improveFilter clamps
// it) and the test is the definition — penalized unless some window holds
// depart+tot in [Start, End). Departures are zero, integral and
// fractional, Δt is 1, 0.5, 0.7 and 0.3 (0.3's rounded products put some
// arrivals one ulp below their bucket's span, which the margin must
// cover), and window edges sit on, and one ulp either side of,
// bucket half-points (the span edges) or at random times, overlapping
// windows included. Arrival times are sampled at every bucket's edges,
// ±1–2 ulp, and its centre. The floor must also price: a bucket whose
// span misses every window by a millisecond must hold the penalty.
func TestPenaltyFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const kw, p = 96, 1.0
	kMaxF := float64(kw - 1)
	floor := make([]float64, kw)
	priced := 0
	for trial := 0; trial < 2000; trial++ {
		dt := []float64{1, 0.5, 0.7, 0.3}[trial%4]
		depart := 0.0
		if trial/4%4 != 0 {
			depart = float64(rng.Intn(600))
		}
		if trial/4%4 > 1 {
			depart += []float64{rng.Float64(), 0.5, 0.25, 1.0 / 3}[rng.Intn(4)]
		}
		edge := func() float64 {
			x := depart + (float64(rng.Intn(kw+4)-2)+0.5)*dt
			switch rng.Intn(4) {
			case 0:
				return math.Nextafter(x, math.Inf(1))
			case 1:
				return math.Nextafter(x, math.Inf(-1))
			case 2:
				return depart + rng.Float64()*float64(kw)*dt
			}
			return x
		}
		ws := make([]queue.Window, rng.Intn(6))
		for i := range ws {
			a, b := edge(), edge()
			if a > b {
				a, b = b, a
			}
			if a == b {
				b = math.Nextafter(b, math.Inf(1))
			}
			ws[i] = queue.Window{Start: a, End: b}
		}
		sort.Slice(ws, func(a, b int) bool { return ws[a].Start < ws[b].Start })
		penaltyFloor(floor, ws, depart, dt, p)

		penalty := func(tot float64) float64 {
			at := depart + tot
			for _, w := range ws {
				if w.Start <= at && at < w.End {
					return 0
				}
			}
			return p
		}
		var cand, tot, k2f [1]float64
		var mask [1]uint8
		for k := 0; k < kw; k++ {
			for _, x := range []float64{(float64(k) - 0.5) * dt, (float64(k) + 0.5) * dt} {
				up, down := math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1))
				for _, a := range []float64{x, up, down, math.Nextafter(up, math.Inf(1)),
					math.Nextafter(down, math.Inf(-1)), float64(k) * dt} {
					relaxEvalGo(cand[:], tot[:], k2f[:], mask[:], []float64{0}, []float64{a},
						0, 0, 0, math.Inf(1), 1/dt, kMaxF, 0)
					f := k2f[0]
					if !(f > 0) {
						f = 0
					}
					if b := int(f); floor[b] > penalty(tot[0]) {
						t.Fatalf("trial %d depart %v dt %v windows %v: arrival %v (depart+tot %v) lands in bucket %d, floor %v exceeds its penalty %v",
							trial, depart, dt, ws, tot[0], depart+tot[0], b, floor[b], penalty(tot[0]))
					}
				}
			}
			lo, hi := depart+(float64(k)-0.5)*dt-1e-3, depart+(float64(k)+0.5)*dt+1e-3
			if k == 0 {
				lo = math.Inf(-1)
			}
			if k == kw-1 {
				hi = math.Inf(1)
			}
			clear := true
			for _, w := range ws {
				if w.Start <= hi && w.End > lo {
					clear = false
				}
			}
			if clear {
				if floor[k] != p {
					t.Fatalf("trial %d depart %v dt %v windows %v: bucket %d misses every window, floor %v, want %v",
						trial, depart, dt, ws, k, floor[k], p)
				}
				priced++
			}
		}
	}
	if priced == 0 {
		t.Fatal("no bucket was priced: the test never exercised a non-zero floor")
	}
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
				improveFilter(mask, cand, k2f, nil, rowOff, maxRowOff, cost, kw-1, asm)
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
