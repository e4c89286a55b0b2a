package dp

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"evvo/internal/ev"
	"evvo/internal/queue"
	"evvo/internal/road"
)

// stitchGrids are the grids TestStitchGolden pins: the production default,
// the coarse test grid with a stop dwell, a Δt that does not divide the
// crossing durations evenly, and an off-ratio grid with a 1 s dwell.
func stitchGrids() []Config {
	base := func(ds, dv, dt, dwell float64) Config {
		return Config{Route: road.US25(), Vehicle: ev.SparkEV(),
			DsM: ds, DvMS: dv, DtSec: dt, StopDwellSec: dwell}
	}
	return []Config{
		base(0, 0, 0, 0),
		base(100, 1, 2, 2),
		base(50, 0.5, 0.7, 0),
		base(75, 0.75, 1.5, 1),
	}
}

// stitchRequest is request i of the golden stream on the grid cfg: departure
// i·3.7 s, arrival rate 100+10·(i%16) veh/h, and a window variant cycling
// queue-aware, green, none.
func stitchRequest(t testing.TB, cfg Config, i int) Config {
	t.Helper()
	cfg.DepartTime = 3.7 * float64(i)
	switch i % 3 {
	case 0:
		wf, err := QueueAwareWindows(queue.US25Params(),
			ConstantArrivalRate(queue.VehPerHour(float64(100+10*(i%16)))), 0, 1200)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Windows = wf
	case 1:
		cfg.Windows = GreenWindows(0, 1200)
	}
	return cfg
}

// resultHash digests a plan bit for bit: charge and trip bits, the penalty
// flag, the expansion count and every profile point.
func resultHash(h interface{ Write([]byte) (int, error) }, res *Result) {
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:])
	}
	put(math.Float64bits(res.ChargeAh))
	put(math.Float64bits(res.TripSec))
	if res.Penalized {
		put(1)
	} else {
		put(0)
	}
	put(uint64(res.StatesExpanded))
	for _, p := range res.Profile.Points() {
		put(math.Float64bits(p.T))
		put(math.Float64bits(p.Pos))
		put(math.Float64bits(p.V))
	}
}

// TestStitchGolden pins stitched plans bit for bit across four grids and a
// 60-request stream each (240 plans): the stitch's boundary DP is a
// performance target, and any change to its visit order, tie-break, bucket
// rule or window test shows up here as a different digest.
func TestStitchGolden(t *testing.T) {
	const want = 0x545e49a17a61aedc
	h := fnv.New64a()
	for gi, grid := range stitchGrids() {
		rt := buildTestTables(t, grid)
		for i := 0; i < 60; i++ {
			res, err := rt.StitchCtx(context.Background(), stitchRequest(t, grid, i))
			if err != nil {
				t.Fatalf("grid %d request %d: %v", gi, i, err)
			}
			resultHash(h, res)
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("stitched plans hash %#016x, want %#016x", got, uint64(want))
	}
}

// TestStitchCtxConcurrentPooled: concurrent stitches on one RouteTables
// share the pooled slabs without interference — every result equals the
// serial stitch of the same request. The name matches `make chaos`'s Ctx
// filter, so the check also runs under the race detector.
func TestStitchCtxConcurrentPooled(t *testing.T) {
	const goroutines, perG = 4, 6
	grid := stitchGrids()[1]
	rt := buildTestTables(t, grid)
	cfgs := make([]Config, goroutines*perG)
	want := make([]uint64, len(cfgs))
	for i := range cfgs {
		cfgs[i] = stitchRequest(t, grid, i)
		res, err := rt.StitchCtx(context.Background(), cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		resultHash(h, res)
		want[i] = h.Sum64()
	}
	got := make([]uint64, len(want))
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < perG; r++ {
				// Interleave the requests so goroutines hand slabs of
				// different windows and departures through the pool.
				i := r*goroutines + g
				res, err := rt.StitchCtx(context.Background(), cfgs[i])
				if err != nil {
					errs[g] = err
					return
				}
				h := fnv.New64a()
				resultHash(h, res)
				got[i] = h.Sum64()
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d: concurrent stitch hash %#016x, serial %#016x", i, got[i], want[i])
		}
	}
}

// TestStitchCtxWarmAllocs: with the slab pool warm, a production-grid
// US-25 stitch allocates only its result and per-request window set — the
// boundary slabs, backpointers and lanes all come from the pool.
func TestStitchCtxWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	const budget = 256 << 10 // bytes per stitch
	grid := stitchGrids()[0]
	rt := buildTestTables(t, grid)
	cfg := stitchRequest(t, grid, 0)
	if _, err := rt.StitchCtx(context.Background(), cfg); err != nil {
		t.Fatal(err) // warm the pool
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := rt.StitchCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Fatalf("warm StitchCtx allocates %d B per call, budget %d B", per, budget)
	} else {
		t.Logf("warm StitchCtx allocates %d B per call", per)
	}
}

// BenchmarkStitchUS25 times a warm production-grid stitch (tables built
// outside the timer), the per-request cost a serving node pays.
func BenchmarkStitchUS25(b *testing.B) {
	grid := stitchGrids()[0]
	rt, err := BuildRouteTables(context.Background(), grid)
	if err != nil {
		b.Fatal(err)
	}
	cfg := stitchRequest(b, grid, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.StitchCtx(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
