// The `dp` subcommand: solver micro-benchmark for the Fig-6 queue-aware
// problem across the four serving modes — exact DP with the relaxation
// kernels forced off (the portable scalar path), exact DP with the AVX2
// kernels, the coarse-to-fine fast path (DESIGN.md §12), and a warm stitch
// from segment tables built outside the timer (DESIGN.md §11) — plus,
// beside those warm modes, the cold table build on the production grid.
// It emits a text table and, with -out, the BENCH_dp.json artifact `make
// bench-dp` and CI archive.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"evvo/internal/dp"
	"evvo/internal/ev"
	"evvo/internal/experiments"
	"evvo/internal/queue"
	"evvo/internal/road"
	"evvo/internal/units"
)

// dpDocumentedSeedMs is the Fig-6 exact solve time documented before the
// kernel work (README/ROADMAP), kept in the report for cross-machine
// reference. Speedups are computed against the scalar mode measured in the
// same run, on the same machine — the honest denominator.
const dpDocumentedSeedMs = 2.3

// dpCoarseEpsAh is the coarse-to-fine error bound re-checked per run (the
// dp package's property tests pin it; this guards the benchmark artifact).
const dpCoarseEpsAh = 1e-3

// dpCoarseFactor is the velocity-grid factor of the coarse-refine mode:
// cloudd's coarse-grid ladder rung runs at it by default, so the mode
// times the solve that rung runs (corridor 2·3·Δv = 6 m/s on this grid).
const dpCoarseFactor = 3

// dpStitchTolAh bounds the warm stitch's charge gap to the exact solve: the
// two bucket elapsed time differently inside segments (DESIGN.md §11), the
// same tolerance TestStitchMatchesMonolithicFig6 pins.
const dpStitchTolAh = 0.01

// dpBenchMode is one timed solver configuration.
type dpBenchMode struct {
	Name string `json:"name"`
	// MinMs is the minimum solve time over the iterations — the standard
	// noise-resistant statistic on a shared machine; MedianMs shows spread.
	MinMs    float64 `json:"minMs"`
	MedianMs float64 `json:"medianMs"`
	// SpeedupVsScalar = scalar MinMs / this mode's MinMs.
	SpeedupVsScalar float64 `json:"speedupVsScalar"`
	PlannedMAh      float64 `json:"plannedMAh"`
	TripSec         float64 `json:"tripSec"`
	StatesExpanded  int     `json:"statesExpanded"`
	Refined         bool    `json:"refined,omitempty"`
}

// dpBenchReport is the BENCH_dp.json payload.
type dpBenchReport struct {
	Figure           string        `json:"figure"` // the benchmarked problem
	Iterations       int           `json:"iterations"`
	KernelsAvailable bool          `json:"kernelsAvailable"`
	DocumentedSeedMs float64       `json:"documentedSeedMs"`
	Modes            []dpBenchMode `json:"modes"`
	// StitchOverSolve = stitch-warm MinMs / exact-kernels MinMs: what a
	// warm plan costs relative to solving it from scratch.
	StitchOverSolve float64 `json:"stitch_over_solve"`
	// ColdBuild is the cold start the warm stitch-warm mode leaves out.
	ColdBuild dpColdBuild `json:"coldBuild"`
}

// dpColdBuild times dp.BuildRouteTables on US-25's production grid (the
// serving tier's table build, DESIGN.md §11): what the first request for a
// route waits for on a node without its tables (the solver's slab pools
// already warm). It runs at the default worker count, which fans the entry
// sweeps out, and at Workers 1.
type dpColdBuild struct {
	Grid           string  `json:"grid"`
	Workers        int     `json:"workers"` // the default, runtime.GOMAXPROCS(0)
	MinMs          float64 `json:"minMs"`
	MedianMs       float64 `json:"medianMs"`
	SerialMinMs    float64 `json:"serialMinMs"` // Workers 1
	SerialMedianMs float64 `json:"serialMedianMs"`
	SegmentSolves  int     `json:"segmentSolves"`
	Crossings      int     `json:"crossings"`
}

// dpFig6Config is the Fig-6(b) queue-aware problem on the figure grid,
// matching BenchmarkFig6QueueAwareDP in bench_test.go.
func dpFig6Config() (dp.Config, error) {
	wf, err := dp.QueueAwareWindows(queue.US25Params(),
		dp.ConstantArrivalRate(queue.VehPerHour(153)), 40, 840)
	if err != nil {
		return dp.Config{}, err
	}
	return dp.Config{
		Route: road.US25(), Vehicle: ev.SparkEV(), DepartTime: 40,
		DsM: 100, DvMS: 1, DtSec: 2, StopDwellSec: 2,
		Windows: wf,
	}, nil
}

// dpTimeMode runs solve iters times and reports (min ms, median ms, last
// result). One warmup solve precedes the timed runs so slab-pool and
// transition-cache fills do not count against the first iteration.
func dpTimeMode(solve func() (*dp.Result, error), iters int) (minMs, medMs float64, res *dp.Result, err error) {
	minMs, medMs, err = dpTime(func() error {
		res, err = solve()
		return err
	}, iters)
	return minMs, medMs, res, err
}

// dpTime runs fn once untimed, then iters timed times, and reports the
// min and median in ms.
func dpTime(fn func() error, iters int) (minMs, medMs float64, err error) {
	if err = fn(); err != nil {
		return 0, 0, err
	}
	times := make([]float64, iters)
	for i := range times {
		start := time.Now()
		if err = fn(); err != nil {
			return 0, 0, err
		}
		times[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	sort.Float64s(times)
	return times[0], times[iters/2], nil
}

// dpColdBuildBench times the production-grid table build at the default
// worker count and at Workers 1; the two must build identical tables.
func dpColdBuildBench(ctx context.Context, iters int) (dpColdBuild, error) {
	cfg := dp.Config{Route: road.US25(), Vehicle: ev.SparkEV()}
	var rt *dp.RouteTables
	build := func(workers int) func() error {
		return func() (err error) {
			c := cfg
			c.Workers = workers
			rt, err = dp.BuildRouteTables(ctx, c)
			return err
		}
	}
	sMin, sMed, err := dpTime(build(1), iters)
	if err != nil {
		return dpColdBuild{}, err
	}
	serial := rt
	cMin, cMed, err := dpTime(build(0), iters)
	if err != nil {
		return dpColdBuild{}, err
	}
	// The exports hold the flat table payloads, so this compares every
	// crossing bit for bit.
	if !reflect.DeepEqual(rt.Export(), serial.Export()) {
		return dpColdBuild{}, fmt.Errorf("fanned-out and serial builds differ")
	}
	return dpColdBuild{
		Grid: "us25-production", Workers: runtime.GOMAXPROCS(0),
		MinMs: cMin, MedianMs: cMed, SerialMinMs: sMin, SerialMedianMs: sMed,
		SegmentSolves: rt.SegmentSolves(), Crossings: rt.Crossings(),
	}, nil
}

// optimizeFn adapts dp.Optimize on a fixed config to dpTimeMode.
func optimizeFn(cfg dp.Config) func() (*dp.Result, error) {
	return func() (*dp.Result, error) { return dp.Optimize(cfg) }
}

// dpBench runs the four modes and assembles the report. The scalar and
// kernel modes must agree bit-for-bit (the parity contract); the coarse
// mode must stay within dpCoarseEpsAh of the exact charge, the warm stitch
// within dpStitchTolAh.
func dpBench(fid experiments.Fidelity) (*dpBenchReport, error) {
	iters := 50
	if fid == experiments.FidelityFast {
		iters = 8
	}
	cfg, err := dpFig6Config()
	if err != nil {
		return nil, err
	}
	rep := &dpBenchReport{
		Figure: "fig6-queue-aware", Iterations: iters,
		DocumentedSeedMs: dpDocumentedSeedMs,
	}

	prev := dp.SetAsmKernels(false)
	defer dp.SetAsmKernels(prev)
	sMin, sMed, sRes, err := dpTimeMode(optimizeFn(cfg), iters)
	if err != nil {
		return nil, fmt.Errorf("scalar mode: %w", err)
	}

	dp.SetAsmKernels(true)
	rep.KernelsAvailable = dp.KernelsEnabled()
	kMin, kMed, kRes, err := dpTimeMode(optimizeFn(cfg), iters)
	if err != nil {
		return nil, fmt.Errorf("kernel mode: %w", err)
	}
	if kRes.ChargeAh != sRes.ChargeAh || kRes.TripSec != sRes.TripSec {
		return nil, fmt.Errorf("kernel/scalar parity broken: %v Ah vs %v Ah", kRes.ChargeAh, sRes.ChargeAh)
	}

	ctx := context.Background()
	cMin, cMed, cRes, err := dpTimeMode(func() (*dp.Result, error) {
		return dp.OptimizeCoarseCtx(ctx, cfg, dpCoarseFactor)
	}, iters)
	if err != nil {
		return nil, fmt.Errorf("coarse-refine mode: %w", err)
	}
	if cRes.Refined == nil {
		return nil, fmt.Errorf("coarse-refine result missing Refined diagnostic")
	}
	if gap := cRes.ChargeAh - sRes.ChargeAh; gap < -1e-12 || gap > dpCoarseEpsAh {
		return nil, fmt.Errorf("coarse-refine charge %v vs exact %v: outside [0, %g] Ah",
			cRes.ChargeAh, sRes.ChargeAh, dpCoarseEpsAh)
	}

	// Warm stitch: the tables are built once, outside the timer, exactly
	// as a serving node holds them; only StitchCtx is timed.
	rt, err := dp.BuildRouteTables(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("stitch-warm tables: %w", err)
	}
	wMin, wMed, wRes, err := dpTimeMode(func() (*dp.Result, error) { return rt.StitchCtx(ctx, cfg) }, iters)
	if err != nil {
		return nil, fmt.Errorf("stitch-warm mode: %w", err)
	}
	if gap := wRes.ChargeAh - kRes.ChargeAh; gap < -dpStitchTolAh || gap > dpStitchTolAh || wRes.Penalized != kRes.Penalized {
		return nil, fmt.Errorf("stitch-warm charge %v Ah (penalized %v) vs exact %v Ah (penalized %v): outside ±%g Ah",
			wRes.ChargeAh, wRes.Penalized, kRes.ChargeAh, kRes.Penalized, dpStitchTolAh)
	}
	rep.StitchOverSolve = wMin / kMin

	mode := func(name string, minMs, medMs float64, r *dp.Result) dpBenchMode {
		return dpBenchMode{
			Name: name, MinMs: minMs, MedianMs: medMs,
			SpeedupVsScalar: sMin / minMs,
			PlannedMAh:      units.AhToMAh(r.ChargeAh),
			TripSec:         r.TripSec,
			StatesExpanded:  r.StatesExpanded,
			Refined:         r.Refined != nil,
		}
	}
	rep.Modes = []dpBenchMode{
		mode("exact-scalar", sMin, sMed, sRes),
		mode("exact-kernels", kMin, kMed, kRes),
		mode("coarse-refine", cMin, cMed, cRes),
		mode("stitch-warm", wMin, wMed, wRes),
	}
	if rep.ColdBuild, err = dpColdBuildBench(ctx, iters); err != nil {
		return nil, fmt.Errorf("cold build: %w", err)
	}
	return rep, nil
}

// Render prints the benchmark table.
func (r *dpBenchReport) Render(w io.Writer) error {
	fmt.Fprintf(w, "DP solver bench — Fig. 6 queue-aware problem (%d iterations, kernels available: %v)\n",
		r.Iterations, r.KernelsAvailable)
	fmt.Fprintf(w, "documented pre-kernel solve time: %.1f ms (same problem, earlier revision)\n\n", r.DocumentedSeedMs)
	fmt.Fprintf(w, "%-14s %9s %9s %9s %12s %9s %8s\n",
		"mode", "min ms", "med ms", "speedup", "planned mAh", "trip s", "states")
	for _, m := range r.Modes {
		fmt.Fprintf(w, "%-14s %9.3f %9.3f %8.2fx %12.1f %9.1f %8d\n",
			m.Name, m.MinMs, m.MedianMs, m.SpeedupVsScalar, m.PlannedMAh, m.TripSec, m.StatesExpanded)
	}
	fmt.Fprintf(w, "\nstitch-warm / exact-kernels: %.2f\n", r.StitchOverSolve)
	cb := r.ColdBuild
	fmt.Fprintf(w, "cold table build (%s, %d solves, %d crossings): min %.3f ms, med %.3f ms at %d workers; min %.3f ms, med %.3f ms at 1\n",
		cb.Grid, cb.SegmentSolves, cb.Crossings, cb.MinMs, cb.MedianMs, cb.Workers, cb.SerialMinMs, cb.SerialMedianMs)
	return nil
}

// writeJSON writes the report to path as indented JSON.
func (r *dpBenchReport) writeJSON(path string) error {
	body, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}
