package evvo_test

import (
	"context"
	"fmt"
	"testing"

	"evvo/internal/dp"
	"evvo/internal/ev"
	"evvo/internal/experiments"
	"evvo/internal/metrics"
	"evvo/internal/queue"
	"evvo/internal/road"
	"evvo/internal/traffic"
)

// The benchmarks below regenerate each figure of the paper's evaluation
// (Section III) and report the headline quantity of that figure as a
// custom metric, so `go test -bench=. -benchmem` doubles as the
// reproduction harness. Fast fidelity keeps wall time reasonable; run
// `evbench` (cmd/evbench) for the full-resolution tables.

// BenchmarkFig3EnergySurface regenerates the ζ(v, a) surface of Fig. 3.
func BenchmarkFig3EnergySurface(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(ev.SparkEV())
		if err != nil {
			b.Fatal(err)
		}
		peak = r.RateAmps[len(r.RateAmps)-1][len(r.SpeedsKmh)-1]
	}
	b.ReportMetric(peak, "peak-amps")
}

// BenchmarkFig4SAETraining trains and scores the SAE volume predictor of
// Fig. 4, reporting the overall MRE (paper: < 10% per day).
func BenchmarkFig4SAETraining(b *testing.B) {
	var mre float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(experiments.FidelityFast)
		if err != nil {
			b.Fatal(err)
		}
		mre = r.OverallMRE
	}
	b.ReportMetric(mre*100, "MRE-%")
}

// BenchmarkFig5QueueModels evaluates the VM/QL models against the
// simulated ground truth of Fig. 5, reporting the VM queue-clear time.
func BenchmarkFig5QueueModels(b *testing.B) {
	var clear float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(experiments.FidelityFast)
		if err != nil {
			b.Fatal(err)
		}
		clear = r.VMClearSec
	}
	b.ReportMetric(clear, "clear-s")
}

// benchOptimize runs one DP variant on US-25 at the fast grid. workers = 0
// uses every core (the default); 1 pins the relaxation serial — outputs are
// bit-identical either way, so both report the same planned-mAh.
func benchOptimize(b *testing.B, windows dp.WindowsFunc, workers int) *dp.Result {
	b.Helper()
	cfg := dp.Config{
		Route: road.US25(), Vehicle: ev.SparkEV(), DepartTime: 40,
		DsM: 100, DvMS: 1, DtSec: 2, StopDwellSec: 2,
		Windows: windows, Workers: workers,
	}
	res, err := dp.Optimize(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig6BaselineDP times the green-window ("current") DP of
// Fig. 6(a).
func BenchmarkFig6BaselineDP(b *testing.B) {
	var mah float64
	for i := 0; i < b.N; i++ {
		res := benchOptimize(b, dp.GreenWindows(40, 840), 0)
		mah = res.ChargeAh * 1000
	}
	b.ReportMetric(mah, "planned-mAh")
}

// BenchmarkFig6QueueAwareDP times the proposed queue-aware DP of
// Fig. 6(b).
func BenchmarkFig6QueueAwareDP(b *testing.B) {
	wf, err := dp.QueueAwareWindows(queue.US25Params(),
		dp.ConstantArrivalRate(queue.VehPerHour(153)), 40, 840)
	if err != nil {
		b.Fatal(err)
	}
	var mah float64
	for i := 0; i < b.N; i++ {
		res := benchOptimize(b, wf, 0)
		mah = res.ChargeAh * 1000
	}
	b.ReportMetric(mah, "planned-mAh")
}

// BenchmarkFig6QueueAwareDPScalar times the queue-aware DP with the AVX2
// relaxation kernels forced off, isolating the assembly gain from the
// structure-of-arrays restructuring (outputs are bit-identical either way).
func BenchmarkFig6QueueAwareDPScalar(b *testing.B) {
	prev := dp.SetAsmKernels(false)
	defer dp.SetAsmKernels(prev)
	wf, err := dp.QueueAwareWindows(queue.US25Params(),
		dp.ConstantArrivalRate(queue.VehPerHour(153)), 40, 840)
	if err != nil {
		b.Fatal(err)
	}
	var mah float64
	for i := 0; i < b.N; i++ {
		res := benchOptimize(b, wf, 0)
		mah = res.ChargeAh * 1000
	}
	b.ReportMetric(mah, "planned-mAh")
}

// BenchmarkFig6QueueAwareDPCoarseRefine times the coarse-to-fine fast path
// at factor 3 — the factor of cloudd's coarse-grid ladder rung, with its
// corridor 2·3·Δv = 6 m/s — on the queue-aware problem; the reported
// planned-mAh shows any deviation from the exact solve's 1020.
func BenchmarkFig6QueueAwareDPCoarseRefine(b *testing.B) {
	wf, err := dp.QueueAwareWindows(queue.US25Params(),
		dp.ConstantArrivalRate(queue.VehPerHour(153)), 40, 840)
	if err != nil {
		b.Fatal(err)
	}
	var mah float64
	for i := 0; i < b.N; i++ {
		cfg := dp.Config{
			Route: road.US25(), Vehicle: ev.SparkEV(), DepartTime: 40,
			DsM: 100, DvMS: 1, DtSec: 2, StopDwellSec: 2,
			Windows: wf,
		}
		res, err := dp.OptimizeCoarseCtx(context.Background(), cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		if res.Refined == nil {
			b.Fatal("coarse-refine result missing Refined diagnostic")
		}
		mah = res.ChargeAh * 1000
	}
	b.ReportMetric(mah, "planned-mAh")
}

// BenchmarkFig6QueueAwareDPSerial pins the relaxation to one worker,
// isolating the transition-table hoisting gain from the parallel gain
// (compare against BenchmarkFig6QueueAwareDP on a multi-core machine).
func BenchmarkFig6QueueAwareDPSerial(b *testing.B) {
	wf, err := dp.QueueAwareWindows(queue.US25Params(),
		dp.ConstantArrivalRate(queue.VehPerHour(153)), 40, 840)
	if err != nil {
		b.Fatal(err)
	}
	var mah float64
	for i := 0; i < b.N; i++ {
		res := benchOptimize(b, wf, 1)
		mah = res.ChargeAh * 1000
	}
	b.ReportMetric(mah, "planned-mAh")
}

// BenchmarkSweepDepartures times the departure-sweep fan-out (7 departures
// over the worker pool), the serving-path unit of cmd/cloudd's /v1/advise.
func BenchmarkSweepDepartures(b *testing.B) {
	wf, err := dp.QueueAwareWindows(queue.US25Params(),
		dp.ConstantArrivalRate(queue.VehPerHour(400)), 0, 1200)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dp.Config{
		Route: road.US25(), Vehicle: ev.SparkEV(),
		DsM: 100, DvMS: 1, DtSec: 2, StopDwellSec: 2, Windows: wf,
	}
	for i := 0; i < b.N; i++ {
		if _, err := dp.SweepDepartures(cfg, 0, 60, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7EnergyComparison runs the full four-profile pipeline of
// Fig. 7 (drivers, both DPs, simulator execution over the trasi protocol)
// and reports the proposed method's saving vs fast driving (paper: 17.5%).
func BenchmarkFig7EnergyComparison(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(experiments.FidelityFast)
		if err != nil {
			b.Fatal(err)
		}
		s, err := r.Savings(experiments.KindFast)
		if err != nil {
			b.Fatal(err)
		}
		saving = s
	}
	b.ReportMetric(saving*100, "saving-vs-fast-%")
}

// BenchmarkFig8TripTime runs the same pipeline and reports the proposed
// method's trip time (paper: equal to fast driving, below current DP).
func BenchmarkFig8TripTime(b *testing.B) {
	var trip float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(experiments.FidelityFast)
		if err != nil {
			b.Fatal(err)
		}
		it, err := r.Item(experiments.KindProposed)
		if err != nil {
			b.Fatal(err)
		}
		trip = it.TripSec
	}
	b.ReportMetric(trip, "trip-s")
}

// BenchmarkAblationTimeResolution sweeps the DP's time discretization Δt —
// the resolution/runtime trade called out in DESIGN.md.
func BenchmarkAblationTimeResolution(b *testing.B) {
	for _, dt := range []float64{1, 2, 5} {
		b.Run(benchName("dt", dt), func(b *testing.B) {
			wf := dp.GreenWindows(40, 840)
			var mah float64
			for i := 0; i < b.N; i++ {
				cfg := dp.Config{
					Route: road.US25(), Vehicle: ev.SparkEV(), DepartTime: 40,
					DsM: 100, DvMS: 1, DtSec: dt, StopDwellSec: 2, Windows: wf,
				}
				res, err := dp.Optimize(cfg)
				if err != nil {
					b.Fatal(err)
				}
				mah = res.ChargeAh * 1000
			}
			b.ReportMetric(mah, "planned-mAh")
		})
	}
}

// BenchmarkAblationQueueWindow sweeps the queue-aware window margin: wider
// margins are robust to model error but shrink the admissible set.
func BenchmarkAblationQueueWindow(b *testing.B) {
	wf, err := dp.QueueAwareWindows(queue.US25Params(),
		dp.ConstantArrivalRate(queue.VehPerHour(153)), 40, 840)
	if err != nil {
		b.Fatal(err)
	}
	for _, margin := range []float64{1, 3, 6} {
		b.Run(benchName("margin", margin), func(b *testing.B) {
			var trip float64
			for i := 0; i < b.N; i++ {
				cfg := dp.Config{
					Route: road.US25(), Vehicle: ev.SparkEV(), DepartTime: 40,
					DsM: 100, DvMS: 1, DtSec: 2, StopDwellSec: 2,
					WindowMarginSec: margin, Windows: wf,
				}
				res, err := dp.Optimize(cfg)
				if err != nil {
					b.Fatal(err)
				}
				trip = res.TripSec
			}
			b.ReportMetric(trip, "trip-s")
		})
	}
}

// BenchmarkAblationSAEDepth sweeps SAE encoder depth for the traffic
// predictor, reporting test MRE per depth.
func BenchmarkAblationSAEDepth(b *testing.B) {
	all, err := traffic.Synthesize(traffic.SyntheticConfig{Weeks: 5, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	train, err := all.Slice(0, 4*traffic.HoursPerWeek)
	if err != nil {
		b.Fatal(err)
	}
	test, err := all.Slice(4*traffic.HoursPerWeek, 5*traffic.HoursPerWeek)
	if err != nil {
		b.Fatal(err)
	}
	for _, hidden := range [][]int{{32}, {32, 16}, {32, 16, 8}} {
		b.Run(benchName("layers", float64(len(hidden))), func(b *testing.B) {
			var mre float64
			for i := 0; i < b.N; i++ {
				p, err := traffic.TrainPredictor(train, traffic.PredictorConfig{
					Window: 12, Hidden: hidden,
					PretrainEpochs: 8, FinetuneEpochs: 40, Seed: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				pred, actual, err := p.PredictSeries(test, 4*traffic.HoursPerWeek)
				if err != nil {
					b.Fatal(err)
				}
				if mre, err = metrics.MRE(pred, actual); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mre*100, "MRE-%")
		})
	}
}

func benchName(key string, v float64) string {
	return fmt.Sprintf("%s=%g", key, v)
}

// BenchmarkExtGradeStudy runs the road-gradient extension (the paper's
// stated future work), reporting how much grade awareness saves on rolling
// terrain.
func BenchmarkExtGradeStudy(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.GradeStudy(experiments.FidelityFast)
		if err != nil {
			b.Fatal(err)
		}
		saving = r.SavingPct
	}
	b.ReportMetric(saving, "grade-saving-%")
}

// BenchmarkExtPredictorComparison scores the SAE against the classical
// baselines (seasonal naive, AR(24)) on the same held-out week, reporting
// each model's test MRE — the comparison that motivates the paper's SAE
// choice.
func BenchmarkExtPredictorComparison(b *testing.B) {
	all, err := traffic.Synthesize(traffic.SyntheticConfig{Weeks: 6, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	train, err := all.Slice(0, 5*traffic.HoursPerWeek)
	if err != nil {
		b.Fatal(err)
	}
	test, err := all.Slice(5*traffic.HoursPerWeek, 6*traffic.HoursPerWeek)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sae", func(b *testing.B) {
		var mre float64
		for i := 0; i < b.N; i++ {
			p, err := traffic.TrainPredictor(train, traffic.PredictorConfig{
				Window: 24, Hidden: []int{32, 16},
				PretrainEpochs: 10, FinetuneEpochs: 80, Seed: 5,
			})
			if err != nil {
				b.Fatal(err)
			}
			pred, actual, err := p.PredictSeries(test, 5*traffic.HoursPerWeek)
			if err != nil {
				b.Fatal(err)
			}
			if mre, err = metrics.MRE(pred, actual); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(mre*100, "MRE-%")
	})
	b.Run("ar24", func(b *testing.B) {
		var mre float64
		for i := 0; i < b.N; i++ {
			ar, err := traffic.FitAR(train, 24)
			if err != nil {
				b.Fatal(err)
			}
			pred, actual, err := ar.PredictSeries(test)
			if err != nil {
				b.Fatal(err)
			}
			if mre, err = metrics.MRE(pred, actual); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(mre*100, "MRE-%")
	})
	b.Run("seasonal-naive", func(b *testing.B) {
		joined := append(append([]float64{}, train.Values[4*traffic.HoursPerWeek:]...), test.Values...)
		s, err := traffic.NewSeries(joined)
		if err != nil {
			b.Fatal(err)
		}
		var mre float64
		for i := 0; i < b.N; i++ {
			pred, actual, err := traffic.SeasonalNaivePredict(s)
			if err != nil {
				b.Fatal(err)
			}
			if mre, err = metrics.MRE(pred, actual); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(mre*100, "MRE-%")
	})
}

// BenchmarkExtFleetStudy runs the multi-EV extension: a fleet of advised
// EVs sharing the corridor, reporting the fleet-mean saving of queue-aware
// plans over green-window plans.
func BenchmarkExtFleetStudy(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunFleetStudy(experiments.FidelityFast)
		if err != nil {
			b.Fatal(err)
		}
		if g := experiments.MeanEnergy(s.Green); g > 0 {
			saving = (1 - experiments.MeanEnergy(s.QueueAware)/g) * 100
		}
	}
	b.ReportMetric(saving, "fleet-saving-%")
}
