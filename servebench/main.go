// Command servebench is the serving benchmark: it boots in-process
// cloud.Servers on cloudd's production config, drives them over loopback
// HTTP with a closed loop of clients, checks every plan, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced pass
// (--trace 1). The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// Usage (from the repository root; README.md in this directory has more):
//
//	bash servebench/run.sh --workload fleet-stitch --seed 1 --seconds 10 --trace 0
//	bash servebench/run.sh --workload all
//	bash servebench/run.sh --selfcheck --seconds 20
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "input seed: routes and request stream")
		seconds   = flag.Float64("seconds", 10, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of runs per workload and compare each end-to-end metric with its bound")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(*seconds)
	case *name == "all":
		err = runAll(*seed, *seconds, *trace)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "servebench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		var res *result
		if res, err = runWorkload(w, *seed, *seconds, *trace == 1); err == nil {
			err = res.print(os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// metric is one reported number with its unit and the base it was
// computed over.
type metric struct {
	name, unit string
	value      float64
	base       string
	// printOnly metrics appear in the report but not in the JSON line.
	printOnly bool
}

// result is one run's verdict and metrics.
type result struct {
	workload          string
	attempted, failed int
	failures          []error
	metrics           []metric
	notes             []string // extra human-readable lines
}

func (r *result) add(name, unit string, value float64, base string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, base: base})
}

// count folds calls into attempted/failed and keeps the first failures.
func (r *result) count(calls []*call) {
	for _, c := range calls {
		r.attempted++
		if c.err != nil {
			r.failed++
			r.fail(c.err)
		}
	}
}

func (r *result) fail(err error) {
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report and, last, the JSON line.
func (r *result) print(f *os.File) error {
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "workload %s: %d attempted, %d failed, verifier %s\n", r.workload, r.attempted, r.failed, verdict(r.failed == 0))
	for _, err := range r.failures {
		fmt.Fprintf(w, "  failure: %v\n", err)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	metrics := map[string]jsonMetric{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-28s %14.6g %-9s %s\n", m.name, m.value, m.unit, m.base)
		if !m.printOnly {
			metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", out)
	return w.Flush()
}

func verdict(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// runWorkload runs one workload: the timed pass alone, or (traced) a timed
// and a traced pass of half the time each.
func runWorkload(w workload, seed int64, seconds float64, traced bool) (*result, error) {
	ctx := context.Background()
	b, err := newBench(w, seed)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name, notes: []string{"why: " + w.why}}
	dur := time.Duration(seconds * float64(time.Second))
	if !traced {
		p, err := b.run(ctx, dur, setups, nil, nil)
		if err != nil {
			return nil, err
		}
		res.count(p.setupCalls)
		res.count(p.calls)
		endToEnd(res, b, p)
		return res, nil
	}
	b.minCalls = traceMinCalls
	timed, err := b.run(ctx, dur/2, 1, nil, nil)
	if err != nil {
		return nil, err
	}
	res.count(timed.setupCalls)
	res.count(timed.calls)
	t, err := newTracedRun(b)
	if err != nil {
		return nil, err
	}
	if err := t.buildTables(ctx); err != nil {
		return nil, err
	}
	tp, err := b.run(ctx, dur/2, 1, t.onCall(ctx), t.atEnd(ctx))
	if err != nil {
		return nil, err
	}
	res.count(tp.setupCalls)
	res.count(tp.calls)
	for _, err := range t.failures {
		res.failed++
		res.fail(err)
	}
	spanFile := fmt.Sprintf(".bench_build/spans/%s-seed%d.json", w.name, seed)
	if err := t.tr.dump(spanFile); err != nil {
		return nil, err
	}
	perLayer(res, b, timed, tp, t)
	res.notes = append(res.notes, fmt.Sprintf("spans: %d written to %s", len(t.tr.spans), spanFile))
	res.notes = append(res.notes, "layer self time (span minus what its children cover):")
	for _, lt := range t.tr.selfTimes() {
		res.notes = append(res.notes, fmt.Sprintf("  %-20s %6d spans  total %10.3f ms  self %10.3f ms", lt.name, lt.count, lt.totalMs, lt.selfMs))
	}
	return res, nil
}

// traceMinCalls is the traced run's minimum calls per pass (two
// cluster-cold epochs); the passes are for attribution, not for p95.
const traceMinCalls = 2 * epochCalls

// endToEnd computes the end-to-end metrics of a timed pass. Throughput and
// p50 are medians over the pass's windows (see pass.windows); p95 pools
// every call, which is what gives it ten or more samples beyond it.
func endToEnd(res *result, b *bench, p *pass) {
	n := plans(p.calls)
	rtts := make([]float64, len(p.calls))
	for i, c := range p.calls {
		rtts[i] = c.rttMs()
	}
	sort.Float64s(rtts)
	wins := p.windows()
	rates, p50s := make([]float64, len(wins)), make([]float64, len(wins))
	for i, w := range wins {
		var inWin []float64
		done := 0
		for _, c := range p.calls {
			if !c.end.Before(w.start) && (c.end.Before(w.end) || i == len(wins)-1 && !c.end.After(w.end)) {
				inWin = append(inWin, c.rttMs())
				if c.err == nil {
					done += len(c.reqs)
				}
			}
		}
		rates[i] = float64(done) / w.end.Sub(w.start).Seconds()
		p50s[i] = median(inWin)
	}
	res.notes = append(res.notes, fmt.Sprintf("closed loop: %d clients, %d calls of %d item(s) (%d plans) over %.2f s serving time on %d env(s), %d windows",
		clients, len(p.calls), b.w.batch, n, p.wall.Seconds(), p.envs, len(wins)))
	res.add("setup_s", "s", median(p.setupSec), fmt.Sprintf("median of %d set-ups", len(p.setupSec)))
	res.add("plans_per_s", "1/s", median(rates), fmt.Sprintf("median of %d windows; pooled %.1f", len(wins), float64(n)/p.wall.Seconds()))
	res.add("latency_p50_ms", "ms", median(p50s), fmt.Sprintf("median of %d window p50s; pooled %.3f over %d calls", len(wins), quantile(rtts, 0.5), len(rtts)))
	res.add("latency_p95_ms", "ms", quantile(rtts, 0.95), fmt.Sprintf("pooled over %d calls", len(rtts)))
	q := quality(p, qualityCalls)
	res.add("plan_charge_mah", "mAh", q.chargeMAh, fmt.Sprintf("mean of %d plans (first %d calls)", q.plans, qualityCalls))
	// Both shares are 0 on healthy runs, so they are per-layer metrics in
	// the JSON line; the report still shows them next to the others.
	res.metrics = append(res.metrics,
		metric{name: "penalized_share", unit: "share", value: q.penalized, base: fmt.Sprintf("of %d plans", q.plans), printOnly: true},
		metric{name: "degraded_share", unit: "share", value: q.degraded, base: fmt.Sprintf("of %d plans", q.plans), printOnly: true})
	res.add("peak_rss_mb", "MB", peakRSSMB(), "VmHWM of the whole process")
}

type qualityStats struct {
	plans                          int
	chargeMAh, penalized, degraded float64
}

// quality averages plan quality over the calls with index below prefix.
func quality(p *pass, prefix int) qualityStats {
	var q qualityStats
	var charge float64
	var pen, deg int
	for _, c := range p.calls {
		if c.idx >= prefix || c.err != nil {
			continue
		}
		q.plans += len(c.reqs)
		charge += c.chargeAh
		pen += c.penalized
		deg += c.degraded
	}
	if q.plans > 0 {
		q.chargeMAh = 1000 * charge / float64(q.plans)
		q.penalized = float64(pen) / float64(q.plans)
		q.degraded = float64(deg) / float64(q.plans)
	}
	return q
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	body, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
