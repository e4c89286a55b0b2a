package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Child runs. The selfcheck and all modes run each workload in a child
// process of this binary, so every run gets its own peak RSS, exactly as
// when the workload is invoked on its own.

// runJSON is the last stdout line of a run.
type runJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// child runs one workload in a child process and returns its report and
// parsed JSON line.
func child(workload string, seed int64, seconds float64, trace int) (string, *runJSON, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return out.String(), nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rj runJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rj); err != nil {
		return out.String(), nil, fmt.Errorf("%s seed %d: last line is not the result: %w", workload, seed, err)
	}
	return strings.Join(lines[:len(lines)-1], "\n"), &rj, nil
}

// runAll runs every workload once and prints each report plus a summary.
func runAll(seed int64, seconds float64, trace int) error {
	type row struct {
		name string
		rj   *runJSON
	}
	var rows []row
	for _, w := range workloads {
		report, rj, err := child(w.name, seed, seconds, trace)
		fmt.Println(report)
		if err != nil {
			return err
		}
		rows = append(rows, row{w.name, rj})
	}
	fmt.Printf("\nsummary (seed %d, %g s, trace %d):\n", seed, seconds, trace)
	for _, r := range rows {
		fmt.Printf("  %-13s correct %-5v attempted %6d failed %d\n", r.name, r.rj.Correct, r.rj.Attempted, r.rj.Failed)
	}
	return nil
}

// spec is the part of BENCHMARK.json the self-check needs.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck runs checkSets × checkRuns timed runs of each workload, one
// seed per run and different seeds per set, then reports for every
// end-to-end metric each set's median, quartiles and spread
// ((q3−q1)/median) against the metric's bound, and how far the second
// set's median lies from the first, in either direction. It fails when a
// spread or that distance exceeds the bound; spreads above a third of the
// bound are flagged as not yet steady.
func selfCheck(seconds float64) error {
	body, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(body, &sp); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	// vals[workload][metric][set] holds the runs' values.
	vals := map[string]map[string][][]float64{}
	for _, w := range workloads {
		vals[w.name] = map[string][][]float64{}
		for _, m := range sp.EndToEnd {
			vals[w.name][m.Name] = make([][]float64, checkSets)
		}
	}
	for s := 0; s < checkSets; s++ {
		for r := 0; r < checkRuns; r++ {
			seed := int64(1000*s + r + 1)
			for _, w := range workloads {
				n := w.name
				_, rj, err := child(n, seed, seconds, 0)
				if err != nil {
					return err
				}
				if !rj.Correct || rj.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d failed", n, seed, rj.Failed, rj.Attempted)
				}
				for _, m := range sp.EndToEnd {
					v, ok := rj.Metrics[m.Name]
					if !ok {
						return fmt.Errorf("%s seed %d: metric %s missing", n, seed, m.Name)
					}
					vals[n][m.Name][s] = append(vals[n][m.Name][s], v.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s done\n", s+1, r+1, n)
			}
		}
	}
	ok := true
	for _, w := range workloads {
		n := w.name
		fmt.Printf("%s (%d sets × %d runs, %g s):\n", n, checkSets, checkRuns, seconds)
		for _, m := range sp.EndToEnd {
			var first float64
			for s := 0; s < checkSets; s++ {
				q1, med, q3 := quartiles(vals[n][m.Name][s])
				spread := ratio(q3-q1, med)
				flag := "steady"
				switch {
				case spread > m.Bound:
					flag, ok = "OVER BOUND", false
				case spread > m.Bound/3:
					flag = "above bound/3"
				}
				drift := ""
				if s == 0 {
					first = med
				} else {
					d := ratio(med-first, first)
					drift = fmt.Sprintf(" vs set 1 %+.4f", d)
					if math.Abs(d) > m.Bound {
						drift += " DRIFT"
						ok = false
					}
				}
				fmt.Printf("  %-16s set %d  median %12.6g %-5s q1 %12.6g q3 %12.6g  spread %.4f of bound %.2f  %s%s\n",
					m.Name, s+1, med, m.Unit, q1, q3, spread, m.Bound, flag, drift)
			}
		}
	}
	if !ok {
		return fmt.Errorf("selfcheck failed: a spread or a median drift exceeds its bound")
	}
	return nil
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(values, n=4) computes them (exclusive method).
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	m := len(d) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
