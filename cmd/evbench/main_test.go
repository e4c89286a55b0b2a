package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evvo/internal/experiments"
)

func TestRunSingleFigures(t *testing.T) {
	for _, fig := range []string{"fig3", "fig4", "fig5", "grade"} {
		t.Run(fig, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, fig, experiments.FidelityFast, 1, ""); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("no output")
			}
		})
	}
}

func TestRunComparisonFiguresShareOneRun(t *testing.T) {
	var buf bytes.Buffer
	// fig6+fig7+fig8 via "all" exercises the lazy shared comparison.
	if err := run(&buf, "all", experiments.FidelityFast, 1, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Gradient study"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run(&bytes.Buffer{}, "fig99", experiments.FidelityFast, 1, ""); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestRunDPBench exercises the dp subcommand end to end: the table renders,
// the -out JSON artifact decodes, and it carries the four serving modes
// with sane timings and the parity/ε checks already enforced internally.
func TestRunDPBench(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "BENCH_dp.json")
	var buf bytes.Buffer
	if err := run(&buf, "dp", experiments.FidelityFast, 1, outPath); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "exact-kernels") {
		t.Fatalf("table missing kernel mode:\n%s", buf.String())
	}
	body, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep dpBenchReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Modes) != 4 {
		t.Fatalf("modes = %d, want 4", len(rep.Modes))
	}
	for _, m := range rep.Modes {
		if m.MinMs <= 0 || m.MedianMs < m.MinMs || m.SpeedupVsScalar <= 0 {
			t.Fatalf("mode %q has nonsense timings: %+v", m.Name, m)
		}
		if m.PlannedMAh <= 0 || m.StatesExpanded <= 0 {
			t.Fatalf("mode %q has no solve evidence: %+v", m.Name, m)
		}
	}
	if !rep.Modes[2].Refined {
		t.Fatalf("coarse-refine mode not flagged Refined: %+v", rep.Modes[2])
	}
	if rep.Modes[0].Refined || rep.Modes[1].Refined || rep.Modes[3].Refined {
		t.Fatal("exact modes flagged Refined")
	}
	if rep.Modes[3].Name != "stitch-warm" || rep.StitchOverSolve <= 0 {
		t.Fatalf("stitch-warm mode missing or unpriced: %+v, stitch/solve %v", rep.Modes[3], rep.StitchOverSolve)
	}
}
