// Command evlint runs the repo's custom static-analysis suite
// (internal/lint) over the given packages — a multichecker in the mold
// of golang.org/x/tools/go/analysis/multichecker, built on the standard
// library only so it works in this module's offline build.
//
// Usage:
//
//	evlint [-list] [-run name[,name...]] [-json] [-summaries] [-max-wall d] [packages...]
//
// With no packages, ./... is linted. Exit status is 1 when any active
// finding remains; findings suppressed with //lint:allow pragmas do not
// fail the run but are summarized on stderr so every waiver stays
// visible in CI logs. -json writes the full report (active and waived
// findings plus counts) to stdout as one JSON object for CI artifacts.
// -max-wall bounds the lint run's own wall clock: an otherwise-clean
// run that overshoots exits 3, so a slow analyzer fails CI instead of
// silently eating the pipeline's latency budget. -summaries dumps the
// per-function interprocedural summaries (effects, dynamic calls and
// purity certificates — internal/lint/summary.go) as JSON and exits; CI
// uploads it as an artifact next to the findings report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"evvo/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is one diagnostic in the -json report.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Waived   bool   `json:"waived"`
	Reason   string `json:"reason,omitempty"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Active   int           `json:"active"`
	Waived   int           `json:"waived"`
	Packages int           `json:"packages"`
	WallMS   int64         `json:"wall_ms"`
	Findings []jsonFinding `json:"findings"`
}

func analyzerNames(as []*lint.Analyzer) string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print analyzer names and one-line docs, then exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "write the full report to stdout as JSON")
	summaries := fs.Bool("summaries", false, "dump the per-function interprocedural summaries as JSON and exit")
	maxWall := fs.Duration("max-wall", 0, "fail (exit 3) if the lint run itself takes longer than this")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.ShortDoc())
		}
		return 0
	}
	if *only != "" {
		// Select into a FRESH slice: reslicing analyzers[:0] and appending
		// would overwrite the backing array the full list still points at,
		// corrupting the valid-names listing in the error below.
		valid := analyzers
		selected := make([]*lint.Analyzer, 0, len(valid))
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(stderr, "evlint: unknown analyzer %q; valid names: %s\n",
					name, analyzerNames(valid))
				return 2
			}
			selected = append(selected, a)
		}
		analyzers = selected
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	start := time.Now()
	pkgs, err := lint.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "evlint:", err)
		return 2
	}
	if *summaries {
		// The summary dump is the CI artifact that makes each commit's
		// certification state inspectable without re-running the
		// analysis. Always JSON.
		prog := lint.BuildProgram(pkgs)
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(prog.Summaries()); err != nil {
			fmt.Fprintln(stderr, "evlint:", err)
			return 2
		}
		return 0
	}
	res, err := lint.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "evlint:", err)
		return 2
	}
	wall := time.Since(start)

	if *asJSON {
		rep := jsonReport{
			Active:   len(res.Active),
			Waived:   len(res.Allowed),
			Packages: len(pkgs),
			WallMS:   wall.Milliseconds(),
			Findings: make([]jsonFinding, 0, len(res.Active)+len(res.Allowed)),
		}
		for _, ds := range [][]lint.Diagnostic{res.Active, res.Allowed} {
			for _, d := range ds {
				p := res.Fset.Position(d.Pos)
				rep.Findings = append(rep.Findings, jsonFinding{
					File: p.Filename, Line: p.Line, Col: p.Column,
					Analyzer: d.Analyzer, Message: d.Message,
					Waived: d.Allowed, Reason: d.Reason,
				})
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "evlint:", err)
			return 2
		}
	} else {
		for _, d := range res.Active {
			fmt.Fprintln(stdout, lint.FormatDiagnostic(res.Fset, d))
		}
	}
	if len(res.Allowed) > 0 {
		fmt.Fprintf(stderr, "evlint: %d finding(s) suppressed by //lint:allow:\n", len(res.Allowed))
		for _, d := range res.Allowed {
			fmt.Fprintf(stderr, "  %s: %s: %s — allowed: %s\n",
				res.Fset.Position(d.Pos), d.Analyzer, d.Message, d.Reason)
		}
	}
	fmt.Fprintf(stderr, "evlint: %d active finding(s), %d waived, %d package(s) in %dms\n",
		len(res.Active), len(res.Allowed), len(pkgs), wall.Milliseconds())
	if len(res.Active) > 0 {
		return 1
	}
	if *maxWall > 0 && wall > *maxWall {
		fmt.Fprintf(stderr, "evlint: lint run took %v, over the -max-wall budget of %v\n", wall, *maxWall)
		return 3
	}
	return 0
}
