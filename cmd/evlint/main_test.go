package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestList: -list prints every analyzer with a one-line doc, one per
// line, and nothing else.
func TestList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("evlint -list = %d, stderr: %s", code, errb.String())
	}
	want := []string{
		"ctxcheck", "unitcheck", "floateq",
		"detcheck", "errflow", "puritycert",
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("evlint -list printed %d analyzers, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, name := range want {
		if got := strings.Fields(lines[i])[0]; got != name {
			t.Errorf("evlint -list line %d names %q, want %q", i, got, name)
		}
	}
}

// TestUnknownAnalyzer: a bad -run name is a usage error that lists the
// valid names, so the fix is visible from the failure itself.
func TestUnknownAnalyzer(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-run", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("evlint -run nosuch = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown-analyzer message", errb.String())
	}
	for _, name := range []string{"ctxcheck", "detcheck", "errflow", "puritycert"} {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("stderr missing valid analyzer name %q:\n%s", name, errb.String())
		}
	}
}

// TestUnknownAnalyzerInList: a bad name in the MIDDLE of a comma list is
// the same usage error, and the valid-names listing must still show the
// full suite — this regressed once when the selection loop appended into
// the valid slice's own backing array.
func TestUnknownAnalyzerInList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-run", "ctxcheck,detcheck,nosuch,errflow"}, &out, &errb); code != 2 {
		t.Fatalf("evlint -run ctxcheck,detcheck,nosuch,errflow = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown analyzer "nosuch"`) {
		t.Errorf("stderr = %q, want unknown-analyzer message naming nosuch", errb.String())
	}
	for _, name := range []string{
		"ctxcheck", "unitcheck", "floateq",
		"detcheck", "errflow", "puritycert",
	} {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("valid-names listing corrupted, missing %q:\n%s", name, errb.String())
		}
	}
}

// TestRunCommaList: a comma-separated -run selection runs exactly the
// named analyzers and succeeds on a clean package.
func TestRunCommaList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-run", "ctxcheck, floateq ,puritycert", "."}, &out, &errb); code != 0 {
		t.Fatalf("evlint -run comma list = %d\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "0 active finding(s)") {
		t.Errorf("stderr missing summary line:\n%s", errb.String())
	}
}

// TestSummariesDump: -summaries writes the per-function interprocedural
// summary table as JSON — the CI artifact pinning each commit's
// certification state.
func TestSummariesDump(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-summaries", "."}, &out, &errb); code != 0 {
		t.Fatalf("evlint -summaries = %d\nstderr: %s", code, errb.String())
	}
	var sums []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &sums); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, out.String())
	}
	if len(sums) == 0 {
		t.Fatal("summary dump is empty")
	}
	// Summaries carry effects, the dynamic-call hole and the
	// certificate; nothing else.
	fields := map[string]bool{"func": true, "package": true, "effects": true, "dynamic": true, "certified": true}
	found := false
	for _, s := range sums {
		for k := range s {
			if !fields[k] {
				t.Errorf("summary of %v has unexpected field %q", s["func"], k)
			}
		}
		if s["func"] == "evlint.run" && s["package"] == "evvo/cmd/evlint" {
			found = true
		}
	}
	if !found {
		t.Errorf("summary dump missing evlint.run over evvo/cmd/evlint:\n%s", out.String())
	}
}

// TestSelfClean: evlint linting its own package must exit 0 — the suite
// eats its own dog food — and always print the count summary line.
func TestSelfClean(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"."}, &out, &errb); code != 0 {
		t.Fatalf("evlint over cmd/evlint = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "0 active finding(s)") {
		t.Errorf("stderr missing summary line:\n%s", errb.String())
	}
}

// TestJSONReport: -json writes one machine-readable document to stdout
// with counts and per-finding positions; the summary stays on stderr so
// the JSON is parseable as-is.
func TestJSONReport(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-json", "."}, &out, &errb); code != 0 {
		t.Fatalf("evlint -json = %d\nstderr: %s", code, errb.String())
	}
	var rep struct {
		Active   int `json:"active"`
		Waived   int `json:"waived"`
		Packages int `json:"packages"`
		Findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Waived   bool   `json:"waived"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Active != 0 || rep.Packages != 1 {
		t.Errorf("report = active %d, packages %d; want 0 active over 1 package", rep.Active, rep.Packages)
	}
	if len(rep.Findings) != rep.Active+rep.Waived {
		t.Errorf("findings list has %d entries, counts say %d", len(rep.Findings), rep.Active+rep.Waived)
	}
}

// TestMaxWallBreached: an otherwise-clean run that overshoots the
// -max-wall budget exits 3 and says so. 1ns cannot be met, so this
// pins the breach path without a slow analyzer.
func TestMaxWallBreached(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-max-wall", "1ns", "."}, &out, &errb); code != 3 {
		t.Fatalf("evlint -max-wall 1ns = %d, want 3\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "max-wall") {
		t.Errorf("stderr missing max-wall breach message:\n%s", errb.String())
	}
}
