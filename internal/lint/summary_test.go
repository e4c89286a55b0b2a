package lint

// White-box tests for the interprocedural layer: summary facts, witness
// chains, the one-build-per-Run contract, the loader's target cache,
// and run-to-run determinism (no analyzer mutates the shared ASTs).

import (
	"path/filepath"
	"reflect"
	"testing"
)

func loadFixturePkg(t *testing.T, pkgpath string) *Package {
	t.Helper()
	pkg, err := LoadFixture(filepath.Join("testdata", "src"), pkgpath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgpath, err)
	}
	return pkg
}

func summaryByName(t *testing.T, sums []FuncSummary, fn string) FuncSummary {
	t.Helper()
	for _, s := range sums {
		if s.Func == fn {
			return s
		}
	}
	t.Fatalf("no summary for %s (have %d summaries)", fn, len(sums))
	return FuncSummary{}
}

// TestSummaryFacts pins the bottom-up fact propagation on the puritycert
// fixture: a leaf's wall-clock read surfaces in every transitive caller,
// clean functions stay clean, and dynamic callbacks set the Dynamic bit
// without poisoning the certificate.
func TestSummaryFacts(t *testing.T) {
	pkg := loadFixturePkg(t, "puritycert/dp")
	prog := BuildProgram([]*Package{pkg})
	sums := prog.Summaries()

	stamp := summaryByName(t, sums, "dp.stamp")
	if !reflect.DeepEqual(stamp.Effects, []string{"wall-clock"}) {
		t.Errorf("dp.stamp effects = %v, want [wall-clock]", stamp.Effects)
	}
	for _, fn := range []string{"dp.solve", "dp.Optimize"} {
		s := summaryByName(t, sums, fn)
		if !reflect.DeepEqual(s.Effects, []string{"wall-clock"}) {
			t.Errorf("%s effects = %v, want inherited [wall-clock]", fn, s.Effects)
		}
	}
	if s := summaryByName(t, sums, "dp.OptimizeCtx"); len(s.Effects) != 0 || !s.Certified {
		t.Errorf("dp.OptimizeCtx = effects %v certified %v, want clean and certified", s.Effects, s.Certified)
	}
	if s := summaryByName(t, sums, "dp.WithCallback"); !s.Dynamic || len(s.Effects) != 0 {
		t.Errorf("dp.WithCallback = dynamic %v effects %v, want dynamic with no effects", s.Dynamic, s.Effects)
	}
	if s := summaryByName(t, sums, "dp.Jitter"); !reflect.DeepEqual(s.Effects, []string{"global-rand"}) {
		t.Errorf("dp.Jitter effects = %v, want [global-rand]", s.Effects)
	}
	if s := summaryByName(t, sums, "dp.CleanFold"); len(s.Effects) != 0 {
		t.Errorf("dp.CleanFold effects = %v, want none (integer fold is commutative)", s.Effects)
	}
}

// TestProgramBuiltOncePerRun pins the satellite-2 contract: one Run call
// — N analyzers × M packages — performs exactly one interprocedural
// build.
func TestProgramBuiltOncePerRun(t *testing.T) {
	pkg := loadFixturePkg(t, "puritycert/dp")
	before := programBuilds
	if _, err := Run(All(), []*Package{pkg}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := programBuilds - before; got != 1 {
		t.Fatalf("Run built the Program %d times, want exactly 1", got)
	}
}

// TestRunTwiceSameDiagnostics pins that no analyzer mutates the shared
// ASTs or type info: running the full suite twice over the SAME loaded
// packages yields byte-identical findings.
func TestRunTwiceSameDiagnostics(t *testing.T) {
	pkgs := []*Package{
		loadFixturePkg(t, "puritycert/dp"),
		loadFixturePkg(t, "detcheck/internal/dp"),
		loadFixturePkg(t, "detcheck/internal/cloud"),
		loadFixturePkg(t, "errflow/internal/cloud"),
	}
	render := func(res *Result) []string {
		var out []string
		for _, d := range res.Active {
			out = append(out, FormatDiagnostic(res.Fset, d))
		}
		return out
	}
	first, err := Run(All(), pkgs)
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	second, err := Run(All(), pkgs)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	a, b := render(first), render(second)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("diagnostics changed between identical runs:\nfirst:  %v\nsecond: %v", a, b)
	}
	if len(a) == 0 {
		t.Error("expected the fixture packages to produce findings")
	}
}

// TestLoadFixtureCached pins the loader's target cache: a second load of
// the same path returns the SAME *Package — one parse + type-check per
// process, shared across every analyzer test and lint run.
func TestLoadFixtureCached(t *testing.T) {
	first := loadFixturePkg(t, "puritycert/dp")
	second := loadFixturePkg(t, "puritycert/dp")
	if first != second {
		t.Error("LoadFixture re-checked a cached package; wanted pointer-identical result")
	}
}
