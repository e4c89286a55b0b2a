package lint_test

import (
	"testing"

	"evvo/internal/lint"
)

// TestPurityCert pins the certification contract on the dp-shaped
// fixture: a time.Now() two calls below a certified entrypoint is
// caught with its witness chain, required entrypoints without the
// annotation are flagged, and dynamic callbacks stay outside the
// certificate.
func TestPurityCert(t *testing.T) {
	lint.RunFixture(t, lint.PurityCert, "puritycert/dp")
}

// TestPurityCertOutOfScope: packages that are not solver packages have
// no required entrypoints, and uncertified functions there are never
// findings.
func TestPurityCertOutOfScope(t *testing.T) {
	res := lint.RunFixture(t, lint.PurityCert, "puritycert/plain")
	if n := len(res.Active) + len(res.Allowed); n != 0 {
		t.Fatalf("puritycert fired %d finding(s) outside its scope", n)
	}
}
