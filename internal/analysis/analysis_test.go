package analysis

import (
	"go/token"
	"slices"
	"strings"
	"testing"
)

func TestSuiteShape(t *testing.T) {
	names := Names()
	want := []string{"errwrapcheck", "guardedsite", "lockorder"}
	if !slices.Equal(names, want) {
		t.Fatalf("suite is %v, want %v", names, want)
	}
	if !strings.HasPrefix(Version, "shefvet-") {
		t.Fatalf("Version %q does not identify the tool", Version)
	}
}

// TestDiagnosticText: a diagnostic prints as position, analyzer and
// message, the form editors and CI logs parse.
func TestDiagnosticText(t *testing.T) {
	d := Diagnostic{Pos: token.Position{Filename: "x/y.go", Line: 12, Column: 3}, Analyzer: "lockorder", Message: "mu taken after node.mu"}
	if got, want := d.String(), "x/y.go:12:3: lockorder: mu taken after node.mu"; got != want {
		t.Errorf("Diagnostic text %q, want %q", got, want)
	}
}
