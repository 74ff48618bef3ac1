package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

// TestIgnoreNeedsReason checks the vocabulary rule the fixtures cannot
// express inline (a want comment after //shef:ignore would read as its
// reason): a bare suppression marker is itself a finding.
func TestIgnoreNeedsReason(t *testing.T) {
	src := `package p

func f(m map[string]int) int {
	total := 0
	//shef:ignore
	for _, v := range m {
		total += v
	}
	return total
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	ignored := buildIgnoreMap(fset, []*ast.File{f}, func(d Diagnostic) { diags = append(diags, d) })
	_ = ignored
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Analyzer != "shefvet" || !strings.Contains(diags[0].Message, "needs a reason") {
		t.Fatalf("unexpected diagnostic: %v", diags[0])
	}
	if diags[0].Pos.Line != 5 {
		t.Fatalf("diagnostic at line %d, want 5", diags[0].Pos.Line)
	}
}

// TestIgnoreWithReasonSuppresses checks that a reasoned marker covers
// its own line and the one below it, and nothing else.
func TestIgnoreWithReasonSuppresses(t *testing.T) {
	src := `package p

func f() {
	//shef:ignore collected then sorted
	_ = 1
	_ = 2
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	ignored := buildIgnoreMap(fset, []*ast.File{f}, func(d Diagnostic) { diags = append(diags, d) })
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	for line, want := range map[int]bool{4: true, 5: true, 6: false} {
		if got := ignored[ignoreKey("p.go", line)]; got != want {
			t.Errorf("line %d suppressed = %v, want %v", line, got, want)
		}
	}
}

func TestSuiteShape(t *testing.T) {
	names := Names()
	want := []string{"detorder", "errwrapcheck", "guardedsite", "hotpathalloc", "lockorder"}
	if !slices.Equal(names, want) {
		t.Fatalf("suite is %v, want %v", names, want)
	}
	if !strings.HasPrefix(Version, "shefvet-") {
		t.Fatalf("Version %q does not identify the tool", Version)
	}
}
