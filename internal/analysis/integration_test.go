package analysis

import (
	"os/exec"
	"strings"
	"testing"
)

// TestTreeIsClean runs the full analyzer suite over every package in
// the module and asserts zero findings. This is the same gate CI
// enforces via cmd/shefvet: if an invariant regresses — an unguarded
// instrumentation site, a lock inversion, an unclassified error crossing
// the sdp/oram boundary — this test names the exact file:line, so the
// failure is actionable without rerunning anything. There is no
// suppression: a finding is fixed at its site.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module; skipped in -short")
	}
	root := moduleRoot(t)
	pkgs, err := LoadPackages(root, "./...")
	if err != nil {
		t.Fatalf("LoadPackages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadPackages returned no packages")
	}
	var total int
	for _, p := range pkgs {
		diags := RunAnalyzers(p.Fset, p.Files, p.Types, p.Info, All())
		for _, d := range diags {
			t.Errorf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
		}
		total += len(diags)
	}
	if total > 0 {
		t.Logf("%d finding(s); fix each site (see DESIGN.md §10)", total)
	}
}

// moduleRoot resolves the repository's module directory so the test
// passes regardless of the package dir the harness runs it from.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	dir := strings.TrimSpace(string(out))
	if dir == "" {
		t.Fatal("go list -m returned an empty module dir")
	}
	return dir
}
