// Package analysis is the repo's invariant-enforcement suite: custom
// static analyzers for the rules DESIGN.md states in prose that no test
// can hold for code not yet written — the lock order of the concurrency
// model (§5), typed-error discipline at the sdp/oram boundaries, and
// guarded profiling/faultinject instrumentation sites (§7). Each checks
// every site in its scope without anyone opting in; invariants a test
// can run, such as the zero-alloc data path (§6) and deterministic
// flush, eviction, ORAM and repair order (§4), are held by tests
// (DESIGN.md §10).
//
// The suite is deliberately built on the standard library alone (go/ast,
// go/types, go/importer) rather than golang.org/x/tools, so the module
// keeps its zero-dependency property; the Analyzer/Pass/Diagnostic shape
// mirrors x/tools/go/analysis closely enough that porting onto it later
// is mechanical.
//
// One annotation reaches the analyzers from the source: a
// //shef:guarded helper may call instrumentation directly, and
// guardedsite checks its callers instead (DESIGN.md §10).
//
// Its command is cmd/shefvet (`shefvet ./...`); CI runs it as a blocking
// lint job.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Version identifies the invariant suite; it is recorded in benchtab's
// JSON header so bench artifacts say which suite validated the run, and
// printed by `shefvet -list`. Bump it whenever an analyzer's verdict on unchanged source can change.
const Version = "shefvet-1.4.0"

// An Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's identifier (lower-case, no spaces); findings
	// are prefixed with it and fixtures live in testdata/src/<Name>.
	Name string
	// Doc is the one-paragraph description `shefvet -list` prints.
	Doc string
	// Run reports the analyzer's findings through pass.Report.
	Run func(pass *Pass)
}

// A Pass carries one package's parsed and type-checked state through an
// analyzer run. The same Pass value is shared by every analyzer run on
// the package; analyzers must not mutate it.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// report receives the analyzer's findings.
	report func(Diagnostic)
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// MarkGuarded is the annotation, in a function's doc comment, that makes
// the function a guarded instrumentation helper.
const MarkGuarded = "//shef:guarded"

// funcHasMark reports whether a function declaration's doc comment
// carries the given //shef: marker.
func funcHasMark(fn *ast.FuncDecl, mark string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), mark) {
			return true
		}
	}
	return false
}

// All returns the full analyzer suite in reporting order. benchtab
// records the names in its JSON header; cmd/shefvet runs them.
func All() []*Analyzer {
	return []*Analyzer{
		LockOrder,
		GuardedSite,
		ErrWrapCheck,
	}
}

// Names returns the suite's analyzer names, sorted.
func Names() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// RunAnalyzers runs the given analyzers over one type-checked package
// and returns the findings sorted by position.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, analyzers []*Analyzer) []Diagnostic {

	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			report:   report,
		}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}
