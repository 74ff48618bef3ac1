// Package analysis is the repo's invariant-enforcement suite: a set of
// custom static analyzers that mechanically check the load-bearing rules
// DESIGN.md states in prose — zero-alloc hot paths (§6), the lock/atomics
// concurrency model (§5), deterministic flush/eviction/ORAM ordering
// (§4), typed-error discipline at the sdp/oram boundaries, and guarded
// profiling/faultinject instrumentation sites.
//
// The suite is deliberately built on the standard library alone (go/ast,
// go/types, go/importer) rather than golang.org/x/tools, so the module
// keeps its zero-dependency property; the Analyzer/Pass/Diagnostic shape
// mirrors x/tools/go/analysis closely enough that porting onto it later
// is mechanical.
//
// Analyzers communicate with the source through a tiny annotation
// vocabulary (DESIGN.md §10):
//
//	//shef:hotpath        this function is a zero-alloc hot path
//	//shef:deterministic  this function is a determinism root
//	//shef:guarded        every caller gates this helper on Enabled()
//	//shef:ignore reason  suppress findings on this (or the next) line
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
const Version = "shefvet-1.1.0"

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

	// report receives the analyzer's findings (already filtered through
	// the //shef:ignore suppression map by Reportf).
	report func(Diagnostic)
	// ignored maps "file:line" to the suppression state for the package.
	ignored map[string]bool
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

// Reportf records a finding at pos unless the line (or the line above
// it) carries a //shef:ignore suppression.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignored[ignoreKey(position.Filename, position.Line)] {
		return
	}
	p.report(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func ignoreKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// The annotation vocabulary. Annotations live in a function's doc
// comment (hotpath, deterministic, guarded) or on/above an offending
// line (ignore).
const (
	MarkHotpath       = "//shef:hotpath"
	MarkDeterministic = "//shef:deterministic"
	MarkGuarded       = "//shef:guarded"
	MarkIgnore        = "//shef:ignore"
)

// buildIgnoreMap scans every comment in the files for //shef:ignore
// markers. A marker suppresses findings on its own line and on the line
// directly below it (so both trailing comments and standalone
// comment-above style work). A marker with no reason is itself a
// finding: the vocabulary requires saying why.
func buildIgnoreMap(fset *token.FileSet, files []*ast.File, report func(Diagnostic)) map[string]bool {
	ignored := make(map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, strings.TrimPrefix(MarkIgnore, "//")) &&
					!strings.HasPrefix(text, MarkIgnore) {
					continue
				}
				rest := strings.TrimPrefix(text, MarkIgnore)
				if rest == text {
					continue // some other comment mentioning the marker
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(rest) == "" {
					report(Diagnostic{
						Pos:      pos,
						Analyzer: "shefvet",
						Message:  "//shef:ignore needs a reason (\"//shef:ignore why this is safe\")",
					})
					continue
				}
				ignored[ignoreKey(pos.Filename, pos.Line)] = true
				ignored[ignoreKey(pos.Filename, pos.Line+1)] = true
			}
		}
	}
	return ignored
}

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
		HotpathAlloc,
		DetOrder,
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
	ignored := buildIgnoreMap(fset, files, report)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			report:   report,
			ignored:  ignored,
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
