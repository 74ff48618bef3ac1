package analysis

// This file is the suite's fixture harness: a small reimplementation of
// x/tools' analysistest on top of the standard library. Each analyzer
// has a fixture package under testdata/src/<name>/ whose sources carry
// `// want `<regex>`` comments on the lines where diagnostics are
// expected; the harness type-checks the fixture, runs the analyzer, and
// requires an exact bidirectional match — every diagnostic needs a
// want, every want needs a diagnostic.
//
// Fixture packages resolve imports GOPATH-style against testdata/src
// (so a fixture can model the real profiling/faultinject packages with
// local stand-ins — the analyzers match by package name, not import
// path) and fall back to the compiler's export data for the standard
// library, located once via `go list -export`.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestLockOrderFixture(t *testing.T)    { runFixture(t, LockOrder) }
func TestGuardedSiteFixture(t *testing.T)  { runFixture(t, GuardedSite) }
func TestErrWrapCheckFixture(t *testing.T) { runFixture(t, ErrWrapCheck) }

// stdFixtureImports are the standard-library packages fixtures may
// import; their (transitive) export data is located once per test run.
var stdFixtureImports = []string{
	"context", "errors", "fmt", "sync",
}

var stdExports = sync.OnceValues(func() (map[string]string, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, stdFixtureImports...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list for std export data: %v\n%s", err, stderr.String())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
})

// fixtureImporter resolves fixture-local packages from source under
// srcRoot and everything else through the std export data.
type fixtureImporter struct {
	fset    *token.FileSet
	srcRoot string
	std     types.Importer
	cache   map[string]*types.Package
}

func newFixtureImporter(t *testing.T, fset *token.FileSet, srcRoot string) *fixtureImporter {
	t.Helper()
	exports, err := stdExports()
	if err != nil {
		t.Fatal(err)
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("fixture imports %q, which is not in stdFixtureImports", path)
		}
		return os.Open(file)
	})
	return &fixtureImporter{fset: fset, srcRoot: srcRoot, std: std, cache: make(map[string]*types.Package)}
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := fi.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(fi.srcRoot, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		files, err := parseFixtureDir(fi.fset, dir)
		if err != nil {
			return nil, err
		}
		conf := types.Config{Importer: fi}
		pkg, err := conf.Check(path, fi.fset, files, nil)
		if err != nil {
			return nil, fmt.Errorf("type-checking fixture dep %s: %v", path, err)
		}
		fi.cache[path] = pkg
		return pkg, nil
	}
	return fi.std.Import(path)
}

func parseFixtureDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		abs, err := filepath.Abs(name)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, abs, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture sources in %s", dir)
	}
	return files, nil
}

// runFixture type-checks testdata/src/<name> and requires the
// analyzer's diagnostics to match the fixture's want comments exactly.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	srcRoot := filepath.Join("testdata", "src")
	dir := filepath.Join(srcRoot, a.Name)
	fset := token.NewFileSet()
	files, err := parseFixtureDir(fset, dir)
	if err != nil {
		t.Fatal(err)
	}
	info := NewInfo()
	conf := types.Config{Importer: newFixtureImporter(t, fset, srcRoot)}
	pkg, err := conf.Check(a.Name, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, files)
	diags := RunAnalyzers(fset, files, pkg, info, []*Analyzer{a})

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.used || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no diagnostic matched want %q", filepath.Base(w.file), w.line, w.re)
		}
	}
}

type wantExpectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// collectWants parses `// want `<regex>` [`<regex>` ...]` comments; the
// expectation applies to diagnostics on the comment's own line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*wantExpectation {
	t.Helper()
	var wants []*wantExpectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(body, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(body, "want"))
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s:%d: malformed want comment %q: %v", pos.Filename, pos.Line, c.Text, err)
					}
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: unquoting %q: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &wantExpectation{file: pos.Filename, line: pos.Line, re: re})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return wants
}
