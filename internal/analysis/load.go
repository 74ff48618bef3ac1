package analysis

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
)

// LoadedPackage is one parsed, type-checked package ready for analysis.
type LoadedPackage struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// LoadPackages lists the packages matching patterns (relative to dir),
// parses their non-test sources, and type-checks them against the
// compiler's export data — the same artifacts the build cache already
// holds, so loading is fast and works fully offline. Dependencies are
// resolved through `go list -export -deps`, never re-typechecked from
// source.
func LoadPackages(dir string, patterns ...string) ([]*LoadedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}

	var targets []*listPackage
	exports := make(map[string]string)
	importMaps := make(map[string]map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if len(p.ImportMap) > 0 {
			importMaps[p.ImportPath] = p.ImportMap
		}
		if !p.DepOnly && !p.Standard {
			q := p
			targets = append(targets, &q)
		}
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	})

	var loaded []*LoadedPackage
	for _, p := range targets {
		lp, err := typecheckPackage(fset, gc, p, importMaps[p.ImportPath])
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, lp)
	}
	return loaded, nil
}

// mappedImporter applies one package's vendor/test import remapping
// before delegating to the shared export-data importer.
type mappedImporter struct {
	base      types.Importer
	importMap map[string]string
}

func (m mappedImporter) Import(path string) (*types.Package, error) {
	if canon, ok := m.importMap[path]; ok {
		path = canon
	}
	return m.base.Import(path)
}

func typecheckPackage(fset *token.FileSet, gc types.Importer, p *listPackage,
	importMap map[string]string) (*LoadedPackage, error) {

	var files []*ast.File
	for _, name := range p.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{
		Importer: mappedImporter{base: gc, importMap: importMap},
		Error:    func(error) {}, // collect everything; first error returned below
	}
	pkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", p.ImportPath, err)
	}
	return &LoadedPackage{Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// TypeCheckVetPackage type-checks one compilation unit as described by
// the go command's vet.cfg: sources from goFiles (resolved against dir
// when relative), dependencies through the build's own export files
// (packageFile, keyed by canonical import path), and import paths
// canonicalized through importMap. It backs cmd/shefvet's -vettool
// mode, where the go command — not `go list` — owns package loading.
func TypeCheckVetPackage(importPath, dir string, goFiles []string,
	importMap, packageFile map[string]string) (*LoadedPackage, error) {

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := packageFile[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	})
	p := &listPackage{ImportPath: importPath, Dir: dir, GoFiles: goFiles}
	return typecheckPackage(fset, gc, p, importMap)
}

// NewInfo allocates the full types.Info every analyzer relies on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
