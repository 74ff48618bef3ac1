package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// prodFiles returns the pass's non-test files. The invariants shefvet
// enforces are production-path properties; test files build ad-hoc
// errors and call instrumentation directly on purpose, so every analyzer
// scopes itself to the shipped code.
func (p *Pass) prodFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// calleeFunc resolves a call expression to the *types.Func it invokes,
// or nil for calls through function values, built-ins, and conversions.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// calleePkgFunc returns (package name, function name) for a call that
// statically resolves to a named function, matching by the *package
// name* rather than import path so fixtures can model the real packages
// with local stand-ins.
func (p *Pass) calleePkgFunc(call *ast.CallExpr) (pkg, name string) {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Pkg().Name(), fn.Name()
}

// declKey names a function declaration uniquely within its package:
// "Func" for package functions, "Type.Method" for methods (pointer and
// value receivers collapse onto the type name).
func declKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers ("T[E]") index on the base type name.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// funcKey is declKey for a resolved *types.Func in the pass's package.
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// packageFuncs collects the production FuncDecls of the package, keyed
// by declKey.
func (p *Pass) packageFuncs() map[string]*ast.FuncDecl {
	funcs := make(map[string]*ast.FuncDecl)
	for _, f := range p.prodFiles() {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				funcs[declKey(fn)] = fn
			}
		}
	}
	return funcs
}

// callGraph builds the static intra-package call graph over funcs:
// edges[caller] lists the declKeys of same-package functions the caller
// invokes directly (calls through interfaces and function values are
// invisible).
func (p *Pass) callGraph(funcs map[string]*ast.FuncDecl) map[string][]string {
	edges := make(map[string][]string)
	for key, fn := range funcs {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := p.calleeFunc(call)
			if callee == nil || callee.Pkg() != p.Pkg {
				return true
			}
			if k := funcKey(callee); k != key {
				edges[key] = append(edges[key], k)
			}
			return true
		})
	}
	return edges
}

// reachable returns the set of declKeys reachable from the given roots
// in the intra-package call graph (roots included).
func reachable(roots []string, edges map[string][]string) map[string]bool {
	seen := make(map[string]bool)
	stack := append([]string(nil), roots...)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[k] {
			continue
		}
		seen[k] = true
		stack = append(stack, edges[k]...)
	}
	return seen
}

// withAncestors walks root keeping the ancestor chain of each visited
// node; fn receives the node and its ancestors (outermost first).
func withAncestors(root ast.Node, fn func(n ast.Node, ancestors []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		stack = append(stack, n)
		if !descend {
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// selectedField resolves a selector to the struct field it names, or nil
// for methods, package selectors, and locals.
func selectedField(pass *Pass, sel *ast.SelectorExpr) *types.Var {
	if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
		return nil
	}
	if v, ok := pass.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}
