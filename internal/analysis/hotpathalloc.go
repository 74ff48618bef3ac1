package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAlloc enforces DESIGN.md §6: functions marked //shef:hotpath —
// the engine-set per-chunk seal/open and chunked load/prefetch loops, the
// sealer seal/open cores, the faultinject/profiling Enabled fast paths —
// must not contain allocating constructs. The check is syntactic and
// deliberately stricter than the escape analyzer: a hot path that *looks*
// allocation-free stays allocation-free under inlining changes, whereas
// one that leans on escape analysis regresses silently when a function
// grows past the inlining budget.
//
// Flagged constructs: new/make, composite literals that escape (&T{...},
// slice and map literals), explicit conversions to interface types,
// implicit interface conversions at call argument positions,
// string<->[]byte conversions, closures that capture outer variables,
// go/defer statements, and any call into fmt. Cold error branches inside
// a hot function carry //shef:ignore with a reason.
var HotpathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "//shef:hotpath functions must not contain allocating constructs",
	Run:  runHotpathAlloc,
}

func runHotpathAlloc(pass *Pass) {
	for _, f := range pass.prodFiles() {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !funcHasMark(fn, MarkHotpath) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	withAncestors(fn.Body, func(n ast.Node, ancestors []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s: go statement in a hot path spawns a goroutine per call", fn.Name.Name)
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "%s: defer in a hot path allocates a defer record on some paths", fn.Name.Name)
		case *ast.FuncLit:
			if captures(pass, n) {
				pass.Reportf(n.Pos(), "%s: closure captures outer variables and escapes to the heap", fn.Name.Name)
			}
		case *ast.CompositeLit:
			checkHotComposite(pass, fn, n, ancestors)
		case *ast.CallExpr:
			checkHotCall(pass, fn, n)
		}
		return true
	})
}

// checkHotComposite flags composite literals whose usual lowering
// allocates: slice and map literals always do; struct literals only when
// their address is taken (the &T{...} form).
func checkHotComposite(pass *Pass, fn *ast.FuncDecl, lit *ast.CompositeLit, ancestors []ast.Node) {
	t := pass.Info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		pass.Reportf(lit.Pos(), "%s: slice literal allocates", fn.Name.Name)
		return
	case *types.Map:
		pass.Reportf(lit.Pos(), "%s: map literal allocates", fn.Name.Name)
		return
	}
	if len(ancestors) > 0 {
		if u, ok := ancestors[len(ancestors)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
			pass.Reportf(lit.Pos(), "%s: &composite literal escapes to the heap", fn.Name.Name)
		}
	}
}

func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	// Builtins and conversions first: new/make always allocate;
	// string<->[]byte conversions copy.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch obj.Name() {
			case "new", "make":
				pass.Reportf(call.Pos(), "%s: %s allocates", fn.Name.Name, obj.Name())
			}
			return
		}
	}
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		// Explicit conversion T(x).
		dst := tv.Type
		if types.IsInterface(dst.Underlying()) {
			if len(call.Args) == 1 && !isInterfaceExpr(pass, call.Args[0]) {
				pass.Reportf(call.Pos(), "%s: conversion to interface %s allocates", fn.Name.Name, dst)
			}
			return
		}
		if len(call.Args) == 1 && isStringBytesConv(pass, dst, call.Args[0]) {
			pass.Reportf(call.Pos(), "%s: string<->[]byte conversion copies and allocates", fn.Name.Name)
		}
		return
	}

	if pkg, _ := pass.calleePkgFunc(call); pkg == "fmt" {
		pass.Reportf(call.Pos(), "%s: fmt call allocates (format state and boxed operands)", fn.Name.Name)
		return
	}

	// Implicit interface conversions at argument positions: a concrete
	// value passed where the callee wants an interface is boxed.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := pass.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if isNilOrConstLike(pass, arg) || isSmallWordLike(at) {
			continue
		}
		pass.Reportf(arg.Pos(), "%s: concrete %s boxed into interface %s argument", fn.Name.Name, at, pt)
	}
}

func callSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	t := pass.Info.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

func isInterfaceExpr(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	return t != nil && types.IsInterface(t.Underlying())
}

func isStringBytesConv(pass *Pass, dst types.Type, arg ast.Expr) bool {
	src := pass.Info.TypeOf(arg)
	if src == nil {
		return false
	}
	return (isString(dst) && isByteSlice(src)) || (isByteSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isNilOrConstLike skips untyped nils and constants: boxing a constant
// into an interface does not allocate at runtime (the compiler interns
// it) and nil never does.
func isNilOrConstLike(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok {
		return false
	}
	return tv.IsNil() || tv.Value != nil
}

// isSmallWordLike reports types the runtime boxes without allocating
// (pointers, channels, maps, funcs: the value fits the iface data word).
func isSmallWordLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

// captures reports whether a function literal references variables
// declared outside its own body (a capturing closure is heap-allocated
// together with its captured variables).
func captures(pass *Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		// Package-level variables are not captures.
		if obj.Parent() == pass.Pkg.Scope() || obj.Parent() == types.Universe {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			found = true
		}
		return true
	})
	return found
}
