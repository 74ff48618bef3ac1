package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder enforces the DESIGN.md §5 lock hierarchy: acquisitions are
// strictly outer→inner, and no lock is held while acquiring one that
// sits further out. The documented partial order is encoded below as
// ranks on (package, type, field) lock classes — lower rank is further
// out — and the analyzer flags any function that, while holding a lock,
// acquires one of lower or equal rank, either directly or through a
// same-package call whose (transitive) acquisition summary contains one.
//
// The check is intra-package: cross-package edges of the hierarchy
// (Cluster → Node → Shield session → engine set → DRAM stripe) are safe
// by layering — no package calls back up a layer while holding its own
// locks — and each package's internal slice of the order is what this
// analyzer pins down.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock acquisitions must respect the DESIGN.md §5 partial order (outer→inner)",
	Run:  runLockOrder,
}

// lockRanks is the machine-readable form of the DESIGN.md §5 order. The
// class key is "package.Type.field"; lower rank = outer lock, and a
// function holding rank r may only acquire ranks strictly greater than
// r. Locks absent from the table are unclassified and ignored (local
// mutexes, leaf locks with no nesting).
var lockRanks = map[string]int{
	// shield: provisioning serialization → session state → engine set →
	// register file. DRAM striping is a mem-package leaf below all of
	// these.
	"shield.Shield.provMu":   10,
	"shield.Shield.mu":       20,
	"shield.RegionTable.mu":  24,
	"shield.engineSet.mu":    30,
	"shield.RegisterFile.mu": 40,
	// sdp: controller key DB and the cluster's striped per-file write
	// locks are outermost; then the witness registry; then a node's own
	// session, its per-file stripes, its tls stage and its short state
	// lock, with the per-shard health FSM as the leaf.
	"sdp.Controller.mu":     10,
	"sdp.Cluster.fileLocks": 20,
	"sdp.Cluster.regMu":     30,
	"sdp.Node.sessMu":       36,
	"sdp.Node.fileLocks":    37,
	"sdp.Node.tlsMu":        38,
	"sdp.Node.mu":           40,
	"sdp.healthFSM.mu":      50,
	// hostapp: the server session table above the CA registry (attest
	// package).
	"hostapp.VendorServer.mu": 10,
	// faultinject: plan counters are a leaf.
	"faultinject.Plan.mu": 50,
	// fixtures (testdata models of the real hierarchy)
	"lockorder.Cluster.mu":   10,
	"lockorder.Cluster.file": 20,
	"lockorder.Node.mu":      30,
}

func runLockOrder(pass *Pass) {
	funcs := pass.packageFuncs()
	getters := lockGetterClasses(pass, funcs)

	// Transitive acquisition summaries: which classes can each function
	// acquire, directly or through same-package callees?
	direct := make(map[string]map[string]token.Pos)
	locals := make(map[string]map[types.Object]string)
	for key, fn := range funcs {
		vars := localLockVars(pass, fn, getters)
		locals[key] = vars
		acqs := make(map[string]token.Pos)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if acq, ok := lockCallClass(pass, call, vars); ok && acq.acquire {
				if _, seen := acqs[acq.class]; !seen {
					acqs[acq.class] = call.Pos()
				}
			}
			return true
		})
		direct[key] = acqs
	}
	edges := pass.callGraph(funcs)
	summary := make(map[string]map[string]bool)
	for key := range funcs {
		closure := make(map[string]bool)
		for k := range reachable([]string{key}, edges) {
			for class := range direct[k] {
				closure[class] = true
			}
		}
		summary[key] = closure
	}

	for key, fn := range funcs {
		checkLockFunc(pass, fn, key, summary, locals[key])
	}
}

// lockGetterClasses finds same-package helpers that hand out a pointer
// to a classified lock — e.g. Cluster.fileLock returning
// &c.fileLocks[h%N] — and maps each to the class it returns. Locals
// assigned from such a helper acquire that class when Lock is called on
// them.
func lockGetterClasses(pass *Pass, funcs map[string]*ast.FuncDecl) map[string]string {
	getters := make(map[string]string)
	for key, fn := range funcs {
		if fn.Type.Results == nil || len(fn.Type.Results.List) != 1 {
			continue
		}
		var class string
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				return true
			}
			e := ast.Unparen(ret.Results[0])
			if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
				e = ast.Unparen(u.X)
			}
			if c, ok := lockExprClass(pass, e); ok {
				class = c
			}
			return true
		})
		if class != "" {
			getters[key] = class
		}
	}
	return getters
}

// localLockVars maps a function's local variables that were assigned
// from a lock getter to the class the getter returns.
func localLockVars(pass *Pass, fn *ast.FuncDecl, getters map[string]string) map[types.Object]string {
	vars := make(map[types.Object]string)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			callee := pass.calleeFunc(call)
			if callee == nil || callee.Pkg() != pass.Pkg {
				continue
			}
			class, ok := getters[funcKey(callee)]
			if !ok {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pass.Info.Defs[id]; obj != nil {
				vars[obj] = class
			} else if obj := pass.Info.Uses[id]; obj != nil {
				vars[obj] = class
			}
		}
		return true
	})
	return vars
}

type lockCall struct {
	class   string
	rank    int
	acquire bool
}

// lockCallClass recognizes x.Lock/RLock/Unlock/RUnlock calls on
// sync.Mutex/RWMutex-typed struct fields listed in lockRanks, either
// selected directly (s.mu.Lock) or through a local assigned from a
// lock getter (mu := c.fileLock(name); mu.Lock()).
func lockCallClass(pass *Pass, call *ast.CallExpr, vars map[types.Object]string) (lockCall, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockCall{}, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return lockCall{}, false
	}
	fn := pass.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockCall{}, false
	}
	class, ok := lockOperandClass(pass, sel.X, vars)
	if !ok {
		return lockCall{}, false
	}
	rank, ok := lockRanks[class]
	if !ok {
		return lockCall{}, false
	}
	return lockCall{class: class, rank: rank, acquire: acquire}, true
}

// lockOperandClass resolves the receiver expression of a Lock call —
// s.mu, c.fileLocks[i], or a getter-derived local — to its
// "pkg.Type.field" class.
func lockOperandClass(pass *Pass, e ast.Expr, vars map[types.Object]string) (string, bool) {
	inner := ast.Unparen(e)
	if id, ok := inner.(*ast.Ident); ok {
		if obj := pass.Info.Uses[id]; obj != nil {
			if class, ok := vars[obj]; ok {
				return class, true
			}
		}
		return "", false
	}
	return lockExprClass(pass, inner)
}

// lockExprClass resolves a direct field expression — s.mu,
// c.fileLocks[i] — to its "pkg.Type.field" class.
func lockExprClass(pass *Pass, e ast.Expr) (string, bool) {
	inner := ast.Unparen(e)
	if idx, ok := inner.(*ast.IndexExpr); ok { // striped lock arrays
		inner = ast.Unparen(idx.X)
	}
	sel, ok := inner.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	field := selectedField(pass, sel)
	if field == nil || field.Pkg() == nil {
		return "", false
	}
	owner := fieldOwner(pass, sel)
	if owner == "" {
		return "", false
	}
	return field.Pkg().Name() + "." + owner + "." + field.Name(), true
}

// fieldOwner names the struct type a selector's field belongs to.
func fieldOwner(pass *Pass, sel *ast.SelectorExpr) string {
	s, ok := pass.Info.Selections[sel]
	if !ok {
		return ""
	}
	t := s.Recv()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			return named.Obj().Name()
		}
	}
	return ""
}

// checkLockFunc walks one function body in source order, tracking the
// multiset of held classified locks, and reports inversions of the
// documented order — both direct acquisitions and calls into functions
// whose summaries acquire.
func checkLockFunc(pass *Pass, fn *ast.FuncDecl, key string, summary map[string]map[string]bool, vars map[types.Object]string) {
	held := make(map[string]int) // class -> depth
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// Deferred unlocks release at return; the lock stays held
			// for the rest of the body. Deferred acquisitions do not
			// exist in this codebase; skip the subtree.
			return false
		case *ast.FuncLit:
			return false // closures run later, under their own discipline
		case *ast.CallExpr:
			if acq, ok := lockCallClass(pass, n, vars); ok {
				if acq.acquire {
					reportInversion(pass, fn, held, acq.class, acq.rank, n.Pos(), "")
					held[acq.class]++
				} else if held[acq.class] > 0 {
					held[acq.class]--
				}
				return true
			}
			callee := pass.calleeFunc(n)
			if callee == nil || callee.Pkg() != pass.Pkg {
				return true
			}
			for class := range summary[funcKey(callee)] {
				reportInversion(pass, fn, held, class, lockRanks[class], n.Pos(), callee.Name())
			}
		}
		return true
	})
}

func reportInversion(pass *Pass, fn *ast.FuncDecl, held map[string]int,
	class string, rank int, pos token.Pos, via string) {

	for h, depth := range held {
		if depth <= 0 || h == class && via != "" {
			continue
		}
		hr := lockRanks[h]
		if rank < hr || (rank == hr && h == class && via == "") {
			how := "acquires"
			if via != "" {
				how = "calls " + via + " which acquires"
			}
			pass.Reportf(pos,
				"%s: %s %s (rank %d) while holding %s (rank %d); DESIGN.md §5 orders acquisitions outer→inner",
				fn.Name.Name, how, class, rank, h, hr)
			return
		}
	}
}
