package analysis

import (
	"go/ast"
	"go/types"
)

// LockOrder pins the simulator's lock hierarchy: the machine-level mutexes (sgx.Machine.mu, kos.Kernel.mu)
// are acquired BEFORE the EPCM/page-table locks (pt.Table.mu,
// epc.Manager.mu), never the reverse. Page-table writers run under the
// machine's world view; a thread that takes a page lock and then blocks on
// the machine lock deadlocks against the eviction path, which holds the
// machine lock while publishing page-table updates.
//
// The check is intraprocedural: within one function body it tracks Lock and
// Unlock calls on classified mutexes (deferred unlocks hold to function
// exit) and reports any machine-class acquisition while a page-class lock
// is held.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "machine-level mutexes are acquired before EPCM/page-table locks, never the reverse",
	Run:  runLockOrder,
}

type lockClass int

const (
	lockNone    lockClass = iota
	lockMachine           // rank 0: acquired first
	lockPage              // rank 1: acquired under a machine lock
)

// lockOwners classifies a mutex by the struct that embeds it.
var lockOwners = []struct {
	pkgSuffix string
	typeName  string
	class     lockClass
}{
	{"internal/sgx", "Machine", lockMachine},
	{"internal/kos", "Kernel", lockMachine},
	{"internal/pt", "Table", lockPage},
	{"internal/epc", "Manager", lockPage},
}

func runLockOrder(p *Pass) {
	for _, f := range p.Pkg.Files {
		funcBodies(f, func(name string, _ *ast.FuncType, body *ast.BlockStmt) {
			checkLockOrder(p, name, body)
		})
	}
}

// lockOp is one Lock/Unlock call on a classified mutex, in source order.
type lockOp struct {
	pos      ast.Node
	class    lockClass
	owner    string // "pt.Table" — for the message
	acquire  bool
	deferred bool
}

func checkLockOrder(p *Pass, name string, body *ast.BlockStmt) {
	var ops []lockOp
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			return false
		}
		deferred := false
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.DeferStmt:
			call = n.Call
			deferred = true
		case *ast.CallExpr:
			call = n
		default:
			return true
		}
		class, owner, acquire, ok := classifyLockCall(p.Pkg.Info, call)
		if !ok {
			return true
		}
		ops = append(ops, lockOp{pos: call, class: class, owner: owner, acquire: acquire, deferred: deferred})
		// A classified `defer x.mu.Unlock()` must not be revisited as a plain
		// CallExpr: the second visit would record a non-deferred release and
		// wrongly drop the lock from the held set.
		return !deferred
	})

	held := map[lockClass][]string{} // class -> owners currently held
	for _, op := range ops {
		if !op.acquire {
			if op.deferred {
				continue // releases at function exit; lock stays held below
			}
			if owners := held[op.class]; len(owners) > 0 {
				held[op.class] = owners[:len(owners)-1]
			}
			continue
		}
		if op.class == lockMachine {
			if owners := held[lockPage]; len(owners) > 0 {
				p.Reportf(op.pos.Pos(), "lockorder/inversion",
					"%s acquires the machine-level %s lock while holding the %s lock; the hierarchy is machine before EPCM/page-table",
					name, op.owner, owners[len(owners)-1])
			}
		}
		held[op.class] = append(held[op.class], op.owner)
	}
}

// classifyLockCall matches `x.mu.Lock()` / `x.mu.Unlock()` (also RLock/
// RUnlock) where x is one of the classified owner types.
func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockClass, string, bool, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockNone, "", false, false
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return lockNone, "", false, false
	}
	// The method must come from sync (Mutex/RWMutex), not an arbitrary type.
	if obj := info.Uses[sel.Sel]; obj != nil {
		if recv := methodRecvNamed(obj); recv != nil {
			if pkg := recv.Obj().Pkg(); pkg == nil || pkg.Path() != "sync" {
				return lockNone, "", false, false
			}
		}
	}
	// Unwrap the mutex selector to the value that owns it.
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockNone, "", false, false
	}
	tv, ok := info.Types[field.X]
	if !ok {
		return lockNone, "", false, false
	}
	named := namedOf(tv.Type)
	if named == nil || named.Obj().Pkg() == nil {
		return lockNone, "", false, false
	}
	for _, o := range lockOwners {
		if named.Obj().Name() == o.typeName && pathMatches(named.Obj().Pkg().Path(), o.pkgSuffix) {
			return o.class, shortPkg(named.Obj().Pkg()) + "." + o.typeName, acquire, true
		}
	}
	return lockNone, "", false, false
}

func shortPkg(p *types.Package) string { return p.Name() }
