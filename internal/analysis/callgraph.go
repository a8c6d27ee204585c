package analysis

// The interprocedural layer. A Program is the module-wide view the v2
// analyzers (secretflow, atomicsafety, lockgraph) share: a call graph over
// every declared function and method, and per-function summaries — locks
// acquired (directly and transitively), lock-ordering edges with the lock
// set held at each acquisition, domain transitions reached, guarded-field
// accesses, and atomic-vs-plain field uses — computed bottom-up over the
// strongly-connected components of the call graph, iterating to a fixed
// point inside each SCC so mutual recursion converges.
//
// Precision model (shared by all three rules):
//
//   - The held-lock set is a source-order linear scan per function body: an
//     acquire inside a conditional counts as held for the rest of the body,
//     and a `defer mu.Unlock()` holds to function exit. This
//     over-approximates.
//   - Function literals are flattened into their enclosing declaration: the
//     closure's lock operations, calls, and field accesses are attributed to
//     the function that syntactically contains it. A literal only invoked
//     later still counts — over-approximate again, in the safe direction.
//   - Dynamic calls (interface methods, function values) produce no edges.
//     This is the one under-approximation; contracts crossing such a call
//     (the Validator/Tracker run-under-the-machine-lock convention) must be
//     pinned by an explicit //nescheck:allow at the callee.
import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the module-wide analysis state, built once per Run when any
// program-level analyzer is in the set.
type Program struct {
	Pkgs []*Package
	// fset is the load's shared file set (positions in messages).
	fset *token.FileSet

	// fns maps every declared function/method with a body to its node.
	fns map[*types.Func]*funcNode
	// nodes is fns in deterministic (position) order.
	nodes []*funcNode
	// modulePkgs is the set of loaded type-checked packages, to tell module
	// objects from stdlib ones.
	modulePkgs map[*types.Package]bool

	// guards maps a struct field to the mutex field (same struct) that a
	// //nescheck:guard directive declares must be held to touch it.
	guards map[*types.Var]*types.Var
	// guardDirectivePos remembers where each guard was declared (messages).
	guardDirectivePos map[*types.Var]token.Pos
	// badGuards are malformed //nescheck:guard directives, reported by Run
	// under nescheck/bad-directive.
	badGuards []Finding

	// atomicFields maps a plain (non sync/atomic-typed) struct field to the
	// first sync/atomic function-style access (&x.f passed to atomic.LoadX
	// etc.) seen anywhere in the module.
	atomicFields map[*types.Var]*atomicUse
	// typedAtomicUses maps a sync/atomic-typed struct field to the first
	// method-style access (x.f.Load() etc.) seen anywhere in the module.
	typedAtomicUses map[*types.Var]*atomicUse

	// fieldAccesses collects every plain access to a module struct field,
	// keyed by field; consulted by atomicsafety once the candidate sets
	// above are known.
	fieldAccesses map[*types.Var][]*fieldAccess
}

// atomicUse is one atomic access to a field, for citation in mixed-access
// findings.
type atomicUse struct {
	fn  *funcNode
	pos token.Pos
	op  string // "atomic.LoadUint32", "Load", ...
}

// fieldAccess is one plain (non-atomic) access to a tracked struct field.
type fieldAccess struct {
	fn    *funcNode
	pos   token.Pos
	write bool
	// addr marks address-taken uses (&x.f) outside a sync/atomic call.
	addr bool
	// inCompositeLit marks struct-literal initialization (Type{f: v}): the
	// value is not shared yet, so guard/atomic rules skip it.
	inCompositeLit bool
	// held is the lock set held at the access (linear-scan approximation).
	held []heldLock
}

// heldLock is one entry of the held set: the lock identity plus whether the
// hold is shared (RLock).
type heldLock struct {
	lock   *types.Var
	shared bool
	pos    token.Pos
}

// callSite is one resolved static call to a module function.
type callSite struct {
	callee *types.Func
	pos    token.Pos
	held   []heldLock
}

// acqWitness explains how a function (transitively) acquires a lock: either
// directly at pos, or through the call at pos into next. shared marks
// RLock-style acquisitions (read side of an RWMutex).
type acqWitness struct {
	pos    token.Pos
	next   *funcNode // nil for a direct acquisition
	shared bool
}

// transWitness explains how a function (transitively) reaches a domain
// transition: name is the transition op, next the callee hop (nil = this
// function is itself the transition op or calls it directly at pos).
type transWitness struct {
	name string
	pos  token.Pos
	next *funcNode
}

// lockEdge is one "acquired B while holding A" observation.
type lockEdge struct {
	from     *types.Var // held
	to       *types.Var // acquired
	fn       *funcNode  // where the acquisition happens
	pos      token.Pos  // acquisition (or call) position
	via      *funcNode  // non-nil when `to` is acquired inside a callee
	shared   bool       // the hold on `from` was a read lock
	deferred bool
}

// funcNode is the per-function vertex of the call graph.
type funcNode struct {
	obj  *types.Func
	pkg  *Package
	decl *ast.FuncDecl
	name string // display name, e.g. "sgx.Machine.EEnter"

	calls []*callSite

	// Local facts from the single source-order scan:
	directAcquires map[*types.Var]*acqWitness
	localEdges     []lockEdge
	// transitionOp is non-empty when this function IS a configured domain
	// transition (the sdk ECall and OCall families, the sgx transition
	// instructions).
	transitionOp string

	// Fixed-point summaries:
	mayAcquire map[*types.Var]*acqWitness
	trans      *transWitness

	// taint is the secretflow summary, computed by summary.go.
	taint *taintSummary

	// guardNeeds maps a guard lock to the unprotected-access witness that
	// requires callers to hold it (computed by atomicsafety's fixpoint).
	guardNeeds map[*types.Var]*guardNeed
}

// guardNeed records why a function requires a lock from its callers.
type guardNeed struct {
	field *types.Var // the guarded field ultimately accessed
	pos   token.Pos  // the access (or call) in THIS function
	write bool
	next  *funcNode // non-nil when the access is inside a callee
}

// transitionOps configures which functions count as domain transitions for
// the lockgraph held-across-transition rule: the host↔enclave and
// outer↔inner crossing points, the switchless ocall included.
var transitionOps = []struct {
	pkgSuffix string
	typeName  string // "" for package-level functions
	funcName  string
}{
	{"internal/sdk", "Enclave", "ECall"},
	{"internal/sdk", "Env", "OCall"},
	{"internal/sdk", "Env", "OCallAsync"},
	{"internal/sdk", "Env", "NECall"},
	{"internal/sdk", "Env", "NOCall"},
	{"internal/sgx", "Machine", "EEnter"},
	{"internal/sgx", "Machine", "EExit"},
	{"internal/sgx", "Machine", "EResume"},
	{"internal/sgx", "Machine", "AEX"},
	{"internal/sgx", "Machine", "EmergencyExit"},
	{"internal/sgx", "Machine", "NEENTER"},
	{"internal/sgx", "Machine", "NEEXIT"},
}

// guardDirective is the field annotation grammar:
//
//	//nescheck:guard <mutex-field>
//
// on a struct field's line (or doc comment) declares that the named sibling
// mutex must be held to read the field, and held exclusively to write it.
const guardDirective = "nescheck:guard"

// BuildProgram constructs the module-wide call graph and local facts, then
// runs the bottom-up summary fixed points. The package list must come from
// one LoadTree/LoadModule call (object identity is shared across packages).
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:              pkgs,
		fns:               make(map[*types.Func]*funcNode),
		modulePkgs:        make(map[*types.Package]bool),
		guards:            make(map[*types.Var]*types.Var),
		guardDirectivePos: make(map[*types.Var]token.Pos),
		atomicFields:      make(map[*types.Var]*atomicUse),
		typedAtomicUses:   make(map[*types.Var]*atomicUse),
		fieldAccesses:     make(map[*types.Var][]*fieldAccess),
	}
	if len(pkgs) > 0 {
		p.fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		p.modulePkgs[pkg.Types] = true
	}
	for _, pkg := range pkgs {
		p.collectGuards(pkg)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{
					obj:            obj,
					pkg:            pkg,
					decl:           fd,
					name:           displayName(obj),
					directAcquires: make(map[*types.Var]*acqWitness),
				}
				n.transitionOp = classifyTransition(obj)
				p.fns[obj] = n
				p.nodes = append(p.nodes, n)
			}
		}
	}
	sort.Slice(p.nodes, func(i, j int) bool { return p.nodes[i].obj.Pos() < p.nodes[j].obj.Pos() })
	for _, n := range p.nodes {
		p.scanFunc(n)
	}
	p.summarizeLocks()
	p.summarizeGuards()
	buildTaintSummaries(p)
	return p
}

// displayName renders "pkg.Func" or "pkg.Recv.Method" (pointers unwrapped).
func displayName(obj *types.Func) string {
	pkg := "?"
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name()
	}
	if recv := methodRecvNamed(obj); recv != nil {
		return pkg + "." + recv.Obj().Name() + "." + obj.Name()
	}
	return pkg + "." + obj.Name()
}

func classifyTransition(obj *types.Func) string {
	if obj.Pkg() == nil {
		return ""
	}
	recv := methodRecvNamed(obj)
	for _, t := range transitionOps {
		if !pathMatches(obj.Pkg().Path(), t.pkgSuffix) || obj.Name() != t.funcName {
			continue
		}
		if t.typeName == "" {
			if recv == nil {
				return displayName(obj)
			}
			continue
		}
		if recv != nil && recv.Obj().Name() == t.typeName {
			return displayName(obj)
		}
	}
	return ""
}

// collectGuards parses //nescheck:guard directives off struct field
// declarations.
func (p *Program) collectGuards(pkg *Package) {
	bad := func(pos token.Pos, format string, args ...any) {
		p.badGuards = append(p.badGuards, Finding{
			Pos:  pkg.Fset.Position(pos),
			Rule: "nescheck/bad-directive",
			Msg:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mutexName, pos, ok := guardAnnotation(field)
				if !ok {
					continue
				}
				if mutexName == "" {
					bad(pos, "nescheck:guard needs the sibling mutex field name")
					continue
				}
				if len(field.Names) == 0 {
					bad(pos, "nescheck:guard cannot annotate an embedded field")
					continue
				}
				mutex := findSiblingMutex(pkg.Info, st, mutexName)
				if mutex == nil {
					bad(pos, "nescheck:guard names %q, which is not a sync.Mutex/RWMutex field of this struct", mutexName)
					continue
				}
				for _, name := range field.Names {
					fv, ok := pkg.Info.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					p.guards[fv] = mutex
					p.guardDirectivePos[fv] = pos
				}
			}
			return true
		})
	}
}

// guardAnnotation extracts the //nescheck:guard payload from a field's doc
// or line comment.
func guardAnnotation(field *ast.Field) (mutex string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, found := strings.CutPrefix(c.Text, "//"+guardDirective)
			if !found {
				continue
			}
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return "", c.Pos(), true
			}
			return fields[0], c.Pos(), true
		}
	}
	return "", token.NoPos, false
}

func findSiblingMutex(info *types.Info, st *ast.StructType, name string) *types.Var {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name != name {
				continue
			}
			v, ok := info.Defs[id].(*types.Var)
			if ok && isSyncMutexType(v.Type()) {
				return v
			}
			return nil
		}
	}
	return nil
}

func isSyncMutexType(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}

// lockDisplay renders a lock identity for messages: "sgx.Machine.mu".
func lockDisplay(v *types.Var) string {
	pkg := "?"
	if v.Pkg() != nil {
		pkg = v.Pkg().Name()
	}
	if owner := fieldOwner(v); owner != "" {
		return pkg + "." + owner + "." + v.Name()
	}
	return pkg + "." + v.Name()
}

// fieldDisplay renders a struct field for messages: "sgx.Machine.assocEpoch".
func fieldDisplay(v *types.Var) string { return lockDisplay(v) }

// fieldOwners caches field → owning-struct-name resolution.
var fieldOwnerCache = map[*types.Var]string{}

// fieldOwner finds the named type whose struct declares v, by scanning the
// declaring package's named types. Returns "" for non-fields.
func fieldOwner(v *types.Var) string {
	if !v.IsField() || v.Pkg() == nil {
		return ""
	}
	if s, ok := fieldOwnerCache[v]; ok {
		return s
	}
	name := ""
	scope := v.Pkg().Scope()
	for _, tn := range scope.Names() {
		obj, ok := scope.Lookup(tn).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				name = obj.Name()
				break
			}
		}
		if name != "" {
			break
		}
	}
	if name == "" {
		// Unnamed struct type (rare): fall back to the field name alone.
		name = ""
	}
	fieldOwnerCache[v] = name
	return name
}

// --- The single source-order scan -----------------------------------------

var atomicFuncPrefixes = []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "Or", "And"}

func isAtomicFuncName(name string) bool {
	for _, p := range atomicFuncPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// scanFunc walks one function body in source order, maintaining the held-lock
// set, and records lock ops, call sites, atomic uses, and field accesses.
func (p *Program) scanFunc(n *funcNode) {
	info := n.pkg.Info
	var held []heldLock

	// writes marks selector nodes appearing as assignment targets.
	writes := map[ast.Node]bool{}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				writes[ast.Unparen(lhs)] = true
			}
		case *ast.IncDecStmt:
			writes[ast.Unparen(s.X)] = true
		}
		return true
	})

	// atomicArgs marks the &x.f operand of sync/atomic function-style calls
	// and the x.f receiver of typed-atomic method calls, so the generic
	// field-access visitor skips them.
	atomicArgs := map[ast.Node]bool{}
	// immediateLits marks function literals invoked where they stand.
	immediateLits := map[*ast.FuncLit]bool{}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				immediateLits[fl] = true
			}
		}
		return true
	})
	// compositeKeys marks struct-literal field keys.
	compositeKeys := map[ast.Node]bool{}

	var walk func(node ast.Node, deferred bool) bool
	visit := func(node ast.Node, deferred bool) bool {
		switch e := node.(type) {
		case *ast.DeferStmt:
			// Scan the deferred call (and a deferred closure's body) with the
			// deferred flag: lock releases inside hold to function exit.
			if fl, ok := ast.Unparen(e.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(fl.Body, func(x ast.Node) bool { return walk(x, true) })
			} else {
				ast.Inspect(e.Call, func(x ast.Node) bool { return walk(x, true) })
			}
			return false
		case *ast.GoStmt:
			// A spawned goroutine does not inherit the spawner's held locks:
			// scan its call (and closure body) with an empty held set.
			saved := held
			held = nil
			ast.Inspect(e.Call, func(x ast.Node) bool { return walk(x, false) })
			held = saved
			return false
		case *ast.FuncLit:
			// A literal that is not invoked on the spot is a stored callback:
			// it runs later, NOT under the enclosing held set, and the locks
			// it takes (with their deferred releases) are scoped to one
			// invocation of the callback — they must not leak into the
			// enclosing scan as held-forever.
			if immediateLits[e] {
				return true // func(){...}() runs inline, inherit everything
			}
			saved := held
			held = nil
			ast.Inspect(e.Body, func(x ast.Node) bool { return walk(x, false) })
			held = saved
			return false
		case *ast.IfStmt:
			// Flow-sensitivity for the early-exit idiom: a branch that
			// terminates (ends in return/break/continue or a panic call) has
			// its lock effects discarded — `if bad { mu.Unlock(); return }`
			// does not release the lock on the fall-through path, and locks
			// taken inside such a branch are not held after it.
			if e.Init != nil {
				ast.Inspect(e.Init, func(x ast.Node) bool { return walk(x, deferred) })
			}
			ast.Inspect(e.Cond, func(x ast.Node) bool { return walk(x, deferred) })
			saved := append([]heldLock(nil), held...)
			ast.Inspect(e.Body, func(x ast.Node) bool { return walk(x, deferred) })
			if terminates(e.Body.List) {
				held = saved
			}
			if e.Else != nil {
				// An else-if recurses into this case; a plain else block gets
				// the same terminating-branch treatment.
				savedElse := append([]heldLock(nil), held...)
				ast.Inspect(e.Else, func(x ast.Node) bool { return walk(x, deferred) })
				if blk, ok := e.Else.(*ast.BlockStmt); ok && terminates(blk.List) {
					held = savedElse
				}
			}
			return false
		case *ast.CaseClause:
			saved := append([]heldLock(nil), held...)
			for _, s := range e.Body {
				ast.Inspect(s, func(x ast.Node) bool { return walk(x, deferred) })
			}
			if terminates(e.Body) {
				held = saved
			}
			return false
		case *ast.CommClause:
			if e.Comm != nil {
				ast.Inspect(e.Comm, func(x ast.Node) bool { return walk(x, deferred) })
			}
			saved := append([]heldLock(nil), held...)
			for _, s := range e.Body {
				ast.Inspect(s, func(x ast.Node) bool { return walk(x, deferred) })
			}
			if terminates(e.Body) {
				held = saved
			}
			return false
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					compositeKeys[ast.Unparen(kv.Key)] = true
				}
			}
		case *ast.CallExpr:
			if lock, op, ok := p.classifyLockOp(info, e); ok {
				p.applyLockOp(n, &held, lock, op, e.Pos(), deferred)
				// Do not rescan a deferred unlock as a plain call.
				return true
			}
			if fv, op, arg, ok := p.atomicFuncAccess(info, e); ok {
				atomicArgs[arg] = true
				if _, seen := p.atomicFields[fv]; !seen {
					p.atomicFields[fv] = &atomicUse{fn: n, pos: e.Pos(), op: "atomic." + op}
				}
				return true
			}
			if fv, op, recv, ok := p.typedAtomicMethod(info, e); ok {
				atomicArgs[recv] = true
				if _, seen := p.typedAtomicUses[fv]; !seen {
					p.typedAtomicUses[fv] = &atomicUse{fn: n, pos: e.Pos(), op: op}
				}
				return true
			}
			if callee := calleeObject(info, e); callee != nil {
				if fn, ok := callee.(*types.Func); ok && p.modulePkgs[fn.Pkg()] {
					n.calls = append(n.calls, &callSite{
						callee: fn,
						pos:    e.Pos(),
						held:   append([]heldLock(nil), held...),
					})
				}
			}
		case *ast.SelectorExpr:
			fv := moduleField(info, e, p.modulePkgs)
			if fv == nil {
				return true
			}
			if atomicArgs[e] || atomicArgs[ast.Unparen(e.X)] {
				return true
			}
			acc := &fieldAccess{
				fn:             n,
				pos:            e.Pos(),
				write:          writes[e],
				inCompositeLit: false,
				held:           append([]heldLock(nil), held...),
			}
			p.fieldAccesses[fv] = append(p.fieldAccesses[fv], acc)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok && !atomicArgs[sel] {
					if fv := moduleField(info, sel, p.modulePkgs); fv != nil {
						// Mark the inner selector's record (just appended when
						// the selector is visited after us — instead, record
						// addr-taken here and let the selector visit skip).
						p.fieldAccesses[fv] = append(p.fieldAccesses[fv], &fieldAccess{
							fn: n, pos: sel.Pos(), addr: true,
							held: append([]heldLock(nil), held...),
						})
						atomicArgs[sel] = true // suppress the duplicate plain record
					}
				}
			}
		case *ast.Ident:
			// Composite-literal keys resolve to field objects too; tag them.
			if compositeKeys[e] {
				if obj, ok := info.Uses[e].(*types.Var); ok && obj.IsField() && p.modulePkgs[obj.Pkg()] {
					p.fieldAccesses[obj] = append(p.fieldAccesses[obj], &fieldAccess{
						fn: n, pos: e.Pos(), write: true, inCompositeLit: true,
						held: append([]heldLock(nil), held...),
					})
				}
			}
		}
		return true
	}
	walk = visit
	ast.Inspect(n.decl.Body, func(node ast.Node) bool { return visit(node, false) })
}

// terminates reports whether a statement list always exits the enclosing
// scope: the last statement is a return, a branch (break/continue/goto), or a
// panic call. Nested blocks recurse; anything else is fall-through.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// applyLockOp updates the held set for one Lock/RLock/Unlock/RUnlock call and
// records direct acquisitions and local lock-order edges.
func (p *Program) applyLockOp(n *funcNode, held *[]heldLock, lock *types.Var, op string, pos token.Pos, deferred bool) {
	switch op {
	case "Lock", "RLock":
		if deferred {
			return // a deferred acquire (pathological) — ignore
		}
		shared := op == "RLock"
		for _, h := range *held {
			n.localEdges = append(n.localEdges, lockEdge{
				from: h.lock, to: lock, fn: n, pos: pos, shared: h.shared,
			})
		}
		if _, ok := n.directAcquires[lock]; !ok {
			n.directAcquires[lock] = &acqWitness{pos: pos, shared: shared}
		}
		*held = append(*held, heldLock{lock: lock, shared: shared, pos: pos})
	case "Unlock", "RUnlock":
		if deferred {
			return // releases at function exit; stays held below
		}
		hs := *held
		for i := len(hs) - 1; i >= 0; i-- {
			if hs[i].lock == lock {
				*held = append(hs[:i], hs[i+1:]...)
				return
			}
		}
	}
}

// classifyLockOp matches `x.f.Lock()` (and RLock/Unlock/RUnlock/TryLock)
// where f is a sync.Mutex/RWMutex field of a module struct, or a
// package-level module mutex.
func (p *Program) classifyLockOp(info *types.Info, call *ast.CallExpr) (*types.Var, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	// The method must come from sync.
	if obj := info.Uses[sel.Sel]; obj != nil {
		recv := methodRecvNamed(obj)
		if recv == nil || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != "sync" {
			return nil, "", false
		}
	} else {
		return nil, "", false
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() && p.modulePkgs[v.Pkg()] {
			return v, op, true
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && !v.IsField() && v.Pkg() != nil &&
			p.modulePkgs[v.Pkg()] && v.Parent() == v.Pkg().Scope() {
			return v, op, true
		}
	}
	return nil, "", false
}

// atomicFuncAccess matches atomic.LoadUint64(&x.f, ...) and friends, where f
// is a module struct field; returns the field, the op name, and the selector
// node of the &x.f argument.
func (p *Program) atomicFuncAccess(info *types.Info, call *ast.CallExpr) (*types.Var, string, ast.Node, bool) {
	obj := calleeObject(info, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return nil, "", nil, false
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return nil, "", nil, false
	}
	if !isAtomicFuncName(obj.Name()) || len(call.Args) == 0 {
		return nil, "", nil, false
	}
	un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil, "", nil, false
	}
	sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
	if !ok {
		return nil, "", nil, false
	}
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() && p.modulePkgs[v.Pkg()] {
		return v, obj.Name(), sel, true
	}
	return nil, "", nil, false
}

// typedAtomicMethod matches x.f.Load() / Store / Add / Swap / CompareAndSwap
// where f is a module struct field of a sync/atomic type; returns the field
// and the receiver selector node.
func (p *Program) typedAtomicMethod(info *types.Info, call *ast.CallExpr) (*types.Var, string, ast.Node, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !isAtomicFuncName(sel.Sel.Name) {
		return nil, "", nil, false
	}
	obj := info.Uses[sel.Sel]
	recv := methodRecvNamed(obj)
	if recv == nil || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != "sync/atomic" {
		return nil, "", nil, false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, "", nil, false
	}
	if v, ok := info.Uses[inner.Sel].(*types.Var); ok && v.IsField() && p.modulePkgs[v.Pkg()] {
		return v, sel.Sel.Name, inner, true
	}
	return nil, "", nil, false
}

// isTypedAtomicField reports whether a field's type is declared in
// sync/atomic (atomic.Uint32, atomic.Pointer[T], ...).
func isTypedAtomicField(v *types.Var) bool {
	n := namedOf(v.Type())
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// moduleField resolves a selector to a module struct field object, or nil.
// Method selectors, package selectors, and stdlib fields return nil.
func moduleField(info *types.Info, sel *ast.SelectorExpr, modulePkgs map[*types.Package]bool) *types.Var {
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil || !modulePkgs[v.Pkg()] {
		return nil
	}
	return v
}

// --- SCC condensation and the lock/transition fixed point ------------------

// sccs returns the call graph's strongly connected components in bottom-up
// (callees before callers) order, via Tarjan's algorithm.
func (p *Program) sccs() [][]*funcNode {
	index := make(map[*funcNode]int)
	low := make(map[*funcNode]int)
	onStack := make(map[*funcNode]bool)
	var stack []*funcNode
	var out [][]*funcNode
	next := 0

	var strongconnect func(n *funcNode)
	strongconnect = func(n *funcNode) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, cs := range n.calls {
			m := p.fns[cs.callee]
			if m == nil {
				continue
			}
			if _, seen := index[m]; !seen {
				strongconnect(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			var scc []*funcNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, n := range p.nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return out // Tarjan emits SCCs in reverse topological order: callees first
}

// summarizeLocks computes mayAcquire and the transition witness bottom-up.
func (p *Program) summarizeLocks() {
	for _, scc := range p.sccs() {
		for {
			changed := false
			for _, n := range scc {
				if n.mayAcquire == nil {
					n.mayAcquire = make(map[*types.Var]*acqWitness)
					for lock, w := range n.directAcquires {
						n.mayAcquire[lock] = w
					}
					if n.transitionOp != "" {
						n.trans = &transWitness{name: n.transitionOp, pos: n.decl.Pos()}
					}
					changed = true
				}
				for _, cs := range n.calls {
					m := p.fns[cs.callee]
					if m == nil || m.mayAcquire == nil {
						continue
					}
					for lock, w := range m.mayAcquire {
						if _, ok := n.mayAcquire[lock]; !ok {
							n.mayAcquire[lock] = &acqWitness{pos: cs.pos, next: m, shared: w.shared}
							changed = true
						}
					}
					if n.trans == nil {
						if m.transitionOp != "" {
							n.trans = &transWitness{name: m.transitionOp, pos: cs.pos, next: m}
							changed = true
						} else if m.trans != nil {
							n.trans = &transWitness{name: m.trans.name, pos: cs.pos, next: m}
							changed = true
						}
					}
				}
			}
			if !changed {
				break
			}
		}
	}
}

// summarizeGuards propagates "this function must be entered with lock L
// held" requirements up the call graph: a function that touches a guarded
// field without holding the guard locally pushes the requirement to every
// call site that does not hold it either.
func (p *Program) summarizeGuards() {
	if len(p.guards) == 0 {
		return
	}
	// Seed: unprotected direct accesses.
	for fv, guard := range p.guards {
		for _, acc := range p.fieldAccesses[fv] {
			if acc.inCompositeLit {
				continue
			}
			if holdsGuard(acc.held, guard, acc.write) {
				continue
			}
			n := acc.fn
			if n.guardNeeds == nil {
				n.guardNeeds = make(map[*types.Var]*guardNeed)
			}
			if _, ok := n.guardNeeds[guard]; !ok {
				n.guardNeeds[guard] = &guardNeed{field: fv, pos: acc.pos, write: acc.write}
			}
		}
	}
	// Propagate to callers until stable (the graph is small; iterate
	// globally rather than SCC-by-SCC for simplicity).
	for {
		changed := false
		for _, n := range p.nodes {
			for _, cs := range n.calls {
				m := p.fns[cs.callee]
				if m == nil || m.guardNeeds == nil {
					continue
				}
				for guard, need := range m.guardNeeds {
					if holdsGuard(cs.held, guard, need.write) {
						continue
					}
					if n.guardNeeds == nil {
						n.guardNeeds = make(map[*types.Var]*guardNeed)
					}
					if _, ok := n.guardNeeds[guard]; !ok {
						n.guardNeeds[guard] = &guardNeed{field: need.field, pos: cs.pos, write: need.write, next: m}
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
}

// holdsGuard reports whether the held set satisfies a guard requirement:
// writes need the exclusive lock, reads accept a read lock.
func holdsGuard(held []heldLock, guard *types.Var, write bool) bool {
	for _, h := range held {
		if h.lock == guard && (!write || !h.shared) {
			return true
		}
	}
	return false
}

// callersOf returns, for each function, its in-module call sites (computed
// on demand; deterministic order).
func (p *Program) callersOf() map[*funcNode][]*callSite {
	in := make(map[*funcNode][]*callSite)
	for _, n := range p.nodes {
		for _, cs := range n.calls {
			if m := p.fns[cs.callee]; m != nil {
				in[m] = append(in[m], cs)
			}
		}
	}
	return in
}
