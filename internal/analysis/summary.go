package analysis

// The secret-flow summary engine. Taint is tracked per function over
// types.Object values, flow-insensitively (a variable tainted anywhere in a
// body is tainted everywhere in it), with two kinds of taint:
//
//   - parameter taint: the value derives from one of the function's
//     parameters (a bitmask — used to build the param→return and param→sink
//     entries of the function's summary, composed at call sites);
//   - source taint: the value derives from a secret born somewhere in the
//     module (a *sourceChain pinning the birth site), used to report
//     complete source→sink flows.
//
// Summaries compose bottom-up over the call-graph SCCs: when f calls g with
// a source-tainted argument and g's summary says that parameter reaches a
// sink, the flow completes in f; when the argument is merely
// parameter-tainted, the sink obligation is re-exported as part of f's own
// summary for f's callers to resolve. Calls that cannot be resolved
// statically (interface methods, function values) and calls into the
// standard library conservatively propagate every argument's taint to every
// result — except through sanitizers (Seal/Encrypt/MAC helpers and the
// crypto constructors), whose results are clean by definition.
import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// sourceChain pins the birth of one secret value.
type sourceChain struct {
	desc string    // what the secret is, from the source table
	pos  token.Pos // where it is born
	fn   *funcNode // the function it is born in
}

// flowStep is one call-graph hop of a flow trace.
type flowStep struct {
	fn  *funcNode // the callee entered
	pos token.Pos // the position inside fn where the flow continues
}

// sinkChain is one "this parameter reaches a sink" summary entry.
type sinkChain struct {
	desc     string     // what the sink is
	pos      token.Pos  // in the summarized function: the sink or the call leading to it
	via      []flowStep // hops below the summarized function, ending at the sink
	finalPos token.Pos  // the sink call itself, wherever it lives
}

// flowFinding is one complete secret→sink flow, anchored in the function
// where source-tainted data enters the sink path.
type flowFinding struct {
	pos    token.Pos // anchor: the sink call or the call whose callee sinks
	source *sourceChain
	desc   string     // sink description
	via    []flowStep // hops from the anchor down to the sink
}

// taintSummary is the secret-flow summary of one function.
type taintSummary struct {
	// paramToRet[i] reports that parameter i (receiver first, when present)
	// may flow to a return value.
	paramToRet []bool
	// paramSinks[i] holds the sinks parameter i may reach, keyed for dedup.
	paramSinks []map[string]*sinkChain
	// retSources are secrets born in this function (or below) that flow to a
	// return value.
	retSources []*sourceChain
	// localFlows are complete source→sink flows detected in this function.
	localFlows []*flowFinding
}

// --- Source / sink / sanitizer tables --------------------------------------

// taintSource describes one way a secret is born. Field sources taint every
// read of the struct field; func sources taint every call result.
type taintSource struct {
	pkgSuffix string
	typeName  string // receiver (funcs) or owning struct (fields); "" = package-level func
	name      string
	field     bool
	desc      string
}

// secretSources is the catalog of secret births: the platform root secret and
// everything key-derivation produces from it (seal keys, the REPORT MAC key),
// plus sealed-blob plaintext, which re-enters the trusted world through
// Unseal and must not leave it again unsealed.
var secretSources = []taintSource{
	{"internal/sgx", "Machine", "platformSecret", true, "the platform root secret"},
	{"internal/measure", "", "DeriveKey", false, "a key derived from the platform secret"},
	{"internal/sgx", "Machine", "EGetKey", false, "an EGETKEY-derived key"},
	{"internal/sgx", "Machine", "reportKey", false, "the REPORT MAC key"},
	{"internal/sdk", "Env", "GetKey", false, "an enclave sealing/report key"},
	{"internal/sdk", "Env", "Unseal", false, "unsealed blob plaintext"},
}

// taintSink describes one untrusted destination. argFrom is the index of the
// first sensitive argument (earlier arguments are addresses, channel names,
// and other non-payload operands). name "*" matches every method of the type.
type taintSink struct {
	pkgSuffix string
	typeName  string
	name      string
	argFrom   int
	desc      string
}

// secretSinks is the catalog of kernel- or host-visible destinations.
var secretSinks = []taintSink{
	{"internal/kos", "IPCService", "Send", 1, "the kernel-visible IPC channel"},
	{"internal/phys", "Memory", "Write", 1, "raw untrusted DRAM"},
	{"internal/sdk", "Env", "OCall", 1, "ocall arguments leaving the enclave"},
	{"internal/sdk", "Env", "OCallAsync", 1, "ocall arguments leaving the enclave"},
	{"internal/trace", "Recorder", "*", 0, "the host-readable trace recorder"},
}

// isSanitizer reports whether a call to obj launders its arguments: the
// result of sealing, encrypting, or MACing a secret is safe to publish.
// "Unseal" is checked first — it contains "Seal" but reverses it.
func isSanitizer(obj types.Object) bool {
	name := obj.Name()
	if strings.Contains(name, "Unseal") {
		return false
	}
	if strings.Contains(name, "Seal") || strings.Contains(name, "Encrypt") || strings.Contains(name, "MAC") {
		return true
	}
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + name {
	case "crypto/aes.NewCipher", "crypto/cipher.NewGCM", "crypto/hmac.New",
		"crypto/sha256.New", "crypto/sha256.Sum256", "crypto/hmac.Equal",
		"crypto/subtle.ConstantTimeCompare":
		return true
	}
	return false
}

// sourceForField returns the source entry for a struct field, or nil.
func sourceForField(v *types.Var) *taintSource {
	for i := range secretSources {
		s := &secretSources[i]
		if !s.field || v.Name() != s.name || v.Pkg() == nil {
			continue
		}
		if pathMatches(v.Pkg().Path(), s.pkgSuffix) && fieldOwner(v) == s.typeName {
			return s
		}
	}
	return nil
}

// sourceForFunc returns the source entry for a called function, or nil.
func sourceForFunc(obj types.Object) *taintSource {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	for i := range secretSources {
		s := &secretSources[i]
		if s.field || fn.Name() != s.name || !pathMatches(fn.Pkg().Path(), s.pkgSuffix) {
			continue
		}
		recv := methodRecvNamed(fn)
		if s.typeName == "" {
			if recv == nil {
				return s
			}
			continue
		}
		if recv != nil && recv.Obj().Name() == s.typeName {
			return s
		}
	}
	return nil
}

// classifySink matches a call against the sink catalog (module sinks, the
// fmt/log/print families, and writes to os.Stdout/Stderr) and returns the
// sink description plus the sensitive argument expressions.
func classifySink(info *types.Info, call *ast.CallExpr) (string, []ast.Expr, bool) {
	// Builtin print/println.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "print" || b.Name() == "println") {
			return "the process stdout", call.Args, true
		}
	}
	obj := calleeObject(info, call)
	if obj == nil {
		return "", nil, false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", nil, false
	}
	recv := methodRecvNamed(fn)
	for i := range secretSinks {
		s := &secretSinks[i]
		if !pathMatches(fn.Pkg().Path(), s.pkgSuffix) {
			continue
		}
		if s.name != "*" && fn.Name() != s.name {
			continue
		}
		if recv == nil || recv.Obj().Name() != s.typeName {
			continue
		}
		if s.argFrom >= len(call.Args) {
			continue
		}
		return s.desc, call.Args[s.argFrom:], true
	}
	switch fn.Pkg().Path() {
	case "fmt":
		if recv == nil && strings.HasPrefix(fn.Name(), "Print") {
			return "the process stdout", call.Args, true
		}
		if recv == nil && strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 1 {
			return "an untrusted writer", call.Args[1:], true
		}
	case "log":
		if recv == nil {
			return "the process log", call.Args, true
		}
	case "os":
		// Methods on os.Stdout / os.Stderr.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && recv != nil {
			if x, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Pkg().Path() == "os" &&
					(v.Name() == "Stdout" || v.Name() == "Stderr") {
					return "the process stdout", call.Args, true
				}
			}
		}
	}
	return "", nil, false
}

// --- The per-function evaluator --------------------------------------------

// taintVal is the taint of one value: a parameter bitmask plus the secret
// births it derives from (kept sorted by birth position for determinism).
type taintVal struct {
	params  uint64
	sources []*sourceChain
}

func (v taintVal) isTainted() bool { return v.params != 0 || len(v.sources) > 0 }

func mergeVal(dst *taintVal, src taintVal) bool {
	changed := false
	if src.params&^dst.params != 0 {
		dst.params |= src.params
		changed = true
	}
	for _, s := range src.sources {
		if !containsChain(dst.sources, s) {
			dst.sources = append(dst.sources, s)
			changed = true
		}
	}
	if changed {
		sort.Slice(dst.sources, func(i, j int) bool { return dst.sources[i].pos < dst.sources[j].pos })
	}
	return changed
}

func containsChain(cs []*sourceChain, c *sourceChain) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// taintEval evaluates one function until its environment and summary are
// stable. The same evaluator instance is reused across SCC iterations so
// facts only accumulate.
type taintEval struct {
	p       *Program
	n       *funcNode
	env     map[types.Object]*taintVal
	params  []*types.Var // receiver first, then parameters
	births  map[token.Pos]*sourceChain
	flowKey map[string]bool
	changed bool // any env or summary growth in the last pass
}

func newTaintEval(p *Program, n *funcNode) *taintEval {
	e := &taintEval{
		p:       p,
		n:       n,
		env:     make(map[types.Object]*taintVal),
		births:  make(map[token.Pos]*sourceChain),
		flowKey: make(map[string]bool),
	}
	sig, _ := n.obj.Type().(*types.Signature)
	if sig != nil {
		if sig.Recv() != nil {
			e.params = append(e.params, sig.Recv())
		}
		for i := 0; i < sig.Params().Len(); i++ {
			e.params = append(e.params, sig.Params().At(i))
		}
	}
	n.taint = &taintSummary{
		paramToRet: make([]bool, len(e.params)),
		paramSinks: make([]map[string]*sinkChain, len(e.params)),
	}
	for i, pv := range e.params {
		n.taint.paramSinks[i] = make(map[string]*sinkChain)
		if i < 64 {
			e.env[pv] = &taintVal{params: 1 << i}
		}
	}
	return e
}

// pass walks the body once, propagating taint; returns whether anything grew.
func (e *taintEval) pass() bool {
	e.changed = false
	ast.Inspect(e.n.decl.Body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.AssignStmt:
			e.assign(s.Lhs, s.Rhs)
		case *ast.ValueSpec:
			if len(s.Values) > 0 {
				lhs := make([]ast.Expr, len(s.Names))
				for i, id := range s.Names {
					lhs[i] = id
				}
				e.assign(lhs, s.Values)
			}
		case *ast.RangeStmt:
			v := e.eval(s.X)
			if s.Key != nil {
				e.taintLHS(s.Key, v)
			}
			if s.Value != nil {
				e.taintLHS(s.Value, v)
			}
		case *ast.ReturnStmt:
			e.returnStmt(s)
		case *ast.CallExpr:
			e.eval(s)
		}
		return true
	})
	return e.changed
}

func (e *taintEval) assign(lhs, rhs []ast.Expr) {
	if len(lhs) == len(rhs) {
		for i := range lhs {
			e.taintLHS(lhs[i], e.eval(rhs[i]))
		}
		return
	}
	// Tuple assignment: every target gets the call's combined taint.
	var all taintVal
	for _, r := range rhs {
		mergeVal(&all, e.eval(r))
	}
	for _, l := range lhs {
		e.taintLHS(l, all)
	}
}

// taintLHS merges taint into an assignment target: the named object for
// identifiers, the root object for selector/index targets (writing a tainted
// value into x.f or x[i] taints x as a whole).
func (e *taintEval) taintLHS(lhs ast.Expr, v taintVal) {
	if !v.isTainted() {
		return
	}
	if obj := rootObject(e.n.pkg.Info, lhs); obj != nil {
		// Error values never carry taint: `pt, err := Unseal(...)` must not
		// mark err secret just because the call's other result is — errors
		// idiomatically wrap metadata, not key material, and the error
		// channel otherwise smuggles false taint through every return.
		if isErrorType(obj.Type()) {
			return
		}
		e.setObj(obj, v)
	}
}

func (e *taintEval) setObj(obj types.Object, v taintVal) {
	cur := e.env[obj]
	if cur == nil {
		cur = &taintVal{}
		e.env[obj] = cur
	}
	if mergeVal(cur, v) {
		e.changed = true
	}
}

// rootObject resolves the variable at the base of an lvalue expression.
func rootObject(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(expr).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			// Stop at package qualifiers (os.Stdout): Sel is the object.
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return info.Uses[x.Sel]
				}
			}
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.SliceExpr:
			expr = x.X
		case *ast.TypeAssertExpr:
			expr = x.X
		default:
			return nil
		}
	}
}

func (e *taintEval) returnStmt(s *ast.ReturnStmt) {
	sig, _ := e.n.obj.Type().(*types.Signature)
	var vals []taintVal
	if len(s.Results) > 0 {
		for _, r := range s.Results {
			vals = append(vals, e.eval(r))
		}
	} else if sig != nil {
		// Naked return: named results carry the value.
		for i := 0; i < sig.Results().Len(); i++ {
			if rv := sig.Results().At(i); rv.Name() != "" {
				if cur := e.env[rv]; cur != nil {
					vals = append(vals, *cur)
				}
			}
		}
	}
	for _, v := range vals {
		for i := range e.params {
			if i < 64 && v.params&(1<<i) != 0 && !e.n.taint.paramToRet[i] {
				e.n.taint.paramToRet[i] = true
				e.changed = true
			}
		}
		for _, src := range v.sources {
			if !containsChain(e.n.taint.retSources, src) {
				e.n.taint.retSources = append(e.n.taint.retSources, src)
				e.changed = true
			}
		}
	}
}

// eval computes an expression's taint, recording sink hits and summary
// entries for calls along the way.
func (e *taintEval) eval(expr ast.Expr) taintVal {
	info := e.n.pkg.Info
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			if v := e.env[obj]; v != nil {
				return *v
			}
		}
		return taintVal{}
	case *ast.SelectorExpr:
		if fv := moduleFieldUse(info, x); fv != nil {
			if src := sourceForField(fv); src != nil {
				return taintVal{sources: []*sourceChain{e.birth(x.Pos(), src.desc)}}
			}
		}
		// Field reads do NOT inherit the base value's taint. Writing a secret
		// into x.f taints x (so sending the whole struct is caught), but
		// reading a *different* field back out of x must not re-derive the
		// secret — otherwise one tainted field turns every x.EID/x.Rec read
		// into a false flow and the receiver cascade swallows the module.
		return taintVal{}
	case *ast.CallExpr:
		return e.evalCall(x)
	case *ast.BinaryExpr:
		v := e.eval(x.X)
		mergeVal(&v, e.eval(x.Y))
		return v
	case *ast.UnaryExpr:
		return e.eval(x.X)
	case *ast.StarExpr:
		return e.eval(x.X)
	case *ast.IndexExpr:
		return e.eval(x.X)
	case *ast.SliceExpr:
		return e.eval(x.X)
	case *ast.TypeAssertExpr:
		return e.eval(x.X)
	case *ast.CompositeLit:
		var v taintVal
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				mergeVal(&v, e.eval(kv.Value))
			} else {
				mergeVal(&v, e.eval(elt))
			}
		}
		return v
	}
	return taintVal{}
}

// birth interns the sourceChain for a secret born at pos, so repeated
// evaluation passes reuse one identity.
func (e *taintEval) birth(pos token.Pos, desc string) *sourceChain {
	if c, ok := e.births[pos]; ok {
		return c
	}
	c := &sourceChain{desc: desc, pos: pos, fn: e.n}
	e.births[pos] = c
	return c
}

func (e *taintEval) evalCall(call *ast.CallExpr) taintVal {
	info := e.n.pkg.Info

	// Type conversion: []byte(x), string(x) — taint passes through.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		var v taintVal
		for _, a := range call.Args {
			mergeVal(&v, e.eval(a))
		}
		return v
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				var v taintVal
				for _, a := range call.Args {
					mergeVal(&v, e.eval(a))
				}
				return v
			case "copy":
				if len(call.Args) == 2 {
					if v := e.eval(call.Args[1]); v.isTainted() {
						e.taintLHS(call.Args[0], v)
					}
				}
				return taintVal{}
			case "len", "cap", "make", "new", "min", "max", "delete", "clear", "panic", "recover":
				for _, a := range call.Args {
					e.eval(a)
				}
				return taintVal{}
			}
		}
	}

	// Sinks are terminal: record hits, do not compose further.
	if desc, sensitive, ok := classifySink(info, call); ok {
		for _, arg := range sensitive {
			v := e.eval(arg)
			e.recordSinkHit(v, desc, call.Pos(), call.Pos(), nil)
		}
		// Non-sensitive leading args still need evaluation for nested calls.
		for _, arg := range call.Args[:len(call.Args)-len(sensitive)] {
			e.eval(arg)
		}
		return taintVal{}
	}

	// Gather argument taints: receiver first for method calls on values.
	obj := calleeObject(info, call)
	var argVals []taintVal
	if obj != nil {
		if fn, ok := obj.(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					argVals = append(argVals, e.eval(sel.X))
				} else {
					argVals = append(argVals, taintVal{})
				}
			}
		}
	}
	for _, a := range call.Args {
		argVals = append(argVals, e.eval(a))
	}

	// Sanitizers launder everything.
	if obj != nil && isSanitizer(obj) {
		return taintVal{}
	}

	// Configured source functions birth a fresh secret per call site (their
	// bodies, if in-module, are not additionally consulted — that would
	// double-report the same flow).
	if obj != nil {
		if src := sourceForFunc(obj); src != nil {
			return taintVal{sources: []*sourceChain{e.birth(call.Pos(), src.desc)}}
		}
	}

	// In-module callee with a computed summary: compose.
	if fn, ok := obj.(*types.Func); ok {
		if callee := e.p.fns[fn]; callee != nil && callee.taint != nil {
			return e.compose(call, callee, argVals)
		}
	}

	// Unresolved, dynamic, or stdlib call: conservatively propagate.
	var v taintVal
	for _, a := range argVals {
		mergeVal(&v, a)
	}
	return v
}

// compose applies a callee's summary at a call site.
func (e *taintEval) compose(call *ast.CallExpr, callee *funcNode, argVals []taintVal) taintVal {
	sum := callee.taint
	np := len(sum.paramSinks)
	var out taintVal
	for i, v := range argVals {
		pi := i
		if pi >= np {
			pi = np - 1 // variadic overflow maps to the last parameter
		}
		if pi < 0 {
			break
		}
		// Param→sink obligations at this argument.
		if v.isTainted() {
			for _, key := range sortedChainKeys(sum.paramSinks[pi]) {
				c := sum.paramSinks[pi][key]
				via := append([]flowStep{{fn: callee, pos: c.pos}}, c.via...)
				e.recordSinkHit(v, c.desc, call.Pos(), c.finalPos, via)
			}
		}
		// Param→return flow.
		if pi < len(sum.paramToRet) && sum.paramToRet[pi] {
			mergeVal(&out, v)
		}
	}
	// Secrets born inside the callee that flow out of its returns.
	for _, src := range sum.retSources {
		mergeVal(&out, taintVal{sources: []*sourceChain{src}})
	}
	return out
}

// recordSinkHit registers a tainted value reaching a sink: complete flows for
// source taint, summary entries for parameter taint.
func (e *taintEval) recordSinkHit(v taintVal, desc string, pos, finalPos token.Pos, via []flowStep) {
	for _, src := range v.sources {
		key := fmt.Sprintf("%d->%d", src.pos, finalPos)
		if e.flowKey[key] {
			continue
		}
		e.flowKey[key] = true
		e.n.taint.localFlows = append(e.n.taint.localFlows, &flowFinding{
			pos: pos, source: src, desc: desc, via: via,
		})
		e.changed = true
	}
	for i := range e.params {
		if i >= 64 || v.params&(1<<i) == 0 {
			continue
		}
		key := fmt.Sprintf("%s@%d", desc, finalPos)
		if _, ok := e.n.taint.paramSinks[i][key]; ok {
			continue
		}
		e.n.taint.paramSinks[i][key] = &sinkChain{desc: desc, pos: pos, via: via, finalPos: finalPos}
		e.changed = true
	}
}

func sortedChainKeys(m map[string]*sinkChain) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// moduleFieldUse resolves a selector to a module struct field (mirrors
// moduleField but without needing the Program receiver).
func moduleFieldUse(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// buildTaintSummaries runs the per-function evaluators to a fixed point,
// bottom-up over the call-graph SCCs.
func buildTaintSummaries(p *Program) {
	evals := make(map[*funcNode]*taintEval, len(p.nodes))
	for _, scc := range p.sccs() {
		for _, n := range scc {
			evals[n] = newTaintEval(p, n)
		}
		for {
			changed := false
			for _, n := range scc {
				if evals[n].pass() {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}
