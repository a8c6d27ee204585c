package analysis

import (
	"go/ast"
	"go/types"
)

// replayCriticalPkgs are the packages whose behaviour must replay bit-for-bit
// from a seed: the machine model, its oracle, and the harnesses that drive
// them. Wall clock and global RNG state are forbidden module-wide; the
// map-iteration check is confined to these, where iteration order feeding
// state or output would silently diverge replays.
var replayCriticalPkgs = []string{
	"internal/sgx",
	"internal/model",
	"internal/simtest",
	"internal/chaos",
	"internal/channel",
	"internal/adversary",
}

// injectRandPkgs are workload generators: deterministic corpora are their
// whole contract, so they must accept a caller-seeded *rand.Rand rather than
// construct their own source.
var injectRandPkgs = []string{
	"internal/datasets",
	"internal/ycsb",
}

// wallClockFuncs read or schedule against the host's real clock. Simulated
// time lives in trace.Recorder.Cycles; host time is only legitimate in
// benchmark reporting, behind an allow directive.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// globalRandFuncs are the math/rand package-level functions backed by the
// shared global source — cross-test, cross-goroutine mutable state that no
// seed controls.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "Uint64N": true, "N": true,
}

// randConstructors flag ad-hoc RNG construction inside inject-only packages.
var randConstructors = map[string]bool{"New": true, "NewSource": true}

// Determinism enforces seeded replay: the model checker and the chaos soak
// can only shrink and replay failures if the packages they drive derive
// every decision from the seed.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "replay-critical code must not read wall clock, global RNG state, or depend on map iteration order",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) {
	inject := pathMatchesAny(p.Pkg.Path, injectRandPkgs)
	replay := pathMatchesAny(p.Pkg.Path, replayCriticalPkgs)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := stdFuncCall(p.Pkg.Info, call, "time", wallClockFuncs); ok {
				p.Reportf(call.Pos(), "determinism/wallclock",
					"time.%s reads the host clock; replay derives time from the simulated cycle counter (trace.Recorder.Cycles)", name)
			}
			for _, randPkg := range []string{"math/rand", "math/rand/v2"} {
				if name, ok := stdFuncCall(p.Pkg.Info, call, randPkg, globalRandFuncs); ok {
					p.Reportf(call.Pos(), "determinism/rand-global",
						"rand.%s draws from the process-global source; use an injected seeded *rand.Rand", name)
				}
				if inject {
					if name, ok := stdFuncCall(p.Pkg.Info, call, randPkg, randConstructors); ok {
						p.Reportf(call.Pos(), "determinism/rand-inject",
							"rand.%s constructs an RNG inside a workload generator; accept a seeded *rand.Rand from the caller instead", name)
					}
				}
			}
			return true
		})
		if replay {
			funcBodies(f, func(name string, _ *ast.FuncType, body *ast.BlockStmt) {
				checkMapOrder(p, name, body)
			})
		}
	}
}

// checkMapOrder flags range-over-map loops whose bodies feed order-sensitive
// state (appends or string concatenation into variables that outlive the
// loop) or output sinks (fmt printing, trace recording), unless the
// collected variable is sorted later in the same function.
func checkMapOrder(p *Pass, funcName string, body *ast.BlockStmt) {
	var ranges []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			return false // literals get their own funcBodies visit
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Pkg.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			ranges = append(ranges, rs)
		}
		return true
	})
	for _, rs := range ranges {
		if obj, kind := orderSensitiveUse(p.Pkg.Info, rs); kind != "" {
			if obj != nil && sortedAfter(p.Pkg.Info, body, rs, obj) {
				continue
			}
			p.Reportf(rs.Pos(), "determinism/map-order",
				"map iteration order feeds %s in %s; iterate sorted keys (or sort the result before it is observed)", kind, funcName)
		}
	}
}

// orderSensitiveUse inspects a range-over-map body for writes whose result
// depends on iteration order. It returns the collected variable (when there
// is one to check for later sorting) and a description, or "" if the body
// only performs order-insensitive work (map writes, deletes, counters).
func orderSensitiveUse(info *types.Info, rs *ast.RangeStmt) (types.Object, string) {
	var foundObj types.Object
	var found string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if obj, ok := appendToOuter(info, n, rs); ok {
				foundObj, found = obj, "an append to a slice declared outside the loop"
			} else if obj, ok := concatToOuter(info, n, rs); ok {
				foundObj, found = obj, "string concatenation into a variable declared outside the loop"
			}
		case *ast.CallExpr:
			if name, ok := stdFuncCall(info, n, "fmt", fmtWriteFuncs); ok {
				foundObj, found = nil, "fmt."+name+" output"
			} else if obj := calleeObject(info, n); obj != nil {
				if recv := methodRecvNamed(obj); recv != nil && typeIs(recv, "internal/trace", "Recorder") {
					foundObj, found = nil, "trace.Recorder event emission"
				}
			}
		}
		return true
	})
	return foundObj, found
}

var fmtWriteFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// appendToOuter matches `v = append(v, ...)` (or any append assigned to v)
// where v is declared before the range statement.
func appendToOuter(info *types.Info, as *ast.AssignStmt, rs *ast.RangeStmt) (types.Object, bool) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			continue
		} else if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		if obj := outerObject(info, as.Lhs[i], rs); obj != nil {
			return obj, true
		}
		// Appends into struct fields or map slots outlive the loop too.
		if _, isSel := ast.Unparen(as.Lhs[i]).(*ast.SelectorExpr); isSel {
			return nil, true
		}
	}
	return nil, false
}

// concatToOuter matches `s += <expr>` on a string variable declared before
// the range statement.
func concatToOuter(info *types.Info, as *ast.AssignStmt, rs *ast.RangeStmt) (types.Object, bool) {
	if as.Tok.String() != "+=" || len(as.Lhs) != 1 {
		return nil, false
	}
	obj := outerObject(info, as.Lhs[0], rs)
	if obj == nil {
		return nil, false
	}
	basic, ok := obj.Type().Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsString == 0 {
		return nil, false
	}
	return obj, true
}

// outerObject resolves an lvalue identifier to its object if it was declared
// before (outside) the range statement.
func outerObject(info *types.Info, lhs ast.Expr, rs *ast.RangeStmt) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil || obj.Pos() >= rs.Pos() {
		return nil
	}
	return obj
}

// sortedAfter reports whether obj is passed to a sort/slices call after the
// range statement in the same function body — the collect-then-sort idiom,
// which is deterministic.
func sortedAfter(info *types.Info, body *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		callee := calleeObject(info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		if pp := callee.Pkg().Path(); pp != "sort" && pp != "slices" {
			return true
		}
		for _, arg := range call.Args {
			used := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && info.Uses[id] == obj {
					used = true
				}
				return !used
			})
			if used {
				sorted = true
				break
			}
		}
		return true
	})
	return sorted
}
