package analysis

import (
	"go/ast"
	"go/types"
)

// SpanPair guards the causal-tracing invariant behind the span layer: a span
// opened with Recorder.BeginSpan, or an op opened with Recorder.BeginOp, must
// be closed. An unclosed span stays on its core's stack forever — every
// later event on that core is stamped with it, and the spans opened under
// it name a parent that never reaches the ring, so AggregateSpans roots
// them at the top level — so a single leak quietly corrupts the whole call
// tree. An unclosed op also loses its latency-histogram sample.
//
// The check is intraprocedural over the packages that open spans on hot
// simulator paths (sdk, sgx). A BeginSpan/BeginOp result must be bound to a
// variable and that variable must have its End called either deferred (covers every exit, including the panic-unwind crash
// paths) or linearly in the same block as the opening call (the
// straight-line pattern transition.go uses). An End reachable only inside a
// nested block is conditional — some path skips it — and discarding the
// result outright makes the span permanently unclosable.
var SpanPair = &Analyzer{
	Name: "spanpair",
	Doc:  "every Recorder.BeginSpan/BeginOp result has its End called (deferred, or linearly in the same block)",
	Run:  runSpanPair,
}

// spanPairPkgs are the packages the rule applies to: the layers that open
// spans around transitions, walks, and paging. trace itself (the
// implementation) and tests are out of scope.
var spanPairPkgs = []string{"internal/sdk", "internal/sgx"}

func runSpanPair(p *Pass) {
	if !pathMatchesAny(p.Pkg.Path, spanPairPkgs) {
		return
	}
	for _, f := range p.Pkg.Files {
		funcBodies(f, func(name string, _ *ast.FuncType, body *ast.BlockStmt) {
			checkSpanPair(p, name, body)
		})
	}
}

// spanVar tracks one variable bound to a BeginSpan/BeginOp result.
type spanVar struct {
	pos   ast.Node
	name  string
	block *ast.BlockStmt // block whose statement list directly holds the binding
	// closed: a deferred End, or a linear End in the binding's own block.
	closed bool
	// condEnd: the only End sits in a nested block (if/for/switch arm).
	condEnd bool
}

func checkSpanPair(p *Pass, fname string, body *ast.BlockStmt) {
	vars := map[*types.Var]*spanVar{}

	// Pass 1: find opening calls and classify how each result is consumed.
	// Walk blocks explicitly so every binding knows its directly enclosing
	// block; nested function literals are visited on their own by funcBodies.
	var walkBlock func(b *ast.BlockStmt)
	var walkStmt func(s ast.Stmt, b *ast.BlockStmt)
	walkBlock = func(b *ast.BlockStmt) {
		for _, s := range b.List {
			walkStmt(s, b)
		}
	}
	walkStmt = func(s ast.Stmt, b *ast.BlockStmt) {
		switch s := s.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				opener := spanOpener(p.Pkg.Info, call)
				if opener == "" || i >= len(s.Lhs) {
					continue
				}
				id, ok := s.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					p.Reportf(call.Pos(), "spanpair/discarded",
						"%s discards the %s result; the span can never be closed", fname, opener)
					continue
				}
				var obj *types.Var
				if d, ok := p.Pkg.Info.Defs[id].(*types.Var); ok {
					obj = d
				} else if u, ok := p.Pkg.Info.Uses[id].(*types.Var); ok {
					obj = u
				}
				if obj == nil {
					continue
				}
				vars[obj] = &spanVar{pos: call, name: id.Name, block: b}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if opener := spanOpener(p.Pkg.Info, call); opener != "" {
					p.Reportf(call.Pos(), "spanpair/discarded",
						"%s discards the %s result; the span can never be closed", fname, opener)
				}
			}
		case *ast.BlockStmt:
			walkBlock(s)
		case *ast.IfStmt:
			walkBlock(s.Body)
			if s.Else != nil {
				walkStmt(s.Else, b)
			}
		case *ast.ForStmt:
			walkBlock(s.Body)
		case *ast.RangeStmt:
			walkBlock(s.Body)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					for _, cs := range cc.Body {
						walkStmt(cs, s.Body)
					}
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					for _, cs := range cc.Body {
						walkStmt(cs, s.Body)
					}
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, cs := range cc.Body {
						walkStmt(cs, s.Body)
					}
				}
			}
		case *ast.LabeledStmt:
			walkStmt(s.Stmt, b)
		}
	}
	walkBlock(body)
	if len(vars) == 0 {
		return
	}

	// Pass 2: find End calls on the tracked variables. A defer closes the
	// span on every path; a plain call closes it only when it sits in the
	// same block the variable was bound in (straight-line flow).
	endsOf := func(call *ast.CallExpr) *spanVar {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "End" {
			return nil
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj, ok := p.Pkg.Info.Uses[id].(*types.Var); ok {
			return vars[obj]
		}
		return nil
	}
	var endWalk func(b *ast.BlockStmt)
	var endStmt func(s ast.Stmt, b *ast.BlockStmt)
	endWalk = func(b *ast.BlockStmt) {
		for _, s := range b.List {
			endStmt(s, b)
		}
	}
	endStmt = func(s ast.Stmt, b *ast.BlockStmt) {
		switch s := s.(type) {
		case *ast.DeferStmt:
			if sv := endsOf(s.Call); sv != nil {
				sv.closed = true
			}
		case *ast.ExprStmt:
			call, ok := ast.Unparen(s.X).(*ast.CallExpr)
			if !ok {
				return
			}
			if sv := endsOf(call); sv != nil {
				if b == sv.block {
					sv.closed = true
				} else {
					sv.condEnd = true
				}
			}
		case *ast.BlockStmt:
			endWalk(s)
		case *ast.IfStmt:
			endWalk(s.Body)
			if s.Else != nil {
				endStmt(s.Else, b)
			}
		case *ast.ForStmt:
			endWalk(s.Body)
		case *ast.RangeStmt:
			endWalk(s.Body)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					for _, cs := range cc.Body {
						endStmt(cs, s.Body)
					}
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					for _, cs := range cc.Body {
						endStmt(cs, s.Body)
					}
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, cs := range cc.Body {
						endStmt(cs, s.Body)
					}
				}
			}
		case *ast.LabeledStmt:
			endStmt(s.Stmt, b)
		}
	}
	endWalk(body)

	for _, sv := range vars {
		switch {
		case sv.closed:
		case sv.condEnd:
			p.Reportf(sv.pos.Pos(), "spanpair/conditional",
				"%s ends span %s only inside a nested block; some path leaks it open (defer %s.End() instead)",
				fname, sv.name, sv.name)
		default:
			p.Reportf(sv.pos.Pos(), "spanpair/unclosed",
				"%s opens span %s but never calls %s.End(); the span leaks open on the core stack",
				fname, sv.name, sv.name)
		}
	}
}

// spanOpener returns "BeginSpan" or "BeginOp" when the call is that method
// of the trace.Recorder, "" otherwise.
func spanOpener(info *types.Info, call *ast.CallExpr) string {
	obj := calleeObject(info, call)
	if obj == nil || (obj.Name() != "BeginSpan" && obj.Name() != "BeginOp") {
		return ""
	}
	recv := methodRecvNamed(obj)
	if recv == nil || recv.Obj().Pkg() == nil {
		return ""
	}
	if recv.Obj().Name() != "Recorder" || !pathMatches(recv.Obj().Pkg().Path(), "internal/trace") {
		return ""
	}
	return obj.Name()
}
