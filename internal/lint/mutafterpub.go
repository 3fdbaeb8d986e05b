package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MutAfterPub enforces the architecture's immutability contract
// (ARCHITECTURE.md): a snapshot or study that has been published — made
// reachable by other goroutines or callers — must never be written
// again. Publication points recognized, per function:
//
//   - p.Store(x) where p is a sync/atomic Pointer or Value — the
//     serving layer's snapshot swap;
//   - ch <- x — handing the value to another goroutine;
//   - return x from a function whose name starts with "Build" — the
//     builder convention (BuildSnapshotOpts, BuildWhoisDB, ...): the caller
//     receives a finished, henceforth-immutable value.
//
// After a value's root variable is published on a path, any write
// through it — field assignment, map or slice element store, delete,
// *p = v — is reported, as is the same write through a reference-typed
// alias read out of it after the publish. The analysis is a forward
// may-publish dataflow over the CFG, so a publish inside a loop poisons
// the next iteration via the back edge, and a deferred function that
// mutates the value runs after `return x` has published it (defers are
// replayed at the exit block).
//
// Soundness limits: intraprocedural only (a callee that stashes or
// mutates its argument is invisible); aliases taken before the publish
// point are not retroactively marked; goroutine literals are analyzed
// as separate functions with an empty publish state.
var MutAfterPub = &Analyzer{
	Name: "mutafterpub",
	Doc:  "flag writes to a value after it was published (atomic Store, channel send, Build* return)",
	Run: func(pass *Pass) {
		funcBodies(pass.Pkg, func(decl *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
			isBuilder := decl != nil && strings.HasPrefix(decl.Name.Name, "Build")
			a := &mutAfterPub{info: pass.Pkg.Info, isBuilder: isBuilder}
			flow := Flow[pubState]{
				Init:     func() pubState { return pubState{} },
				Clone:    clonePubState,
				Transfer: a.transfer,
				Join:     joinPubState,
			}
			cfg := BuildCFG(body, pass.Pkg.Info)
			sol := flow.Forward(cfg)
			a.emit = func(pos token.Pos, format string, args ...any) {
				pass.Reportf(pos, format, args...)
			}
			flow.ReportPass(cfg, sol)
		})
	},
}

// pubState maps a published variable to a description of how it
// escaped.
type pubState map[types.Object]string

func clonePubState(s pubState) pubState {
	out := make(pubState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func joinPubState(dst, src pubState) (pubState, bool) {
	changed := false
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
			changed = true
		}
	}
	return dst, changed
}

type mutAfterPub struct {
	info      *types.Info
	isBuilder bool
	emit      func(pos token.Pos, format string, args ...any)
}

func (a *mutAfterPub) transfer(_ *Block, n Node, s pubState) pubState {
	if _, ok := n.Ast.(*ast.DeferStmt); ok && !n.DeferRun {
		// Registration only evaluates the call's operands; the call body
		// runs at exit, where the DeferRun node replays it.
		return s
	}
	if n.DeferRun {
		// Replayed deferred call: a function literal's body executes
		// here, after any `return x` publish.
		if fl, ok := n.Ast.(*ast.CallExpr).Fun.(*ast.FuncLit); ok {
			for _, stmt := range fl.Body.List {
				s = a.step(stmt, s)
			}
		}
		return s
	}
	return a.step(n.Ast, s)
}

// step applies one statement or expression: report writes through
// published roots, then extend aliases, then record new publishes.
func (a *mutAfterPub) step(node ast.Node, s pubState) pubState {
	walkExpr(node, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				a.checkWrite(lhs, s)
			}
			if len(m.Lhs) == len(m.Rhs) {
				for i, lhs := range m.Lhs {
					a.alias(lhs, m.Rhs[i], s)
				}
			}
		case *ast.IncDecStmt:
			a.checkWrite(m.X, s)
		case *ast.CallExpr:
			if isBuiltinCall(a.info, m, "delete") && len(m.Args) > 0 {
				if obj, how, ok := publishedRoot(a.info, m.Args[0], s); ok {
					a.report(m.Pos(), "delete", obj, how)
				}
			}
			if recvOK, kind := atomicStore(a.info, m); recvOK && len(m.Args) > 0 {
				a.publish(m.Args[0], "atomic "+kind+".Store", s)
			}
		case *ast.SendStmt:
			a.publish(m.Value, "channel send", s)
		case *ast.ReturnStmt:
			if a.isBuilder {
				for _, res := range m.Results {
					a.publish(res, "return from builder", s)
				}
			}
		}
		return true
	})
	return s
}

// checkWrite reports lhs when it writes through a published root: only
// compound lvalues count (x.F, x[i], *x); rebinding the variable itself
// does not mutate the escaped value.
func (a *mutAfterPub) checkWrite(lhs ast.Expr, s pubState) {
	if _, plain := lhs.(*ast.Ident); plain {
		return
	}
	if obj, how, ok := publishedRoot(a.info, lhs, s); ok {
		a.report(lhs.Pos(), "write", obj, how)
	}
}

func (a *mutAfterPub) report(pos token.Pos, verb string, obj types.Object, how string) {
	if a.emit != nil {
		a.emit(pos, "%s through %s after it was published via %s; published values are immutable", verb, obj.Name(), how)
	}
}

// alias marks lhs published when rhs reads a reference (pointer, map,
// slice, channel, interface) out of a published structure — both names
// now reach the same escaped memory.
func (a *mutAfterPub) alias(lhs, rhs ast.Expr, s pubState) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := identObj(a.info, id)
	if obj == nil {
		return
	}
	if _, how, ok := publishedRoot(a.info, rhs, s); ok && isRefType(a.info.TypeOf(rhs)) {
		s[obj] = how
	} else if _, republished := s[obj]; republished {
		// Strong update: rebinding to a fresh value clears the mark.
		delete(s, obj)
	}
}

// publish marks e's root variable as escaped.
func (a *mutAfterPub) publish(e ast.Expr, how string, s pubState) {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	root := rootIdent(e)
	if root == nil {
		return
	}
	if obj := identObj(a.info, root); obj != nil {
		if _, ok := obj.(*types.Var); ok {
			if _, already := s[obj]; !already {
				s[obj] = how
			}
		}
	}
}

// publishedRoot resolves e's base identifier and reports whether it is
// published.
func publishedRoot(info *types.Info, e ast.Expr, s pubState) (types.Object, string, bool) {
	root := rootIdent(e)
	if root == nil {
		return nil, "", false
	}
	obj := identObj(info, root)
	if obj == nil {
		return nil, "", false
	}
	how, ok := s[obj]
	return obj, how, ok
}

// atomicStore recognizes method calls p.Store(x) on sync/atomic's
// Pointer[T] and Value.
func atomicStore(info *types.Info, call *ast.CallExpr) (bool, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Store" {
		return false, ""
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false, ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, name := range [...]string{"Pointer", "Value"} {
		if isNamedType(t, "sync/atomic", name) {
			return true, name
		}
	}
	return false, ""
}

// isRefType reports whether t shares underlying storage when copied.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// identObj resolves an identifier to its object via Uses or Defs.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
