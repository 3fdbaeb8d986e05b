package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow checks context cancellation by dataflow: a library function
// that accepts a context.Context promises its caller cancellation, so
// every blocking operation in its body must be bound to that context —
// directly or through a value derived from it.
//
// Derivation is tracked as a forward taint: the ctx parameters seed the
// set, and context.With*(ctx, ...), http.NewRequestWithContext(ctx,
// ...), req.WithContext(ctx), ctx.Done(), plain aliases, and the
// context-typed results of any call that was passed a tainted context
// (errgroup-style `g, gctx := newGroup(ctx)` helpers) extend it.
// Blocking operations checked:
//
//   - time.Sleep — never cancellable; use a Timer and select on Done;
//   - client.Do(req) on an *http.Client where req is not derived from
//     the context;
//   - a bare channel send or receive (a select communication clause is
//     exempt — the select is judged as a whole);
//   - a select with no default and no `<-ctx.Done()` (or derived) arm.
//
// Package main is exempt: a CLI's lifetime is its cancellation scope.
// Functions without a usable Context parameter are out of scope — this
// rule enforces that an accepted context is honored, not that one
// exists. Interprocedural threading is trusted: passing ctx into a call
// is not inspected further.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "flag blocking operations not bound to the function's context.Context parameter",
	Run: func(pass *Pass) {
		if pass.Pkg.Types.Name() == "main" {
			return
		}
		funcBodies(pass.Pkg, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
			var ftype *ast.FuncType
			if decl != nil {
				ftype = decl.Type
			} else {
				ftype = lit.Type
			}
			seeds := ctxParams(pass.Pkg.Info, ftype)
			if len(seeds) == 0 {
				return
			}
			a := &ctxFlow{info: pass.Pkg.Info}
			flow := Flow[taintState]{
				Init: func() taintState {
					s := taintState{}
					for _, obj := range seeds {
						s[obj] = true
					}
					return s
				},
				Clone:    cloneTaintState,
				Transfer: a.transfer,
				Join:     joinTaintState,
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

// ctxParams returns the named context.Context parameters of ftype.
func ctxParams(info *types.Info, ftype *ast.FuncType) []types.Object {
	var out []types.Object
	if ftype.Params == nil {
		return nil
	}
	for _, field := range ftype.Params.List {
		t := info.TypeOf(field.Type)
		if !isNamedType(t, "context", "Context") {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if obj := identObj(info, name); obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

type ctxFlow struct {
	info *types.Info
	emit func(pos token.Pos, format string, args ...any)
}

func (a *ctxFlow) transfer(_ *Block, n Node, s taintState) taintState {
	if _, ok := n.Ast.(*ast.DeferStmt); ok && !n.DeferRun {
		return s
	}
	if n.Comm {
		// A select communication clause blocks under the select's
		// arbitration; the SelectStmt node judges cancellation. Its
		// assignments still run.
		if as, ok := n.Ast.(*ast.AssignStmt); ok {
			a.assign(as, s)
		}
		return s
	}
	if sel, ok := n.Ast.(*ast.SelectStmt); ok {
		a.selectStmt(sel, s)
		return s
	}
	if r, ok := n.Ast.(*ast.RangeStmt); ok {
		if t := a.info.TypeOf(r.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				a.report(r.Pos(), "range over a channel blocks with no cancellation arm; select each receive against the context's Done channel")
			}
		}
		return s
	}
	node := n.Ast
	if n.DeferRun {
		if fl, ok := n.Ast.(*ast.CallExpr).Fun.(*ast.FuncLit); ok {
			node = fl.Body
		}
	}
	walkExpr(node, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			a.assign(m, s)
		case *ast.SendStmt:
			a.report(m.Arrow, "blocking channel send with no cancellation arm; select on it together with the context's Done channel")
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && !a.taintedChan(m.X, s) {
				a.report(m.OpPos, "blocking channel receive with no cancellation arm; select on it together with the context's Done channel")
			}
		case *ast.CallExpr:
			a.call(m, s)
		case *ast.SelectStmt:
			// Nested select inside an expression cannot occur; selects
			// reached here are their own CFG nodes.
			return false
		}
		return true
	})
	return s
}

// assign extends the taint through derivations and aliases, with strong
// updates on rebinding.
func (a *ctxFlow) assign(m *ast.AssignStmt, s taintState) {
	if len(m.Lhs) == 0 {
		return
	}
	derived := false
	ctxCall := false
	if len(m.Rhs) == 1 {
		derived = a.derives(m.Rhs[0], s)
		// A helper that takes the context and hands back its own derived
		// one (errgroup-style `g, gctx := newGroup(ctx)`) is trusted:
		// context-typed results of a call fed a tainted context are
		// tainted.
		if call, ok := m.Rhs[0].(*ast.CallExpr); ok {
			for _, arg := range call.Args {
				if a.taintedArg(arg, s) {
					ctxCall = true
					break
				}
			}
		}
	}
	for i, lhs := range m.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := identObj(a.info, id)
		if obj == nil {
			continue
		}
		switch {
		case derived && i == 0:
			// context.WithCancel and friends return (ctx, cancel);
			// NewRequestWithContext returns (req, err): the derived
			// value is the first result.
			s[obj] = true
		case ctxCall && isNamedType(obj.Type(), "context", "Context"):
			s[obj] = true
		case len(m.Rhs) == len(m.Lhs) && a.derives(m.Rhs[i], s):
			s[obj] = true
		default:
			delete(s, obj)
		}
	}
}

// derives reports whether e produces a context-bound value from an
// already-tainted one.
func (a *ctxFlow) derives(e ast.Expr, s taintState) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := identObj(a.info, e)
		return obj != nil && s[obj]
	case *ast.CallExpr:
		for _, fn := range [...]string{"WithCancel", "WithTimeout", "WithDeadline", "WithValue"} {
			if pkgFuncCall(a.info, e, "context", fn) {
				return len(e.Args) > 0 && a.taintedArg(e.Args[0], s)
			}
		}
		if pkgFuncCall(a.info, e, "net/http", "NewRequestWithContext") {
			return len(e.Args) > 0 && a.taintedArg(e.Args[0], s)
		}
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && a.info.Selections[sel] != nil {
			switch sel.Sel.Name {
			case "WithContext":
				return len(e.Args) > 0 && a.taintedArg(e.Args[0], s)
			case "Done", "Deadline":
				return a.taintedArg(sel.X, s)
			}
		}
	}
	return false
}

func (a *ctxFlow) taintedArg(e ast.Expr, s taintState) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := identObj(a.info, root)
	return obj != nil && s[obj]
}

// taintedChan reports whether a received-from channel expression is the
// context's Done channel (waiting on cancellation is the sanctioned
// blocking receive).
func (a *ctxFlow) taintedChan(e ast.Expr, s taintState) bool {
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return a.taintedArg(sel.X, s)
		}
		return false
	}
	return a.taintedArg(e, s)
}

func (a *ctxFlow) call(call *ast.CallExpr, s taintState) {
	if pkgFuncCall(a.info, call, "time", "Sleep") {
		a.report(call.Pos(), "time.Sleep cannot be cancelled; use a time.Timer and select on the context's Done channel")
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" || a.info.Selections[sel] == nil {
		return
	}
	t := a.info.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if !isNamedType(t, "net/http", "Client") || len(call.Args) == 0 {
		return
	}
	arg := call.Args[0]
	if inner, ok := arg.(*ast.CallExpr); ok && a.derives(inner, s) {
		return // Do(http.NewRequestWithContext-style inline build)
	}
	if !a.taintedArg(arg, s) {
		a.report(call.Pos(), "http request sent without the function's context; build it with http.NewRequestWithContext")
	}
}

// selectStmt passes a select that either cannot block (default clause)
// or has a cancellation arm receiving from a context-derived Done
// channel.
func (a *ctxFlow) selectStmt(sel *ast.SelectStmt, s taintState) {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			return // default: non-blocking
		}
		if recv := commRecv(cc.Comm); recv != nil && a.taintedChan(recv.X, s) {
			return
		}
	}
	a.report(sel.Pos(), "select blocks with no arm receiving from the context's Done channel")
}

// commRecv extracts the receive operation of a communication clause, if
// it is one.
func commRecv(comm ast.Stmt) *ast.UnaryExpr {
	var e ast.Expr
	switch c := comm.(type) {
	case *ast.ExprStmt:
		e = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			e = c.Rhs[0]
		}
	}
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u
	}
	return nil
}

func (a *ctxFlow) report(pos token.Pos, format string, args ...any) {
	if a.emit != nil {
		a.emit(pos, format, args...)
	}
}
