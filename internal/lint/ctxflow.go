package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow checks context cancellation: a library function that accepts
// a context.Context promises its caller cancellation, so every blocking
// operation in its body must be bound to that context — directly or
// through a value derived from it.
//
// Derivation is tracked as a taint over one source-order walk of each
// body: the ctx parameters seed the set, and each assignment extends or
// clears it as the walk reaches it. context.With*(ctx, ...),
// http.NewRequestWithContext(ctx, ...), req.WithContext(ctx),
// ctx.Done(), plain aliases, and the context-typed results of any call
// that was passed a tainted context (errgroup-style
// `g, gctx := newGroup(ctx)` helpers) extend it. Deferred calls are
// walked after the body, last registered first, as they run. Blocking
// operations checked:
//
//   - time.Sleep — never cancellable; use a Timer and select on Done;
//   - client.Do(req) on an *http.Client where req is not derived from
//     the context;
//   - a bare channel send or receive (a select communication clause is
//     exempt — the select is judged as a whole);
//   - a select with no default and no `<-ctx.Done()` (or derived) arm;
//   - a range over a channel.
//
// Package main is exempt: a CLI's lifetime is its cancellation scope.
// Functions without a usable Context parameter are out of scope — this
// rule enforces that an accepted context is honored, not that one
// exists. Interprocedural threading is trusted: passing ctx into a call
// is not inspected further. The walk follows source order, not paths:
// a derivation on one branch counts after the branch, and a loop body
// is seen once, which is as precise as the repo's straight-line
// cancellation code needs.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "flag blocking operations not bound to the function's context.Context parameter",
	Run: func(pass *Pass) {
		if pass.Pkg.Types.Name() == "main" {
			return
		}
		funcBodies(pass.Pkg, func(ftype *ast.FuncType, body *ast.BlockStmt) {
			seeds := ctxParams(pass.Pkg.Info, ftype)
			if len(seeds) == 0 {
				return
			}
			a := &ctxFlow{pass: pass, info: pass.Pkg.Info, taint: make(map[types.Object]bool, len(seeds))}
			for _, obj := range seeds {
				a.taint[obj] = true
			}
			a.walk(body)
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

// ctxFlow is the state of one function body's walk: the variables
// carrying the function's context, as of the statement being visited.
type ctxFlow struct {
	pass  *Pass
	info  *types.Info
	taint map[types.Object]bool
}

// walk visits body in source order, then the calls it defers, last
// registered first. Nested function literals are skipped: funcBodies
// yields each as its own function, except a literal deferred directly
// (`defer func() { ... }()`), whose body runs here with the parent's
// context.
func (a *ctxFlow) walk(body *ast.BlockStmt) {
	var defers []*ast.CallExpr
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			defers = append(defers, n.Call)
			return false
		case *ast.SelectStmt:
			// A communication clause blocks under the select's
			// arbitration, so the select is judged whole; its
			// assignments still run, then the clause bodies.
			a.selectStmt(n)
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if as, ok := cc.Comm.(*ast.AssignStmt); ok {
					a.assign(as)
				}
				for _, st := range cc.Body {
					ast.Inspect(st, visit)
				}
			}
			return false
		case *ast.RangeStmt:
			if t := a.info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					a.pass.Reportf(n.Pos(), "range over a channel blocks with no cancellation arm; select each receive against the context's Done channel")
				}
			}
		case *ast.AssignStmt:
			a.assign(n)
		case *ast.SendStmt:
			a.pass.Reportf(n.Arrow, "blocking channel send with no cancellation arm; select on it together with the context's Done channel")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !a.taintedChan(n.X) {
				a.pass.Reportf(n.OpPos, "blocking channel receive with no cancellation arm; select on it together with the context's Done channel")
			}
		case *ast.CallExpr:
			a.call(n)
		}
		return true
	}
	ast.Inspect(body, visit)
	// A deferred literal's own defers run when it returns, before the
	// defers registered ahead of it: the slice is a stack.
	for len(defers) > 0 {
		call := defers[len(defers)-1]
		defers = defers[:len(defers)-1]
		if fl, ok := call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, visit)
		} else {
			ast.Inspect(call, visit)
		}
	}
}

// assign extends the taint through derivations and aliases, with strong
// updates on rebinding.
func (a *ctxFlow) assign(m *ast.AssignStmt) {
	if len(m.Lhs) == 0 {
		return
	}
	derived := false
	ctxCall := false
	if len(m.Rhs) == 1 {
		derived = a.derives(m.Rhs[0])
		// A helper that takes the context and hands back its own derived
		// one (errgroup-style `g, gctx := newGroup(ctx)`) is trusted:
		// context-typed results of a call fed a tainted context are
		// tainted.
		if call, ok := m.Rhs[0].(*ast.CallExpr); ok {
			for _, arg := range call.Args {
				if a.taintedArg(arg) {
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
			a.taint[obj] = true
		case ctxCall && isNamedType(obj.Type(), "context", "Context"):
			a.taint[obj] = true
		case len(m.Rhs) == len(m.Lhs) && a.derives(m.Rhs[i]):
			a.taint[obj] = true
		default:
			delete(a.taint, obj)
		}
	}
}

// derives reports whether e produces a context-bound value from an
// already-tainted one.
func (a *ctxFlow) derives(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := identObj(a.info, e)
		return obj != nil && a.taint[obj]
	case *ast.CallExpr:
		for _, fn := range [...]string{"WithCancel", "WithTimeout", "WithDeadline", "WithValue"} {
			if pkgFuncCall(a.info, e, "context", fn) {
				return len(e.Args) > 0 && a.taintedArg(e.Args[0])
			}
		}
		if pkgFuncCall(a.info, e, "net/http", "NewRequestWithContext") {
			return len(e.Args) > 0 && a.taintedArg(e.Args[0])
		}
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && a.info.Selections[sel] != nil {
			switch sel.Sel.Name {
			case "WithContext":
				return len(e.Args) > 0 && a.taintedArg(e.Args[0])
			case "Done", "Deadline":
				return a.taintedArg(sel.X)
			}
		}
	}
	return false
}

func (a *ctxFlow) taintedArg(e ast.Expr) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := identObj(a.info, root)
	return obj != nil && a.taint[obj]
}

// taintedChan reports whether a received-from channel expression is the
// context's Done channel (waiting on cancellation is the sanctioned
// blocking receive).
func (a *ctxFlow) taintedChan(e ast.Expr) bool {
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return a.taintedArg(sel.X)
		}
		return false
	}
	return a.taintedArg(e)
}

func (a *ctxFlow) call(call *ast.CallExpr) {
	if pkgFuncCall(a.info, call, "time", "Sleep") {
		a.pass.Reportf(call.Pos(), "time.Sleep cannot be cancelled; use a time.Timer and select on the context's Done channel")
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
	if inner, ok := arg.(*ast.CallExpr); ok && a.derives(inner) {
		return // Do(http.NewRequestWithContext-style inline build)
	}
	if !a.taintedArg(arg) {
		a.pass.Reportf(call.Pos(), "http request sent without the function's context; build it with http.NewRequestWithContext")
	}
}

// selectStmt passes a select that either cannot block (default clause)
// or has a cancellation arm receiving from a context-derived Done
// channel.
func (a *ctxFlow) selectStmt(sel *ast.SelectStmt) {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			return // default: non-blocking
		}
		if recv := commRecv(cc.Comm); recv != nil && a.taintedChan(recv.X) {
			return
		}
	}
	a.pass.Reportf(sel.Pos(), "select blocks with no arm receiving from the context's Done channel")
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
