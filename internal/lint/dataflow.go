package lint

import (
	"go/ast"
)

// Flow is a forward dataflow analysis over a CFG, generic in its state
// type S. The framework is a classic iterative worklist solver:
//
//	in(Entry) = Init()
//	out(b)    = Transfer over b's nodes, in order
//	in(b)     = Join of out(p) for every predecessor p
//
// solved to a fixed point. Termination is the analysis's contract: Join
// must be monotone over a finite-height lattice (set union with a finite
// fact universe). The three shipped analyzers all use small
// per-function fact maps, so convergence takes a handful of passes.
type Flow[S any] struct {
	// Init produces the state at function entry.
	Init func() S
	// Clone deep-copies a state; the solver never aliases states across
	// blocks.
	Clone func(S) S
	// Transfer applies one node's effect. It may mutate s and must return
	// the resulting state. It must not report diagnostics — the solver
	// runs it repeatedly; report in a separate pass over Solution.Reached
	// blocks (see ReportPass).
	Transfer func(b *Block, n Node, s S) S
	// Join merges src into dst and reports whether dst changed. src is
	// owned by the caller and must not be retained.
	Join func(dst, src S) (S, bool)
}

// Solution holds the fixed point: the state at entry to every reachable
// block. Blocks absent from In were never reached (dead code after a
// terminating statement) and are skipped by reporting passes.
type Solution[S any] struct {
	In map[*Block]S
}

// Forward solves the analysis over g and returns the per-block entry
// states.
func (f Flow[S]) Forward(g *CFG) Solution[S] {
	in := make(map[*Block]S, len(g.Blocks))
	in[g.Entry] = f.Init()
	dirty := make([]bool, len(g.Blocks))
	dirty[g.Entry.Index] = true
	for {
		b := pickDirty(g, dirty)
		if b == nil {
			return Solution[S]{In: in}
		}
		dirty[b.Index] = false
		s := f.Clone(in[b])
		for _, n := range b.Nodes {
			s = f.Transfer(b, n, s)
		}
		for _, succ := range b.Succs {
			cur, ok := in[succ]
			if !ok {
				in[succ] = f.Clone(s)
				dirty[succ.Index] = true
				continue
			}
			merged, changed := f.Join(cur, f.Clone(s))
			in[succ] = merged
			if changed {
				dirty[succ.Index] = true
			}
		}
	}
}

// pickDirty returns the lowest-indexed dirty block, keeping iteration
// order — and with it any order-sensitive tie-breaking inside an
// analysis — deterministic across runs.
func pickDirty(g *CFG, dirty []bool) *Block {
	for i, d := range dirty {
		if d {
			return g.Blocks[i]
		}
	}
	return nil
}

// ReportPass replays Transfer once over every reached block in index
// order with reporting enabled in the analysis (by convention the
// analysis carries an emit callback that is nil while solving). The
// deterministic block order makes diagnostic order stable run-to-run.
func (f Flow[S]) ReportPass(g *CFG, sol Solution[S]) {
	for _, b := range g.Blocks {
		s, ok := sol.In[b]
		if !ok {
			continue
		}
		s = f.Clone(s)
		for _, n := range b.Nodes {
			s = f.Transfer(b, n, s)
		}
	}
}

// funcBodies yields every function body of the package that has one —
// declarations first, then function literals in source order — together
// with the enclosing FuncDecl (nil for literals). Analyzers build one
// CFG per body; a literal deferred directly (`defer func(){...}()`) is
// excluded because it is replayed inside its parent's exit block, and
// analyzing it a second time with an empty entry state would double-
// report or contradict the parent's facts.
func funcBodies(pkg *Package, fn func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt)) {
	for _, f := range pkg.Files {
		var deferred map[*ast.FuncLit]bool
		ast.Inspect(f, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
					if deferred == nil {
						deferred = make(map[*ast.FuncLit]bool)
					}
					deferred[fl] = true
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd, nil, fd.Body)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok && !deferred[fl] {
				fn(nil, fl, fl.Body)
			}
			return true
		})
	}
}

// walkExpr walks n's subtree in source order, skipping nested function
// literal bodies — those are separate functions with their own CFGs.
// A RangeStmt used as a CFG header node contributes only itself and its
// range operand: its body statements live in other blocks and must not
// be double-walked.
func walkExpr(n ast.Node, visit func(ast.Node) bool) {
	if n == nil {
		return
	}
	if r, ok := n.(*ast.RangeStmt); ok {
		if visit(r) {
			walkExpr(r.X, visit)
		}
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return visit(m)
	})
}

// rootIdent unwraps selector, index, slice, star, paren and type-assert
// chains to the base identifier of an lvalue-ish expression: rootIdent
// of s.mu, x.M[k], (*p).f, xs[i:j] is s, x, p, xs. It returns nil when
// the base is not a plain identifier (a call result, a composite
// literal, ...).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}
