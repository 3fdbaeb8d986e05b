package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"testing"
)

// parseFuncCFG type-checks an import-free snippet and builds the CFG of
// its first function body.
func parseFuncCFG(t *testing.T, src string) (*CFG, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatal(err)
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && fd.Name.Name == "f" {
			return BuildCFG(fd.Body, info), fset
		}
	}
	t.Fatal("no function f in snippet")
	return nil, nil
}

func blockByKind(t *testing.T, g *CFG, kind string) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		if b.Kind == kind {
			return b
		}
	}
	t.Fatalf("no %q block in\n%s", kind, g)
	return nil
}

func preds(g *CFG, b *Block) []*Block {
	var out []*Block
	for _, p := range g.Blocks {
		for _, s := range p.Succs {
			if s == b {
				out = append(out, p)
			}
		}
	}
	return out
}

// assignTracker is a minimal analysis for framework tests: the state is
// the set of variable names that may have been assigned.
type assignTracker struct{}

func (assignTracker) flow() Flow[map[string]bool] {
	return Flow[map[string]bool]{
		Init: func() map[string]bool { return map[string]bool{} },
		Clone: func(s map[string]bool) map[string]bool {
			out := make(map[string]bool, len(s))
			for k := range s {
				out[k] = true
			}
			return out
		},
		Transfer: func(_ *Block, n Node, s map[string]bool) map[string]bool {
			walkExpr(n.Ast, func(m ast.Node) bool {
				if as, ok := m.(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							s[id.Name] = true
						}
					}
				}
				return true
			})
			return s
		},
		Join: func(dst, src map[string]bool) (map[string]bool, bool) {
			changed := false
			for k := range src {
				if !dst[k] {
					dst[k] = true
					changed = true
				}
			}
			return dst, changed
		},
	}
}

// TestCFGBranchJoin: both arms of an if/else flow into the join block,
// and facts from both survive the union join.
func TestCFGBranchJoin(t *testing.T) {
	g, _ := parseFuncCFG(t, `package p
func f(c bool) int {
	x := 0
	if c {
		y := 1
		_ = y
	} else {
		z := 2
		_ = z
	}
	return x
}`)
	done := blockByKind(t, g, "if.done")
	if n := len(preds(g, done)); n != 2 {
		t.Fatalf("if.done has %d preds, want 2:\n%s", n, g)
	}
	sol := assignTracker{}.flow().Forward(g)
	in := sol.In[done]
	for _, name := range [...]string{"x", "y", "z"} {
		if !in[name] {
			t.Errorf("join lost assignment fact %q: %v", name, in)
		}
	}
}

// TestCFGLoop: the loop body's facts travel the back edge into the head
// and out through the exit edge.
func TestCFGLoop(t *testing.T) {
	g, _ := parseFuncCFG(t, `package p
func f(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		inner := i
		total = inner
	}
	return total
}`)
	head := blockByKind(t, g, "for.head")
	body := blockByKind(t, g, "for.body")
	post := blockByKind(t, g, "for.post")
	done := blockByKind(t, g, "for.done")
	hasSucc := func(b, s *Block) bool {
		for _, x := range b.Succs {
			if x == s {
				return true
			}
		}
		return false
	}
	if !hasSucc(head, body) || !hasSucc(head, done) {
		t.Fatalf("for.head must branch to body and done:\n%s", g)
	}
	if !hasSucc(body, post) || !hasSucc(post, head) {
		t.Fatalf("back edge body->post->head missing:\n%s", g)
	}
	sol := assignTracker{}.flow().Forward(g)
	if in := sol.In[done]; !in["inner"] {
		t.Errorf("loop-body fact did not reach for.done via the back edge: %v", in)
	}
}

// TestCFGDeferOrder: the exit block replays deferred calls in reverse
// registration order.
func TestCFGDeferOrder(t *testing.T) {
	g, _ := parseFuncCFG(t, `package p
func first()  {}
func second() {}
func f() {
	defer first()
	defer second()
}`)
	var names []string
	for _, n := range g.Exit.Nodes {
		if !n.DeferRun {
			t.Fatalf("exit block holds a non-replay node: %v", n.Ast)
		}
		call := n.Ast.(*ast.CallExpr)
		names = append(names, call.Fun.(*ast.Ident).Name)
	}
	if want := []string{"second", "first"}; !reflect.DeepEqual(names, want) {
		t.Errorf("defer replay order = %v, want %v", names, want)
	}
}

// TestCFGPanicEdge: panic terminates the path (edge to exit), and the
// statements after it are never reached by the solver.
func TestCFGPanicEdge(t *testing.T) {
	g, _ := parseFuncCFG(t, `package p
func f() int {
	x := 1
	panic("boom")
	x = 2
	return x
}`)
	entry := g.Entry
	hasExit := false
	for _, s := range entry.Succs {
		if s == g.Exit {
			hasExit = true
		}
	}
	if !hasExit {
		t.Fatalf("panic must edge to exit:\n%s", g)
	}
	dead := blockByKind(t, g, "unreachable")
	if n := len(preds(g, dead)); n != 0 {
		t.Fatalf("dead code after panic has %d preds, want 0:\n%s", n, g)
	}
	sol := assignTracker{}.flow().Forward(g)
	if _, reached := sol.In[dead]; reached {
		t.Errorf("solver reached dead code after panic")
	}
	if in, ok := sol.In[g.Exit]; !ok || !in["x"] {
		t.Errorf("exit state should carry the pre-panic assignment, got %v", in)
	}
}

// TestCFGRangeContext: blocks inside a range body carry the enclosing
// RangeStmt headers, outermost first.
func TestCFGRangeContext(t *testing.T) {
	g, _ := parseFuncCFG(t, `package p
func f(m map[string][]int) int {
	total := 0
	for _, xs := range m {
		for _, x := range xs {
			total += x
		}
	}
	return total
}`)
	var inner *Block
	for _, b := range g.Blocks {
		if b.Kind == "range.body" && len(b.Ranges) == 2 {
			inner = b
		}
	}
	if inner == nil {
		t.Fatalf("no doubly-nested range.body block:\n%s", g)
	}
	if outer := inner.Ranges[0]; outer.Pos() > inner.Ranges[1].Pos() {
		t.Errorf("Ranges not outermost-first: %v", inner.Ranges)
	}
}

// TestDiagnosticsDeterministic: repeated runs of the dataflow analyzers
// over their fixtures produce byte-identical, ordered diagnostics.
func TestDiagnosticsDeterministic(t *testing.T) {
	loader := testLoader(t)
	analyzers := []*Analyzer{MutAfterPub, MapOrder, CtxFlow}
	var pkgs []*Package
	for _, rule := range [...]string{"mutafterpub", "maporder", "ctxflow"} {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", rule))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	base := Run(pkgs, analyzers)
	if len(base) == 0 {
		t.Fatal("expected findings from the dataflow fixtures")
	}
	for i := 0; i < 5; i++ {
		if got := Run(pkgs, analyzers); !reflect.DeepEqual(got, base) {
			t.Fatalf("run %d differs:\n%v\nvs\n%v", i, got, base)
		}
	}
	for i := 1; i < len(base); i++ {
		a, b := base[i-1], base[i]
		if a.Pos.Filename > b.Pos.Filename || (a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Errorf("diagnostics out of order: %s before %s", a, b)
		}
	}
}
