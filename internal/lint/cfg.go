package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// This file implements a lightweight intraprocedural control-flow graph
// over go/ast function bodies — the substrate for the dataflow analyzers
// (mutafterpub, maporder, ctxflow). It is a miniature of
// golang.org/x/tools/go/cfg, kept stdlib-only like the rest of the
// framework.
//
// Model and soundness limits (shared by every analysis built on it):
//
//   - One CFG per function body (FuncDecl or FuncLit). Calls are opaque:
//     no interprocedural propagation.
//   - Statements and the expressions evaluated with them (an if condition,
//     a range operand, a case expression) appear as Nodes inside basic
//     Blocks; analyzers walk each Node's subtree themselves and must skip
//     nested *ast.FuncLit bodies, which get their own CFGs.
//   - defer is modeled at function exit: every DeferStmt registers in
//     source order, and the Exit block replays them in reverse order as
//     DeferRun nodes. Conditionally-registered defers are replayed on all
//     paths (analyses track registration facts if they need the
//     distinction); a defer inside a loop is replayed once.
//   - panic(x) is an exit edge (deferred calls still run).
//   - goto, labeled break/continue, switch fallthrough and select are
//     supported; dead code after a terminating statement lands in blocks
//     with no predecessors, which dataflow never reaches.
type CFG struct {
	Blocks []*Block // Blocks[0] is Entry; the last block is Exit
	Entry  *Block
	Exit   *Block // all returns and panics edge here; holds the DeferRun replay
}

// Node is one element of a Block: a statement or evaluated expression,
// or — when DeferRun is set — the call expression of a defer replayed at
// function exit.
type Node struct {
	Ast ast.Node
	// DeferRun marks an exit-time replay of a deferred call; Ast is the
	// *ast.CallExpr of the original defer statement.
	DeferRun bool
	// Comm marks a select communication clause statement: it executes
	// only under the select's arbitration, so blocking-op analyses judge
	// the enclosing SelectStmt instead of the bare channel operation.
	Comm bool
}

// Block is a maximal straight-line sequence of Nodes with its control
// successors.
type Block struct {
	Index int
	Kind  string // "entry", "if.then", "for.body", ... for debugging and tests
	Nodes []Node
	Succs []*Block

	// Ranges holds the enclosing *ast.RangeStmt headers of this block,
	// outermost first — the context maporder needs to know whether a node
	// executes under an unordered map iteration.
	Ranges []*ast.RangeStmt
}

// AddSucc appends s to b's successors, once.
func (b *Block) addSucc(s *Block) {
	for _, x := range b.Succs {
		if x == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
}

// breakable is one enclosing construct a break (and possibly continue)
// can target.
type breakable struct {
	label string
	brk   *Block
	cont  *Block // nil for switch/select
}

type cfgBuilder struct {
	cfg  *CFG
	info *types.Info
	cur  *Block

	stack        []breakable
	rangeStack   []*ast.RangeStmt
	pendingLabel string
	fallTarget   *Block // the next case clause, for fallthrough

	defers []*ast.DeferStmt
	labels map[string]*Block
	gotos  map[string][]*Block // label -> blocks ending in goto label
}

// BuildCFG constructs the control-flow graph of one function body. info
// is used to recognize the panic builtin; it may be nil, in which case
// panic calls fall through like ordinary statements.
func BuildCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		info:   info,
		labels: make(map[string]*Block),
		gotos:  make(map[string][]*Block),
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cur = b.cfg.Entry
	exit := &Block{Kind: "exit"} // appended last so Blocks stays topological-ish
	b.cfg.Exit = exit
	b.stmtList(body.List)
	b.edgeTo(exit)
	exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, exit)
	// Replay deferred calls at exit, last registered first.
	for i := len(b.defers) - 1; i >= 0; i-- {
		exit.Nodes = append(exit.Nodes, Node{Ast: b.defers[i].Call, DeferRun: true})
	}
	// Resolve forward gotos left pending (a goto may jump to a label
	// defined later in the body).
	for label, srcs := range b.gotos {
		target, ok := b.labels[label]
		if !ok {
			target = exit // type-checked code never hits this
		}
		for _, src := range srcs {
			src.addSucc(target)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{
		Index:  len(b.cfg.Blocks),
		Kind:   kind,
		Ranges: append([]*ast.RangeStmt(nil), b.rangeStack...),
	}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// edgeTo links the current block to next, unless the current position is
// unreachable (nil).
func (b *cfgBuilder) edgeTo(next *Block) {
	if b.cur != nil {
		b.cur.addSucc(next)
	}
}

// startBlock makes next the current block.
func (b *cfgBuilder) startBlock(next *Block) { b.cur = next }

// add appends a plain node to the current block. Statements after a
// terminator land in a fresh predecessor-less block so they stay in the
// graph (as dead code) without corrupting edges.
func (b *cfgBuilder) add(n ast.Node) { b.addNode(Node{Ast: n}) }

func (b *cfgBuilder) addNode(n Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// A label is a join point (goto may target it from anywhere).
		lb := b.newBlock("label." + s.Label.Name)
		b.edgeTo(lb)
		b.startBlock(lb)
		b.labels[s.Label.Name] = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.edgeTo(b.cfg.Exit)
		b.startBlock(nil)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.DeferStmt:
		b.defers = append(b.defers, s)
		b.add(s)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		b.edgeTo(then)
		var els *Block
		if s.Else != nil {
			els = b.newBlock("if.else")
			b.edgeTo(els)
		} else {
			b.edgeTo(done)
		}
		b.startBlock(then)
		b.stmt(s.Body)
		b.edgeTo(done)
		if s.Else != nil {
			b.startBlock(els)
			b.stmt(s.Else)
			b.edgeTo(done)
		}
		b.startBlock(done)

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		b.edgeTo(head)
		b.startBlock(head)
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		head.addSucc(body)
		if s.Cond != nil {
			head.addSucc(done)
		}
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, Node{Ast: s.Post})
			post.addSucc(head)
			cont = post
		}
		b.stack = append(b.stack, breakable{label: label, brk: done, cont: cont})
		b.startBlock(body)
		b.stmt(s.Body)
		b.edgeTo(cont)
		b.stack = b.stack[:len(b.stack)-1]
		b.startBlock(done)

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		b.edgeTo(head)
		b.startBlock(head)
		b.add(s) // the header node: range operand and iteration vars
		done := b.newBlock("range.done")
		head.addSucc(done) // zero iterations
		b.rangeStack = append(b.rangeStack, s)
		body := b.newBlock("range.body")
		head.addSucc(body)
		b.stack = append(b.stack, breakable{label: label, brk: done, cont: head})
		b.startBlock(body)
		b.stmt(s.Body)
		b.edgeTo(head)
		b.stack = b.stack[:len(b.stack)-1]
		b.rangeStack = b.rangeStack[:len(b.rangeStack)-1]
		b.startBlock(done)

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(label, s.Body, func(cc *ast.CaseClause, blk *Block) {
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, Node{Ast: e})
			}
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(label, s.Body, nil)

	case *ast.SelectStmt:
		label := b.takeLabel()
		b.add(s) // analyzers judge arbitration (ctx.Done arms) on the whole select
		head := b.cur
		done := b.newBlock("select.done")
		b.stack = append(b.stack, breakable{label: label, brk: done})
		hasDefault := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock("select.case")
			head.addSucc(blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, Node{Ast: cc.Comm, Comm: true})
			} else {
				hasDefault = true
			}
			b.startBlock(blk)
			b.stmtList(cc.Body)
			b.edgeTo(done)
		}
		_ = hasDefault // a select blocks until an arm fires; no extra edge needed
		b.stack = b.stack[:len(b.stack)-1]
		b.startBlock(done)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && b.info != nil && isBuiltinCall(b.info, call, "panic") {
			b.edgeTo(b.cfg.Exit)
			b.startBlock(nil)
		}

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, EmptyStmt:
		// straight-line nodes.
		b.add(s)
	}
}

// caseClauses builds the shared switch/type-switch shape: every clause is
// a successor of the header, fallthrough chains to the next clause's
// body, and a missing default adds a header->done edge.
func (b *cfgBuilder) caseClauses(label string, body *ast.BlockStmt, caseExprs func(*ast.CaseClause, *Block)) {
	head := b.cur
	done := b.newBlock("switch.done")
	b.stack = append(b.stack, breakable{label: label, brk: done})
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock("switch.case")
		head.addSucc(blocks[i])
		if cc.List == nil {
			hasDefault = true
		} else if caseExprs != nil {
			caseExprs(cc, blocks[i])
		}
	}
	if !hasDefault {
		head.addSucc(done)
	}
	for i, cc := range clauses {
		b.startBlock(blocks[i])
		var next *Block
		if i+1 < len(blocks) {
			next = blocks[i+1]
		}
		b.withFallthrough(next, func() { b.stmtList(cc.Body) })
		b.edgeTo(done)
	}
	b.stack = b.stack[:len(b.stack)-1]
	b.startBlock(done)
}

// fallthroughTarget is managed as a builder field via withFallthrough so
// nested switches restore the enclosing target.
func (b *cfgBuilder) withFallthrough(target *Block, fn func()) {
	prev := b.fallTarget
	b.fallTarget = target
	fn()
	b.fallTarget = prev
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		for i := len(b.stack) - 1; i >= 0; i-- {
			if label == "" || b.stack[i].label == label {
				b.edgeTo(b.stack[i].brk)
				break
			}
		}
		b.startBlock(nil)
	case "continue":
		for i := len(b.stack) - 1; i >= 0; i-- {
			if b.stack[i].cont != nil && (label == "" || b.stack[i].label == label) {
				b.edgeTo(b.stack[i].cont)
				break
			}
		}
		b.startBlock(nil)
	case "goto":
		if b.cur != nil {
			b.gotos[label] = append(b.gotos[label], b.cur)
		}
		b.startBlock(nil)
	case "fallthrough":
		if b.fallTarget != nil {
			b.edgeTo(b.fallTarget)
		}
		b.startBlock(nil)
	}
}

// String renders the CFG for debugging and the framework tests.
func (g *CFG) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d(%s):", blk.Index, blk.Kind)
		for _, s := range blk.Succs {
			fmt.Fprintf(&sb, " ->b%d", s.Index)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
