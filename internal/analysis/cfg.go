package analysis

// Control-flow graphs for the flow-sensitive analyzers (secrettaint,
// lockdiscipline). The builder is hand-rolled over go/ast with no
// dependency on golang.org/x/tools, the same zero-dependency discipline as
// the rest of the framework: every function body is lowered to basic blocks
// connected by kind-tagged edges (the true/false edges of a condition are
// distinguishable). Type information is not required — the builder runs on
// anything go/parser accepts, which is what FuzzCFGBuilder leans on.

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// EdgeKind classifies why control moves from one block to another.
type EdgeKind uint8

const (
	// EdgeNext is an unconditional transfer (fallthrough of straight-line
	// code, jumps, loop back edges).
	EdgeNext EdgeKind = iota
	// EdgeTrue leaves a condition block when the condition held (for a
	// range header: an element was produced).
	EdgeTrue
	// EdgeFalse leaves a condition block when the condition failed (for a
	// range header: the range was exhausted).
	EdgeFalse
	// EdgeCase enters one case/comm clause of a switch or select.
	EdgeCase
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeTrue:
		return "true"
	case EdgeFalse:
		return "false"
	case EdgeCase:
		return "case"
	default:
		return "next"
	}
}

// An Edge is one directed control-flow transfer.
type Edge struct {
	From, To *Block
	Kind     EdgeKind
}

// A Block is one basic block: a maximal run of straight-line statements
// and condition expressions, executed in order.
type Block struct {
	// Index is the block's position in CFG.Blocks after pruning; the entry
	// block is always index 0.
	Index int
	// Nodes are the statements and condition expressions of the block in
	// execution order. Condition expressions of branches appear as the
	// last node (see Cond).
	Nodes []ast.Node
	// Cond is the branch condition when the block ends in a two-way
	// (true/false) branch, nil otherwise. The same expression is also the
	// last entry of Nodes, so linear walks see its side effects.
	Cond ast.Expr
	// Succs are the outgoing edges in deterministic order.
	Succs []Edge
	// Preds are the incoming edges.
	Preds []Edge
}

// A CFG is the control-flow graph of one function or method body.
type CFG struct {
	// Decl is the analyzed declaration (nil when built from a FuncLit).
	Decl *ast.FuncDecl
	// Blocks holds every reachable block; Blocks[0] is the entry.
	Blocks []*Block
	// Entry is the function's entry block (== Blocks[0]).
	Entry *Block
	// Exit is the virtual exit block every return (and the fall-off end of
	// the body) feeds into. It holds no nodes and may be unreachable in a
	// function that cannot return.
	Exit *Block

	// Defers lists the defer statements encountered anywhere in the body,
	// in syntactic order. Analyzers that model deferred cleanup (the
	// lockdiscipline unlock balance) consult it; the graph itself treats
	// defer as a normal statement.
	Defers []*ast.DeferStmt
}

// BuildCFG lowers a function declaration's body to a CFG. Declarations
// without a body (externally implemented) return nil.
func BuildCFG(decl *ast.FuncDecl) *CFG {
	if decl == nil || decl.Body == nil {
		return nil
	}
	g := buildBody(decl.Body)
	g.Decl = decl
	return g
}

// BuildLitCFG lowers a function literal's body (closures get their own
// graphs when an analyzer wants flow-sensitivity inside them).
func BuildLitCFG(lit *ast.FuncLit) *CFG {
	if lit == nil || lit.Body == nil {
		return nil
	}
	return buildBody(lit.Body)
}

func buildBody(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: make(map[string]*labelInfo),
	}
	b.cfg.Exit = &Block{}
	entry := b.newBlock()
	b.cfg.Entry = entry
	b.cur = entry
	b.stmtList(body.List)
	// Falling off the end of the body returns.
	b.jumpTo(b.cfg.Exit, EdgeNext)
	b.prune()
	return b.cfg
}

// loopCtx is one enclosing breakable/continuable construct.
type loopCtx struct {
	label      string // enclosing label, "" when unlabeled
	breakTo    *Block
	continueTo *Block // nil for switch/select (not continuable)
}

// labelInfo tracks a label's goto target block (created on demand for
// forward gotos).
type labelInfo struct {
	block *Block
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block // nil while the current point is unreachable
	loops  []loopCtx
	labels map[string]*labelInfo
	// pendingLabel carries a label to attach to the next loop/switch the
	// builder enters (for `L: for ... break L`).
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// startBlock makes blk the current insertion point.
func (b *cfgBuilder) startBlock(blk *Block) { b.cur = blk }

// add appends a node to the current block (no-op while unreachable).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// edge connects from→to.
func (b *cfgBuilder) edge(from, to *Block, kind EdgeKind) {
	if from == nil || to == nil {
		return
	}
	e := Edge{From: from, To: to, Kind: kind}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// jumpTo ends the current block with an edge to target and marks the point
// unreachable until a new block starts.
func (b *cfgBuilder) jumpTo(target *Block, kind EdgeKind) {
	if b.cur != nil {
		b.edge(b.cur, target, kind)
	}
	b.cur = nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// terminates reports whether a statement never returns control: panic(...)
// and the conventional process terminators.
func terminates(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			switch {
			case x.Name == "os" && fun.Sel.Name == "Exit":
				return true
			case x.Name == "runtime" && fun.Sel.Name == "Goexit":
				return true
			case x.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"):
				return true
			}
		}
	}
	return false
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	// Statements in unreachable positions (after return/panic) still get a
	// block so nested labels/gotos resolve; it is pruned if never entered.
	if b.cur == nil {
		b.startBlock(b.newBlock())
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		cond.Cond = s.Cond
		then := b.newBlock()
		after := b.newBlock()
		b.edge(cond, then, EdgeTrue)
		var els *Block
		if s.Else != nil {
			els = b.newBlock()
			b.edge(cond, els, EdgeFalse)
		} else {
			b.edge(cond, after, EdgeFalse)
		}
		b.startBlock(then)
		b.stmt(s.Body)
		b.jumpTo(after, EdgeNext)
		if s.Else != nil {
			b.startBlock(els)
			b.stmt(s.Else)
			b.jumpTo(after, EdgeNext)
		}
		b.startBlock(after)

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.jumpTo(head, EdgeNext)
		b.startBlock(head)
		body := b.newBlock()
		after := b.newBlock()
		if s.Cond != nil {
			b.add(s.Cond)
			head.Cond = s.Cond
			b.edge(head, body, EdgeTrue)
			b.edge(head, after, EdgeFalse)
		} else {
			b.edge(head, body, EdgeNext)
		}
		continueTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			continueTo = post
		}
		b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: continueTo})
		b.startBlock(body)
		b.stmt(s.Body)
		if post != nil {
			b.jumpTo(post, EdgeNext)
			b.startBlock(post)
			b.add(s.Post)
			b.jumpTo(head, EdgeNext)
		} else {
			b.jumpTo(head, EdgeNext)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.startBlock(after)

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.jumpTo(head, EdgeNext)
		b.startBlock(head)
		// The whole range statement is the header node: its X is evaluated
		// and its key/value are (re)assigned here each iteration.
		b.add(s)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body, EdgeTrue)
		b.edge(head, after, EdgeFalse)
		b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: head})
		b.startBlock(body)
		b.stmt(s.Body)
		b.jumpTo(head, EdgeNext)
		b.loops = b.loops[:len(b.loops)-1]
		b.startBlock(after)

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, label, func(cc *ast.CaseClause) []ast.Stmt { return cc.Body })

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, label, func(cc *ast.CaseClause) []ast.Stmt { return cc.Body })

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		after := b.newBlock()
		sawDefault := false
		b.loops = append(b.loops, loopCtx{label: label, breakTo: after})
		for _, cl := range s.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			b.edge(head, blk, EdgeCase)
			b.startBlock(blk)
			if comm.Comm != nil {
				b.add(comm.Comm)
			} else {
				sawDefault = true
			}
			b.stmtList(comm.Body)
			b.jumpTo(after, EdgeNext)
		}
		b.loops = b.loops[:len(b.loops)-1]
		if len(s.Body.List) == 0 {
			// select {} blocks forever.
			b.cur = nil
		}
		_ = sawDefault
		b.startBlock(after)

	case *ast.LabeledStmt:
		info := b.labelTarget(s.Label.Name)
		b.jumpTo(info.block, EdgeNext)
		b.startBlock(info.block)
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = s.Label.Name
		}
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findLoop(s.Label, true); t != nil {
				b.jumpTo(t.breakTo, EdgeNext)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if t := b.findLoop(s.Label, false); t != nil {
				b.jumpTo(t.continueTo, EdgeNext)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			if s.Label != nil {
				b.jumpTo(b.labelTarget(s.Label.Name).block, EdgeNext)
			} else {
				b.cur = nil
			}
		case token.FALLTHROUGH:
			// Handled structurally by switchClauses; reaching here means a
			// malformed fallthrough — drop the edge.
			b.cur = nil
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jumpTo(b.cfg.Exit, EdgeNext)

	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)

	case *ast.EmptyStmt:
		// nothing

	default:
		// ExprStmt, AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt.
		b.add(s)
		if terminates(s) {
			b.cur = nil
		}
	}
}

// switchClauses lowers the clause list shared by switch and type switch,
// including fallthrough edges.
func (b *cfgBuilder) switchClauses(list []ast.Stmt, label string, body func(*ast.CaseClause) []ast.Stmt) {
	head := b.cur
	after := b.newBlock()
	blocks := make([]*Block, len(list))
	hasDefault := false
	for i, cl := range list {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i], EdgeCase)
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		// No default: the tag may match nothing and fall through the switch.
		b.edge(head, after, EdgeFalse)
	}
	b.loops = append(b.loops, loopCtx{label: label, breakTo: after})
	for i, cl := range list {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.startBlock(blocks[i])
		stmts := body(cc)
		fellThrough := false
		for j, st := range stmts {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				if i+1 < len(blocks) {
					b.jumpTo(blocks[i+1], EdgeNext)
					fellThrough = true
				}
				break
			}
			b.stmt(st)
			_ = j
		}
		if !fellThrough {
			b.jumpTo(after, EdgeNext)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.startBlock(after)
}

// takeLabel consumes the label a LabeledStmt parent registered for this
// construct.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) labelTarget(name string) *labelInfo {
	if info, ok := b.labels[name]; ok {
		return info
	}
	info := &labelInfo{block: b.newBlock()}
	b.labels[name] = info
	return info
}

// findLoop resolves the target of a break/continue, optionally labeled.
func (b *cfgBuilder) findLoop(label *ast.Ident, isBreak bool) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		l := &b.loops[i]
		if label != nil && l.label != label.Name {
			continue
		}
		if !isBreak && l.continueTo == nil {
			continue // switch/select: not a continue target
		}
		return l
	}
	return nil
}

// prune drops unreachable blocks, rebuilds pred lists and assigns final
// indices (entry first, exit last, body blocks in discovery order).
func (b *cfgBuilder) prune() {
	g := b.cfg
	reach := map[*Block]bool{g.Entry: true}
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range blk.Succs {
			if !reach[e.To] {
				reach[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	var kept []*Block
	for _, blk := range g.Blocks {
		if reach[blk] && blk != g.Exit {
			kept = append(kept, blk)
		}
	}
	kept = append(kept, g.Exit)
	for i, blk := range kept {
		blk.Index = i
		blk.Preds = nil
	}
	for _, blk := range kept {
		var succs []Edge
		for _, e := range blk.Succs {
			if reach[e.To] || e.To == g.Exit {
				succs = append(succs, e)
			}
		}
		blk.Succs = succs
		for _, e := range blk.Succs {
			e.To.Preds = append(e.To.Preds, e)
		}
	}
	g.Blocks = kept
}

// ReversePostorder returns the reachable blocks in reverse postorder — the
// iteration order that makes forward dataflow converge fastest.
func (g *CFG) ReversePostorder() []*Block {
	seen := make(map[*Block]bool, len(g.Blocks))
	var post []*Block
	var dfs func(*Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, e := range b.Succs {
			if !seen[e.To] {
				dfs(e.To)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// String renders the graph in a canonical, position-independent text form
// used by the golden tests: one line per block with its node kinds and
// successor list.
func (g *CFG) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		name := fmt.Sprintf("b%d", blk.Index)
		switch blk {
		case g.Entry:
			name += "(entry)"
		case g.Exit:
			name += "(exit)"
		}
		fmt.Fprintf(&sb, "%s:", name)
		for _, n := range blk.Nodes {
			fmt.Fprintf(&sb, " %s", nodeKind(n))
		}
		if len(blk.Succs) > 0 {
			succs := make([]string, len(blk.Succs))
			for i, e := range blk.Succs {
				succs[i] = fmt.Sprintf("%s→b%d", e.Kind, e.To.Index)
			}
			sort.Strings(succs)
			fmt.Fprintf(&sb, " [%s]", strings.Join(succs, " "))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// nodeKind names an AST node for the canonical rendering.
func nodeKind(n ast.Node) string {
	s := fmt.Sprintf("%T", n)
	s = strings.TrimPrefix(s, "*ast.")
	s = strings.TrimSuffix(s, "Stmt")
	if s == "" {
		s = "Node"
	}
	return s
}
