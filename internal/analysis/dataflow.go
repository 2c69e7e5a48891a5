package analysis

// A small forward-dataflow framework over the CFGs cfg.go builds: a
// problem supplies boundary facts, a per-block transfer function and a
// merge (the lattice join/meet); Forward iterates a worklist in reverse
// postorder to the fixpoint. Facts are an opaque type parameter — the
// gen/kill BitSet lattice below serves the golden tests and simple
// reaching-style problems, while the analyzers use richer map-based facts.

import (
	"fmt"
	"go/ast"
	"math/bits"
	"strings"
)

// A FlowProblem defines one forward dataflow analysis.
type FlowProblem[F any] interface {
	// Boundary is the fact holding at function entry.
	Boundary(g *CFG) F
	// Transfer computes the fact after executing a block given the fact
	// before it. It must not mutate in.
	Transfer(b *Block, in F) F
	// Merge joins facts arriving over two edges. It must not mutate its
	// arguments.
	Merge(a, b F) F
	// Equal reports fact equality (fixpoint detection).
	Equal(a, b F) bool
}

// FlowResult carries the per-block fixpoint facts.
type FlowResult[F any] struct {
	In, Out map[*Block]F
}

// maxFlowIterations bounds fixpoint iteration as a defensive backstop; a
// monotone lattice of reasonable height converges far earlier.
const maxFlowIterations = 64

// Forward runs p over g to a fixpoint and returns the per-block facts.
func Forward[F any](g *CFG, p FlowProblem[F]) FlowResult[F] {
	res := FlowResult[F]{In: make(map[*Block]F), Out: make(map[*Block]F)}
	rpo := g.ReversePostorder()
	res.In[g.Entry] = p.Boundary(g)
	res.Out[g.Entry] = p.Transfer(g.Entry, res.In[g.Entry])
	for iter := 0; iter < maxFlowIterations; iter++ {
		changed := false
		for _, blk := range rpo {
			if blk == g.Entry {
				continue
			}
			var in F
			have := false
			for _, e := range blk.Preds {
				out, ok := res.Out[e.From]
				if !ok {
					continue
				}
				if !have {
					in, have = out, true
				} else {
					in = p.Merge(in, out)
				}
			}
			if !have {
				in = p.Boundary(g)
			}
			out := p.Transfer(blk, in)
			res.In[blk] = in
			if old, ok := res.Out[blk]; !ok || !p.Equal(old, out) {
				res.Out[blk] = out
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return res
}

// A BitSet is a dense bit vector — the classic gen/kill dataflow lattice.
type BitSet struct {
	words []uint64
}

// NewBitSet returns an empty set sized for n bits.
func NewBitSet(n int) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64)}
}

// Set adds bit i (growing as needed).
func (s *BitSet) Set(i int) {
	w := i / 64
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (i % 64)
}

// Has reports whether bit i is present.
func (s *BitSet) Has(i int) bool {
	w := i / 64
	return w < len(s.words) && s.words[w]&(1<<(i%64)) != 0
}

// Clone returns an independent copy.
func (s *BitSet) Clone() *BitSet {
	c := &BitSet{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Union folds o into s (s |= o).
func (s *BitSet) Union(o *BitSet) {
	for len(s.words) < len(o.words) {
		s.words = append(s.words, 0)
	}
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Diff removes o's bits from s (s &^= o).
func (s *BitSet) Diff(o *BitSet) {
	for i := 0; i < len(s.words) && i < len(o.words); i++ {
		s.words[i] &^= o.words[i]
	}
}

// Equal reports set equality (trailing zero words are insignificant).
func (s *BitSet) Equal(o *BitSet) bool {
	long, short := s.words, o.words
	if len(long) < len(short) {
		long, short = short, long
	}
	for i := range short {
		if long[i] != short[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (s *BitSet) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// String renders the set as a sorted bit list, e.g. "{0 3 7}".
func (s *BitSet) String() string {
	var parts []string
	for i := 0; i < 64*len(s.words); i++ {
		if s.Has(i) {
			parts = append(parts, fmt.Sprint(i))
		}
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// GenKillProblem is the classic gen/kill union lattice: out = gen(b) ∪
// (in − kill(b)), merged by union. The CFG golden tests drive reaching
// definitions through it; analyzers with set-shaped facts can too.
type GenKillProblem struct {
	// Gen and Kill return a block's generated and killed bits; nil means
	// the empty set.
	Gen, Kill func(b *Block) *BitSet
	// Entry is the boundary fact (nil: empty set).
	Entry *BitSet
}

// Boundary implements FlowProblem.
func (p GenKillProblem) Boundary(*CFG) *BitSet {
	if p.Entry == nil {
		return NewBitSet(0)
	}
	return p.Entry.Clone()
}

// Transfer implements FlowProblem: out = gen ∪ (in − kill).
func (p GenKillProblem) Transfer(b *Block, in *BitSet) *BitSet {
	out := in.Clone()
	if p.Kill != nil {
		if k := p.Kill(b); k != nil {
			out.Diff(k)
		}
	}
	if p.Gen != nil {
		if g := p.Gen(b); g != nil {
			out.Union(g)
		}
	}
	return out
}

// Merge implements FlowProblem (set union — "may" analysis).
func (p GenKillProblem) Merge(a, b *BitSet) *BitSet {
	out := a.Clone()
	out.Union(b)
	return out
}

// Equal implements FlowProblem.
func (p GenKillProblem) Equal(a, b *BitSet) bool { return a.Equal(b) }

// blockExprs visits the expressions a block node evaluates itself, without
// descending into nested statement bodies that live in their own blocks (a
// RangeStmt node carries its body syntactically, but the body's statements
// are separate blocks) and without entering function literals (whose bodies
// execute later, if at all).
func blockExprs(n ast.Node, visit func(ast.Node) bool) {
	switch v := n.(type) {
	case *ast.RangeStmt:
		if v.Key != nil {
			blockExprs(v.Key, visit)
		}
		if v.Value != nil {
			blockExprs(v.Value, visit)
		}
		blockExprs(v.X, visit)
		return
	case *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt, *ast.BlockStmt:
		// Compound statements never appear as block nodes; their pieces do.
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			visit(n) // shown, but not descended into
			return false
		}
		return visit(n)
	})
}
