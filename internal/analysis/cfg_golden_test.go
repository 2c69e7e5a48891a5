package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseFunc parses src (a complete file) and returns the CFG of the
// function named f.
func parseFunc(t testing.TB, src string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			g := BuildCFG(fd)
			if g == nil {
				t.Fatal("BuildCFG returned nil for a function with a body")
			}
			return g
		}
	}
	t.Fatal("no function f in source")
	return nil
}

// cfgGoldens pins the canonical block structure for the control shapes
// the analyzers depend on: branch edges must be kind-tagged, loops must
// have back edges, and returns must feed the virtual exit.
var cfgGoldens = []struct {
	name, src, want string
}{
	{
		name: "straight",
		src: `package p
func f(a, b int) int {
	x := a + b
	x *= 2
	return x
}`,
		want: `b0(entry): Assign Assign Return [next→b1]
b1(exit):
`,
	},
	{
		name: "ifelse",
		src: `package p
func f(a int) int {
	if a > 0 {
		a++
	} else {
		a--
	}
	return a
}`,
		want: `b0(entry): BinaryExpr [false→b3 true→b1]
b1: IncDec [next→b2]
b2: Return [next→b4]
b3: IncDec [next→b2]
b4(exit):
`,
	},
	{
		name: "forloop",
		src: `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`,
		want: `b0(entry): Assign Assign [next→b1]
b1: BinaryExpr [false→b3 true→b2]
b2: Assign [next→b4]
b3: Return [next→b5]
b4: IncDec [next→b1]
b5(exit):
`,
	},
	{
		name: "rangeloop",
		src: `package p
func f(xs []int) int {
	s := 0
	for _, x := range xs {
		if x < 0 {
			continue
		}
		s += x
	}
	return s
}`,
		want: `b0(entry): Assign [next→b1]
b1: Range [false→b3 true→b2]
b2: BinaryExpr [false→b5 true→b4]
b3: Return [next→b6]
b4: [next→b1]
b5: Assign [next→b1]
b6(exit):
`,
	},
	{
		name: "switchcase",
		src: `package p
func f(op string) int {
	switch op {
	case "add":
		return 1
	case "del":
		return 2
	default:
		return 0
	}
}`,
		want: `b0(entry): Ident [case→b1 case→b2 case→b3]
b1: Return [next→b4]
b2: Return [next→b4]
b3: Return [next→b4]
b4(exit):
`,
	},
	{
		name: "earlyreturn",
		src: `package p
func f(ok bool) (int, error) {
	if !ok {
		return 0, nil
	}
	defer done()
	return 1, nil
}
func done() {}`,
		want: `b0(entry): UnaryExpr [false→b2 true→b1]
b1: Return [next→b3]
b2: Defer Return [next→b3]
b3(exit):
`,
	},
	{
		name: "nestedbreak",
		src: `package p
func f(rows [][]int) int {
outer:
	for _, r := range rows {
		for _, v := range r {
			if v == 0 {
				break outer
			}
		}
	}
	return 0
}`,
		want: `b0(entry): [next→b1]
b1: [next→b2]
b2: Range [false→b4 true→b3]
b3: [next→b5]
b4: Return [next→b10]
b5: Range [false→b7 true→b6]
b6: BinaryExpr [false→b9 true→b8]
b7: [next→b2]
b8: [next→b4]
b9: [next→b5]
b10(exit):
`,
	},
}

func TestCFGGoldens(t *testing.T) {
	for _, tc := range cfgGoldens {
		t.Run(tc.name, func(t *testing.T) {
			g := parseFunc(t, tc.src)
			if got := g.String(); got != tc.want {
				t.Errorf("CFG mismatch:\n got:\n%s want:\n%s", got, tc.want)
			}
		})
	}
}

// genIndexBit is the reaching-blocks problem: each block generates its own
// index bit, so a block's In set names every block on some path to it.
func genIndexBit(b *Block) *BitSet {
	s := NewBitSet(8)
	s.Set(b.Index)
	return s
}

// TestFixpointReachingLoop drives the gen/kill lattice over the for-loop
// CFG: the back edge must fold the body's bits into the header's In set.
func TestFixpointReachingLoop(t *testing.T) {
	g := parseFunc(t, cfgGoldens[2].src) // forloop
	res := Forward(g, FlowProblem[*BitSet](GenKillProblem{Gen: genIndexBit}))
	want := map[int]string{
		0: "{}",          // entry: the empty boundary fact
		1: "{0 1 2 4}",   // header: entry plus the loop body via the back edge
		2: "{0 1 2 4}",   // body
		3: "{0 1 2 4}",   // return: everything but the exit's own bit
		4: "{0 1 2 4}",   // post statement
		5: "{0 1 2 3 4}", // exit
	}
	for _, b := range g.Blocks {
		in, ok := res.In[b]
		if !ok {
			t.Fatalf("no fixpoint In fact for b%d", b.Index)
		}
		union := in.Clone()
		union.Union(genIndexBit(b))
		if res.Out[b].String() != union.String() {
			t.Errorf("b%d: Out=%s violates out = in ∪ gen = %s", b.Index, res.Out[b], union)
		}
		if got := in.String(); got != want[b.Index] {
			t.Errorf("In[b%d]=%s, want %s", b.Index, got, want[b.Index])
		}
	}
}

// TestFixpointKillJoin drives gen/kill over the if/else diamond: the true
// arm kills the boundary bit, and the may-merge keeps it alive at the join
// because the false arm still carries it.
func TestFixpointKillJoin(t *testing.T) {
	g := parseFunc(t, cfgGoldens[1].src) // ifelse
	entry := NewBitSet(16)
	entry.Set(9)
	kill := func(b *Block) *BitSet {
		if b.Index != 1 { // the true arm
			return nil
		}
		k := NewBitSet(16)
		k.Set(9)
		return k
	}
	res := Forward(g, FlowProblem[*BitSet](GenKillProblem{Gen: genIndexBit, Kill: kill, Entry: entry}))
	want := map[int]string{
		0: "{9}",
		1: "{0 9}",     // before the kill
		2: "{0 1 3 9}", // join: true arm {0 1}, false arm {0 3 9}
		3: "{0 9}",
		4: "{0 1 2 3 9}", // exit
	}
	for _, b := range g.Blocks {
		if got := res.In[b].String(); got != want[b.Index] {
			t.Errorf("In[b%d]=%s, want %s", b.Index, got, want[b.Index])
		}
	}
	if out := res.Out[g.Blocks[1]].String(); out != "{0 1}" {
		t.Errorf("Out[b1]=%s, want {0 1} (bit 9 killed)", out)
	}
}

// checkCFGInvariants asserts the structural contract every analyzer relies
// on: blocks are indexed by position, edges are mirrored in Preds, every
// non-exit block is reachable from the entry, and a Cond is always the
// block's last node.
func checkCFGInvariants(t testing.TB, g *CFG) {
	t.Helper()
	inGraph := make(map[*Block]bool, len(g.Blocks))
	for i, b := range g.Blocks {
		if b.Index != i {
			t.Fatalf("block at position %d has Index %d", i, b.Index)
		}
		inGraph[b] = true
	}
	if g.Entry != g.Blocks[0] {
		t.Fatal("entry block is not Blocks[0]")
	}
	if !inGraph[g.Exit] {
		t.Fatal("exit block not in Blocks")
	}
	for _, b := range g.Blocks {
		if b.Cond != nil {
			if len(b.Nodes) == 0 || b.Nodes[len(b.Nodes)-1] != ast.Node(b.Cond) {
				t.Fatalf("b%d: Cond is not the last node", b.Index)
			}
		}
		for _, e := range b.Succs {
			if e.From != b {
				t.Fatalf("b%d: successor edge with wrong From", b.Index)
			}
			if !inGraph[e.To] {
				t.Fatalf("b%d: successor edge to pruned block", b.Index)
			}
			found := false
			for _, p := range e.To.Preds {
				if p == e {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("b%d→b%d: edge missing from target's Preds", b.Index, e.To.Index)
			}
		}
		for _, e := range b.Preds {
			if e.To != b || !inGraph[e.From] {
				t.Fatalf("b%d: malformed predecessor edge", b.Index)
			}
		}
	}
	// Connectivity: everything except a possibly-unreachable exit (a
	// function that cannot fall off its end) hangs off the entry.
	reach := map[*Block]bool{g.Entry: true}
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range b.Succs {
			if !reach[e.To] {
				reach[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	for _, b := range g.Blocks {
		if !reach[b] && b != g.Exit {
			t.Fatalf("b%d survived pruning but is unreachable from the entry", b.Index)
		}
	}
}

// FuzzCFGBuilder feeds arbitrary function bodies through the builder:
// anything go/parser accepts must yield a well-formed, connected CFG
// without panicking.
func FuzzCFGBuilder(f *testing.F) {
	for _, tc := range cfgGoldens {
		f.Add(tc.src)
	}
	f.Add(`package p
func f() {
	for {
	}
}`)
	f.Add(`package p
func f(ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
	}
	goto done
done:
	return 0
}`)
	f.Add(`package p
func f(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case error:
		panic(x)
	}
	return ""
}`)
	f.Add(`package p
func f(n int) func() int {
	return func() int {
		defer recover()
		switch {
		case n > 0:
			fallthrough
		default:
			n--
		}
		return n
	}
}`)
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, 0)
		if err != nil {
			t.Skip() // not valid Go; the builder only sees parsed bodies
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := BuildCFG(fd)
			if g == nil {
				t.Fatal("BuildCFG returned nil for a parsed body")
			}
			checkCFGInvariants(t, g)
			if !strings.HasPrefix(g.String(), "b0(entry):") {
				t.Fatal("canonical rendering lost the entry block")
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					if lg := BuildLitCFG(lit); lg != nil {
						checkCFGInvariants(t, lg)
					}
					return false
				}
				return true
			})
		}
	})
}
