package analysis

// Program-level view for the interprocedural analyzers: an index from
// type-checker function objects to their declarations across every package
// of one Run, lazily built CFGs, and a cache where analyzers memoize their
// module-wide summary passes (taint summaries, lock-acquisition summaries)
// so the per-package analyzer entry points share one fixpoint computation.

import (
	"go/ast"
	"go/types"
	"sync"
)

// A FuncNode is one declared function or method of the analyzed program.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	cfgOnce sync.Once
	cfg     *CFG
}

// CFG returns the function's control-flow graph, built on first use (nil
// for body-less declarations).
func (n *FuncNode) CFG() *CFG {
	n.cfgOnce.Do(func() { n.cfg = BuildCFG(n.Decl) })
	return n.cfg
}

// A Program spans all packages of one analysis run. Analyzers reach it via
// Pass.Prog; cross-package resolution degrades gracefully when a run loads
// only a subset of the module (unknown callees get conservative defaults).
type Program struct {
	Pkgs []*Package

	fns map[*types.Func]*FuncNode

	mu    sync.Mutex
	cache map[string]any
}

// NewProgram indexes the packages' function declarations.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{Pkgs: pkgs, fns: make(map[*types.Func]*FuncNode), cache: make(map[string]any)}
	for _, pkg := range pkgs {
		if pkg == nil || pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.fns[fn] = &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}
	return p
}

// Func resolves a type-checker function object to its declaration node,
// or nil when the function was not declared in this run's packages.
func (p *Program) Func(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return p.fns[fn]
}

// Funcs returns every indexed function node of one package, in file order.
func (p *Program) Funcs(pkg *Package) []*FuncNode {
	var out []*FuncNode
	if pkg == nil || pkg.Info == nil {
		return nil
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				if node := p.fns[fn]; node != nil {
					out = append(out, node)
				}
			}
		}
	}
	return out
}

// Cached memoizes one module-wide artifact under a key: the first caller
// builds it, later callers (other packages' analyzer passes) reuse it.
func (p *Program) Cached(key string, build func() any) any {
	p.mu.Lock()
	v, ok := p.cache[key]
	p.mu.Unlock()
	if ok {
		return v
	}
	v = build()
	p.mu.Lock()
	if prev, ok := p.cache[key]; ok {
		v = prev
	} else {
		p.cache[key] = v
	}
	p.mu.Unlock()
	return v
}
