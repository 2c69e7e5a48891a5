// Command slicer-vet runs Slicer's invariant analyzers over the module:
// constant-time comparison of secret-derived bytes (ctcompare), no weak
// randomness near key material (weakrand), history-independent
// serialization (maporder), no wall-clock reads in deterministic protocol
// packages (wallclock), no silently dropped errors (errdrop), no key
// material reaching logs, errors or responses (secrettaint), and guarded
// fields, balanced locks and one lock order (lockdiscipline).
//
// Usage:
//
//	slicer-vet [-json|-sarif] [packages]
//
// Packages are directories relative to the current module ("./internal/core")
// or the wildcard "./..." (the default), matching every package in the
// module. The exit code is 0 when the tree is clean, 1 when any diagnostic
// is reported, and 2 on operational errors (unparseable source, type-check
// failures).
//
// Findings are suppressed per-line by directives with mandatory reasons:
//
//	//slicer:allow <analyzer> -- <reason>
//
// A malformed or unknown directive is itself a diagnostic.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"slicer/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the machine-readable JSON report on stdout")
	sarifOut := flag.Bool("sarif", false, "emit a SARIF 2.1.0 log on stdout (code-scanning upload format)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: slicer-vet [-json|-sarif] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loadPatterns(loader, cwd, patterns)
	if err != nil {
		fatal(err)
	}

	// A package that does not type-check produces unreliable analysis;
	// surface the errors and bail before reporting findings.
	typeErrs := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "slicer-vet: typecheck %s: %v\n", pkg.PkgPath, terr)
			typeErrs++
		}
	}
	if typeErrs > 0 {
		os.Exit(2)
	}

	diags := analysis.Run(pkgs, analysis.All())
	relativize(diags, root)

	switch {
	case *jsonOut && *sarifOut:
		fatal(fmt.Errorf("-json and -sarif are mutually exclusive"))
	case *jsonOut:
		if err := analysis.WriteJSON(os.Stdout, loader.ModulePath, len(pkgs), diags); err != nil {
			fatal(err)
		}
	case *sarifOut:
		if err := analysis.WriteSARIF(os.Stdout, analysis.All(), diags); err != nil {
			fatal(err)
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "slicer-vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// loadPatterns resolves package patterns: "./..." (or "all") loads the
// whole module, anything else is a directory.
func loadPatterns(loader *analysis.Loader, cwd string, patterns []string) ([]*analysis.Package, error) {
	var pkgs []*analysis.Package
	seen := make(map[string]bool)
	add := func(pkg *analysis.Package) {
		if pkg != nil && !seen[pkg.PkgPath] {
			seen[pkg.PkgPath] = true
			pkgs = append(pkgs, pkg)
		}
	}
	for _, pat := range patterns {
		if pat == "./..." || pat == "all" {
			loaded, err := loader.LoadAll()
			if err != nil {
				return nil, err
			}
			for _, pkg := range loaded {
				add(pkg)
			}
			continue
		}
		dir := strings.TrimSuffix(pat, "/...")
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		if strings.HasSuffix(pat, "/...") {
			loaded, err := loadTree(loader, dir)
			if err != nil {
				return nil, err
			}
			for _, pkg := range loaded {
				add(pkg)
			}
			continue
		}
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("slicer-vet: no buildable Go files in %s", dir)
		}
		add(pkg)
	}
	return pkgs, nil
}

// loadTree loads every package under one directory subtree by reusing
// LoadAll's walk filtered to the subtree.
func loadTree(loader *analysis.Loader, dir string) ([]*analysis.Package, error) {
	all, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	var out []*analysis.Package
	prefix := dir + string(os.PathSeparator)
	for _, pkg := range all {
		if pkg.Dir == dir || strings.HasPrefix(pkg.Dir+string(os.PathSeparator), prefix) {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// relativize rewrites diagnostic file names relative to the module root
// so output is stable across machines (and readable in CI logs).
func relativize(diags []analysis.Diagnostic, root string) {
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slicer-vet:", err)
	os.Exit(2)
}
