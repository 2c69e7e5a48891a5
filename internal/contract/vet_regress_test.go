package contract

import (
	"path/filepath"
	"testing"

	"slicer/internal/analysis"
)

// TestNoNonConstantTimeCompares runs the ctcompare analyzer as a library
// over this package and the other crypto packages. The proof-digest,
// accumulator-digest and token-hash checks in slicer.go used to be
// bytes.Equal — a short-circuiting comparison on the verification path is
// a remote timing oracle on exactly the bytes the paper's public
// verifiability rests on. This regression test keeps them (and any future
// digest compare in the crypto packages) constant time.
func TestNoNonConstantTimeCompares(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	// The satellite audit set: the contract plus every package named in
	// analysis.CryptoPackages that exists in this module, and the
	// secret-handling packages core/sore explicitly called out by the
	// audit even though core is matched by wallclock rather than
	// ctcompare.
	dirs := []string{
		"internal/contract",
		"internal/prf",
		"internal/symenc",
		"internal/sore",
		"internal/mhash",
		"internal/hprime",
		"internal/accumulator",
		"internal/trapdoor",
	}
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(filepath.Join(root, filepath.FromSlash(dir)))
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		if pkg == nil {
			t.Fatalf("no package at %s", dir)
		}
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("typecheck %s: %v", dir, terr)
		}
		pkgs = append(pkgs, pkg)
	}
	diags := analysis.Run(pkgs, []*analysis.Analyzer{analysis.CTCompare})
	for _, d := range diags {
		t.Errorf("non-constant-time comparison of secret-derived bytes: %s", d)
	}
}
