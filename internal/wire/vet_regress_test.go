package wire

import (
	"path/filepath"
	"testing"

	"slicer/internal/analysis"
)

// TestVetGatesOverWire runs the flow-sensitive analyzers as a library over
// this package, mirroring the contract package's constant-time gate. Wire
// is the trust boundary: secrettaint keeps key material out of RPC
// responses and logs, and lockdiscipline guards the shared server state the
// handlers touch concurrently.
func TestVetGatesOverWire(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join(root, filepath.FromSlash("internal/wire")))
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil {
		t.Fatal("no package at internal/wire")
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("typecheck: %v", terr)
	}
	diags := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{
		analysis.SecretTaint,
		analysis.LockDiscipline,
	})
	for _, d := range diags {
		t.Errorf("slicer-vet gate violation in wire: %s", d)
	}
}
