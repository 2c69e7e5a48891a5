package analysis

import (
	"path/filepath"
	"sync"
	"testing"
)

// fixtureLoader is shared across fixture tests so the source importer
// type-checks each stdlib dependency once per test binary.
var fixtureLoader = sync.OnceValues(func() (*Loader, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return NewLoader(root)
})

// loadFixture loads testdata/src/<rel> under the synthetic import path
// <rel>, so the final path element drives the analyzers' package matching
// exactly as it does for real module packages.
func loadFixture(t *testing.T, rel string) *Package {
	t.Helper()
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadPackageDir(rel, dir)
	if err != nil {
		t.Fatalf("load %s: %v", rel, err)
	}
	if pkg == nil {
		t.Fatalf("no buildable fixture package in %s", dir)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("fixture %s does not type-check: %v", rel, terr)
	}
	return pkg
}

// checkFixture runs the full pipeline (all analyzers + directive
// collection + suppression) over one fixture package and matches the
// result against its `// want` comments.
func checkFixture(t *testing.T, rel string) {
	t.Helper()
	pkg := loadFixture(t, rel)
	diags := Run([]*Package{pkg}, All())
	for _, failure := range CheckExpectations(pkg, diags) {
		t.Error(failure)
	}
}

func TestCTCompareFixtures(t *testing.T) {
	checkFixture(t, "ctcompare/prf")
	checkFixture(t, "ctcompare/util")
}

func TestWeakRandFixtures(t *testing.T) {
	// Hard diagnostic inside a crypto package: the directive present in
	// the fixture must NOT suppress it.
	checkFixture(t, "weakrand/trapdoor")
	// Suppression works outside the crypto perimeter, and a directive
	// for a different analyzer (wallclock) does not silence weakrand.
	checkFixture(t, "weakrand/seeded")
	// Crypto-adjacent package: flagged with the proximity message.
	checkFixture(t, "weakrand/adjacent")
}

func TestMapOrderFixtures(t *testing.T) {
	checkFixture(t, "maporder/serialize")
}

func TestWallClockFixtures(t *testing.T) {
	checkFixture(t, "wallclock/core")
	checkFixture(t, "wallclock/ticker")
}

func TestErrDropFixtures(t *testing.T) {
	checkFixture(t, "errdrop/drops")
}

func TestSecretTaintFixtures(t *testing.T) {
	// Crypto package: name- and type-based sources, sanitizers, big.Int
	// blinding vs serialization, flow-sensitive joins, strong updates.
	checkFixture(t, "secrettaint/prf")
	// Outside the crypto perimeter: type-named sources, interprocedural
	// summaries, closures, file modes, metric labels, audit records.
	checkFixture(t, "secrettaint/vault")
	// RPC trust boundary: response fields, literals, handler returns.
	checkFixture(t, "secrettaint/wire")
}

func TestLockDisciplineFixtures(t *testing.T) {
	// Guarded-field inference, imbalance, double-lock, RWMutex upgrade,
	// unlock-of-unheld, and the caller-locked conventions.
	checkFixture(t, "lockdiscipline/guarded")
	// Lock-order inversions, direct and through callee lock summaries,
	// including the journal-vs-state pair.
	checkFixture(t, "lockdiscipline/order")
}

// TestFixtureExpectationsAreExercised guards the matcher itself: a
// fixture whose want comment matches nothing must fail, and an
// unexpected diagnostic must fail. Both are asserted by running the
// matcher with a doctored diagnostic list.
func TestFixtureExpectationsAreExercised(t *testing.T) {
	pkg := loadFixture(t, "ctcompare/prf")
	// Empty diagnostics: every want comment must report as unmatched.
	failures := CheckExpectations(pkg, nil)
	if len(failures) == 0 {
		t.Fatal("matcher accepted a run with zero diagnostics against a fixture full of want comments")
	}
	// A fabricated diagnostic on a line with no want comment must fail.
	diags := Run([]*Package{pkg}, All())
	extra := append([]Diagnostic{}, diags...)
	bogus := diags[0]
	bogus.Pos.Line = 1
	bogus.Message = "fabricated finding"
	extra = append(extra, bogus)
	failed := false
	for _, f := range CheckExpectations(pkg, extra) {
		if f != "" {
			failed = true
		}
	}
	if !failed {
		t.Fatal("matcher accepted an unexpected diagnostic")
	}
}
