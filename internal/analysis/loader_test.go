package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadAllSkipsNestedModules: a directory with its own go.mod is another
// module (this repo's benchmark/), not a package of the one being vetted.
func TestLoadAllSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for name, content := range map[string]string{
		"go.mod":            "module m\n\ngo 1.22\n",
		"a.go":              "package m\n",
		"sub/b.go":          "package sub\n",
		"nested/go.mod":     "module m/nested\n\ngo 1.22\n",
		"nested/c.go":       "package main\n\nfunc main() {}\n",
		"nested/in/d.go":    "package in\n",
		"sub/testdata/e.go": "package e\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.PkgPath)
	}
	if len(got) != 2 || got[0] != "m" || got[1] != "m/sub" {
		t.Fatalf("LoadAll = %v, want [m m/sub]", got)
	}
}
