package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// PkgPath is the import path ("slicer/internal/prf"; fixtures get a
	// synthetic path).
	PkgPath string
	// Name is the package name from the source.
	Name string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset is the file set shared by every package the loader produced.
	Fset *token.FileSet
	// Files are the parsed non-test source files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
	// TypeErrors collects type-check errors; analyzers still run on a
	// partially checked package, but the driver treats these as fatal.
	TypeErrors []error
}

// A Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports resolve against the module
// tree, everything else falls back to go/importer's source importer.
type Loader struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string
	// Fset is shared by all loaded packages.
	Fset *token.FileSet

	fallback types.ImporterFrom
	pkgs     map[string]*Package // by import path
	loading  map[string]bool     // cycle detection
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod []byte) (string, error) {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mp := strings.TrimSpace(rest)
			mp = strings.Trim(mp, `"`)
			if mp != "" {
				return mp, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in go.mod")
}

// NewLoader creates a loader for the module rooted at moduleRoot.
func NewLoader(moduleRoot string) (*Loader, error) {
	gomod, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: read go.mod: %w", err)
	}
	mp, err := modulePath(gomod)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	fb, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: mp,
		Fset:       fset,
		fallback:   fb,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// skipDir reports whether a directory is never loaded: testdata trees
// (analyzer fixtures), VCS/tooling metadata and vendored code.
func skipDir(name string) bool {
	if name == "testdata" || name == "vendor" {
		return true
	}
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// LoadAll loads every package in the module (skipping testdata, vendored
// and hidden trees and nested modules), returning them sorted by import
// path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == l.ModuleRoot {
				return nil
			}
			if skipDir(d.Name()) {
				return filepath.SkipDir
			}
			// A nested go.mod starts another module (benchmark/), which
			// `./...` does not reach in the go tool either.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// LoadDir loads the package in one directory, deriving its import path
// from the module root. It returns (nil, nil) for directories without
// buildable Go files.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	ip := l.ModulePath
	if rel != "." {
		ip = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.LoadPackageDir(ip, abs)
}

// LoadPackageDir loads the package in dir under an explicit import path.
// Fixture tests use this to load testdata packages that LoadAll skips.
func (l *Loader) LoadPackageDir(importPath, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		if buildIgnored(src) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", full, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	pkg := &Package{
		PkgPath: importPath,
		Name:    files[0].Name.Name,
		Dir:     dir,
		Fset:    l.Fset,
		Files:   files,
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	// Check reports the first error via conf.Error and keeps going; the
	// returned error is redundant with pkg.TypeErrors.
	tpkg, _ := conf.Check(importPath, l.Fset, files, pkg.Info)
	pkg.Types = tpkg
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// buildIgnored reports whether the file carries a `//go:build ignore` (or
// legacy `// +build ignore`) constraint.
func buildIgnored(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			if strings.HasPrefix(trimmed, "//go:build") && strings.Contains(trimmed, "ignore") {
				return true
			}
			if strings.HasPrefix(trimmed, "// +build") && strings.Contains(trimmed, "ignore") {
				return true
			}
			continue
		}
		break // first non-comment line ends the constraint block
	}
	return false
}

// loaderImporter adapts Loader to types.Importer: module-internal paths
// load from the module tree, everything else (stdlib) goes to the source
// importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
		pkg, err := l.LoadPackageDir(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil || pkg.Types == nil {
			return nil, fmt.Errorf("analysis: no buildable package at %s", path)
		}
		return pkg.Types, nil
	}
	return l.fallback.Import(path)
}
