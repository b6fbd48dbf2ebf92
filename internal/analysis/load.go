package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// This file is the suite's package loader. golang.org/x/tools is not a
// dependency of this module, so instead of go/packages the loader drives
// `go list -export -deps -json` directly: the go command resolves import
// paths and produces compiled export data for every dependency, the
// target packages themselves are parsed and type-checked from source with
// the standard library's gc-export-data importer, and the resulting
// (Fset, Files, types.Package, types.Info) tuple is exactly what a
// go/analysis pass would receive.

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	Annot     *Annotations
}

// Pass assembles a Pass over this package for one analyzer.
func (p *Package) Pass(a *Analyzer, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      p.Fset,
		Files:     p.Files,
		Pkg:       p.Types,
		TypesInfo: p.TypesInfo,
		Annot:     p.Annot,
		Report:    report,
	}
}

// Loader loads packages through the go command, sharing one FileSet and
// one export-data table across loads so fixture packages can be checked
// against the real module's dependencies.
type Loader struct {
	// Dir is the directory go commands run in ("" = current directory).
	Dir     string
	fset    *token.FileSet
	exports map[string]string // import path -> export data file
}

// NewLoader returns a loader rooted at dir.
func NewLoader(dir string) *Loader {
	return &Loader{Dir: dir, fset: token.NewFileSet(), exports: map[string]string{}}
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -deps -json` on the patterns and
// returns the decoded package stream (dependencies included).
func (l *Loader) goList(patterns ...string) ([]listedPkg, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load loads the packages matching the go package patterns (their
// dependencies are resolved to export data, not analyzed). Packages are
// returned sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var roots []listedPkg
	for _, p := range listed {
		if p.Error != nil && p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			roots = append(roots, p)
		}
	}
	var out []*Package
	for _, p := range roots {
		if len(p.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := l.check(p.ImportPath, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// Gather records export data for the packages matching patterns (and
// their dependencies) without analyzing anything, so later LoadDir calls
// can resolve imports of them. Unresolvable patterns are skipped, not
// errors (-e).
//
//lama:api the fixture harness gathers export data with it
func (l *Loader) Gather(patterns ...string) error {
	listed, err := l.goList(patterns...)
	if err != nil {
		return err
	}
	for _, p := range listed {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

// LoadDir type-checks every .go file of one directory as a single package
// under the given import path — the fixture loader. Imports resolve
// against the export data gathered by previous Load calls, so a fixture
// may import real module packages (lama/internal/obs) and any standard
// library package the module itself depends on.
//
//lama:api the fixture harness loads each fixture with it
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: fixture dir: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	return l.check(importPath, files)
}

// CheckFiles type-checks the given files as one package, resolving
// imports through the provided export-data table (source import path ->
// export file). It backs lamavet's `go vet -vettool` mode, where the go
// command hands the file and export lists over in a vet config instead of
// being asked through `go list`.
func CheckFiles(importPath string, filenames []string, exports map[string]string) (*Package, error) {
	l := &Loader{fset: token.NewFileSet(), exports: exports}
	return l.check(importPath, filenames)
}

// check parses and type-checks one package from source.
func (l *Loader) check(importPath string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q (is it a dependency of the loaded patterns?)", path)
		}
		return os.Open(exp)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %v", importPath, err)
	}
	return &Package{
		PkgPath:   importPath,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
		Annot:     scanAnnotations(l.fset, files),
	}, nil
}
