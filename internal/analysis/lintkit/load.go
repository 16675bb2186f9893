package lintkit

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
	"strings"
)

// Package is one loaded, type-checked module package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// pkgMeta is the slice of `go list -json` output the loader consumes.
type pkgMeta struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	// XTestGoFiles are the files of the external test package (x_test).
	XTestGoFiles []string
	Standard     bool
	Error        *struct{ Err string }
	DepOnly      bool
}

// Loader resolves and type-checks packages. All packages loaded through one
// Loader share a FileSet, so diagnostics across packages sort coherently.
// Dependency types come from the build cache's export data (`go list
// -export`), so only the packages under analysis are type-checked from
// source; run `go build ./...` first if the cache may be cold (the Makefile
// lint target does).
type Loader struct {
	// Dir is the working directory for `go list`, normally the module
	// root. Empty means the current directory.
	Dir string

	Fset  *token.FileSet
	metas map[string]*pkgMeta
	typed map[string]*types.Package // packages LoadDir checked, by path
	imp   types.Importer
}

// NewLoader returns a Loader rooted at dir.
func NewLoader(dir string) *Loader {
	l := &Loader{
		Dir:   dir,
		Fset:  token.NewFileSet(),
		metas: map[string]*pkgMeta{},
		typed: map[string]*types.Package{},
	}
	l.imp = importer.ForCompiler(l.Fset, "gc", l.lookup)
	return l
}

// Import resolves an import for the type checker: a package LoadDir has
// already checked from source, else the dependency's export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.typed[path]; ok {
		return p, nil
	}
	return l.imp.Import(path)
}

// lookup serves export data for the gc importer from the metadata the
// loader has listed.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	m, ok := l.metas[path]
	if !ok || m.Export == "" {
		return nil, fmt.Errorf("lintkit: no export data for %q", path)
	}
	return os.Open(m.Export)
}

// list runs `go list -e -export -deps -json` on the patterns and folds the
// results into the loader's metadata, returning the non-dependency roots in
// listing order.
func (l *Loader) list(patterns []string) ([]*pkgMeta, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,XTestGoFiles,Standard,Error,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lintkit: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var roots []*pkgMeta
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var m pkgMeta
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lintkit: decoding go list output: %v", err)
		}
		mm := m
		l.metas[m.ImportPath] = &mm
		if !m.DepOnly {
			roots = append(roots, &mm)
		}
	}
	return roots, nil
}

// Load lists the patterns (go list syntax; testdata directories are skipped
// by go list itself) and type-checks every matched non-stdlib package from
// source. Dependencies are imported from export data, never re-checked.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	roots, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, m := range roots {
		if m.Standard {
			continue
		}
		if m.Error != nil {
			return nil, fmt.Errorf("lintkit: %s: %s", m.ImportPath, m.Error.Err)
		}
		files, err := l.parse(m.Dir, m.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg, err := l.check(m.ImportPath, m.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadExamples type-checks, for each package Load returned whose external
// test package (package x_test) declares a func Example…, the files of
// that package that declare one, as package "<path>_test". Those files
// must type-check on their own: they see the package under test through
// its export data, not through the other test files.
func (l *Loader) LoadExamples(loaded []*Package) ([]*Package, error) {
	var pkgs []*Package
	for _, p := range loaded {
		m := l.metas[p.ImportPath]
		all, err := l.parse(m.Dir, m.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, f := range all {
			if declaresExample(f) {
				files = append(files, f)
			}
		}
		if len(files) == 0 {
			continue
		}
		if err := l.listImports(files); err != nil {
			return nil, err
		}
		pkg, err := l.check(m.ImportPath+"_test", m.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// declaresExample reports whether f declares a func Example….
func declaresExample(f *ast.File) bool {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
			return true
		}
	}
	return false
}

// parse parses the named files of dir, comments included.
func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lintkit: %v", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// listImports lists, through `go list`, the imports of files that no
// earlier LoadDir checked, so the importer finds their export data.
func (l *Loader) listImports(files []*ast.File) error {
	imports := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if _, loaded := l.typed[path]; !loaded && path != "unsafe" {
				imports[path] = true
			}
		}
	}
	if len(imports) == 0 {
		return nil
	}
	var paths []string
	for p := range imports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	_, err := l.list(paths)
	return err
}

// check type-checks parsed files as the package with the given path.
func (l *Loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := NewInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lintkit: type-checking %s: %v", path, err)
	}
	return &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// LoadDir type-checks the .go files of one directory as a standalone
// package outside the module's package graph — the fixture loader. The
// package's path is its name. Imports resolve to a package an earlier
// LoadDir on this loader checked, else through `go list` run from the
// loader's Dir, so fixtures may import each other, the standard library
// and (when Dir is inside the module) module packages.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lintkit: %v", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lintkit: no .go files in %s", dir)
	}
	files, err := l.parse(dir, names)
	if err != nil {
		return nil, err
	}
	if err := l.listImports(files); err != nil {
		return nil, err
	}
	pkg, err := l.check(files[0].Name.Name, dir, files)
	if err != nil {
		return nil, err
	}
	l.typed[pkg.ImportPath] = pkg.Types
	return pkg, nil
}
