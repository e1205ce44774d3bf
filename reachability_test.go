package countryrank

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestReachability is the ledger rule applied to code: every package under
// internal/ is linked by a cmd/ or benchmark/ main (or is a *test helper),
// and every exported top-level identifier or method under internal/ is
// referenced by something other than its own package's tests. References
// from other packages' tests count, so the reference kernels tests compare
// against stay; methods that satisfy an interface are exempt. The module is
// type-checked from source, tests included; the standard library comes from
// the build cache's export data.
func TestReachability(t *testing.T) {
	findings, err := reachability(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestReachabilityCatchesPlanted runs the rule over a three-package module
// with one unlinked package and one exported function only its own test
// calls, and requires both to be named.
func TestReachabilityCatchesPlanted(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":                   "module planted\n\ngo 1.22\n",
		"cmd/x/main.go":            "package main\n\nimport \"planted/internal/live\"\n\nfunc main() { live.Used() }\n",
		"internal/live/live.go":    "package live\n\nimport \"fmt\"\n\ntype T struct{}\n\nfunc (T) String() string { return \"\" }\n\nfunc Used() { fmt.Println(T{}) }\n\nfunc Dead() {}\n",
		"internal/live/x_test.go":  "package live\n\nimport \"testing\"\n\nfunc TestDead(t *testing.T) { Dead() }\n",
		"internal/island/i.go":     "package island\n\nfunc Lonely() {}\n",
		"internal/islandtest/h.go": "package islandtest\n\nimport \"planted/internal/island\"\n\nfunc Helper() { island.Lonely() }\n",
	}
	for name, body := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := reachability(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"package planted/internal/island is linked by no cmd/ or benchmark/ main",
		"planted/internal/live.Dead is referenced by nothing but its own package's tests",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// modPkg is one directory of the module: its files split the way go test
// splits them, and the types of its non-test files.
type modPkg struct {
	name                 string
	files, tests, xtests []*ast.File
	imports              []string // of the non-test files
	testImports          []string // of both kinds of test file
	types                *types.Package
}

// refs records, per object, whether anything but its own package's tests
// refers to it.
type refs map[types.Object]bool

func (r refs) collect(fset *token.FileSet, home string, info *types.Info) {
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj.Pkg() == nil {
			continue
		}
		if obj.Pkg().Path() != home || !strings.HasSuffix(fset.Position(id.Pos()).Filename, "_test.go") {
			r[obj] = true
		}
	}
}

// reachability returns the rule's findings for the module rooted at root,
// sorted.
func reachability(root string) ([]string, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs, err := loadDirs(fset, root, module)
	if err != nil {
		return nil, err
	}
	std, err := stdExports(root, module, pkgs)
	if err != nil {
		return nil, err
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := std[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})

	seen := refs{}
	var ifaces []*types.Interface
	var checkErr error
	check := func(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info) {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: imp, Error: func(err error) {
			if checkErr == nil {
				checkErr = err
			}
		}}
		p, _ := conf.Check(path, fset, files, info)
		seen.collect(fset, strings.TrimSuffix(path, "_test"), info)
		return p, info
	}
	var canonical importerFunc
	canonical = func(path string) (*types.Package, error) {
		p, ok := pkgs[path]
		if !ok {
			return gc.Import(path)
		}
		if p.types == nil {
			var info *types.Info
			p.types, info = check(path, p.files, canonical)
			// Interface types written in non-test code, named or not.
			for _, f := range p.files {
				ast.Inspect(f, func(n ast.Node) bool {
					if it, ok := n.(*ast.InterfaceType); ok {
						if t, ok := info.TypeOf(it).(*types.Interface); ok {
							ifaces = append(ifaces, t)
						}
					}
					return true
				})
			}
		}
		return p.types, nil
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		p := pkgs[path]
		if _, err := canonical(path); err != nil {
			return nil, err
		}
		if len(p.tests) == 0 && len(p.xtests) == 0 {
			continue
		}
		// In-package tests see the package with its _test.go files; an
		// external test package imports that variant, and so — as go test
		// rebuilds them — does every module package on its way there.
		variant := map[string]*types.Package{path: p.types}
		if len(p.tests) > 0 {
			variant[path], _ = check(path, append(slices.Clip(p.files), p.tests...), canonical)
		}
		var viaTests importerFunc
		viaTests = func(q string) (*types.Package, error) {
			if v, ok := variant[q]; ok {
				return v, nil
			}
			if !dependsOn(pkgs, q, path) {
				return canonical(q)
			}
			variant[q], _ = check(q, pkgs[q].files, viaTests)
			return variant[q], nil
		}
		if len(p.xtests) > 0 {
			check(path+"_test", p.xtests, viaTests)
		}
	}
	if checkErr != nil {
		return nil, checkErr
	}

	// Interfaces a method may satisfy: the universe's error, every named
	// interface in any package the module reaches, and (above) every
	// interface type written in its non-test code.
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, path := range paths {
		walk(pkgs[path].types)
	}
	satisfies := func(named *types.Named, m *types.Func) bool {
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
				continue
			}
			if named.TypeParams().Len() > 0 || types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	linked := map[string]bool{}
	var link func(string)
	link = func(path string) {
		if p, ok := pkgs[path]; ok && !linked[path] {
			linked[path] = true
			for _, q := range p.imports {
				link(q)
			}
		}
	}
	for _, path := range paths {
		if pkgs[path].name == "main" && (strings.HasPrefix(path, module+"/cmd/") || path == module+"/benchmark") {
			link(path)
		}
	}

	var findings []string
	for _, path := range paths {
		p := pkgs[path]
		if !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		if !linked[path] {
			if !strings.HasSuffix(p.name, "test") {
				findings = append(findings, fmt.Sprintf("package %s is linked by no cmd/ or benchmark/ main", path))
			}
			continue // every export of an unlinked package is dead; the package line says so
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !seen[obj] {
				findings = append(findings, fmt.Sprintf("%s.%s is referenced by nothing but its own package's tests", path, name))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				m := named.Method(i)
				if m.Exported() && !seen[m] && !satisfies(named, m) {
					findings = append(findings, fmt.Sprintf("%s.%s.%s is referenced by nothing but its own package's tests", path, name, m.Name()))
				}
			}
		}
	}
	slices.Sort(findings)
	return findings, nil
}

// dependsOn reports whether module package from imports target, directly or
// not.
func dependsOn(pkgs map[string]*modPkg, from, target string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(path string) bool {
		if seen[path] || pkgs[path] == nil {
			return false
		}
		seen[path] = true
		return slices.Contains(pkgs[path].imports, target) || slices.ContainsFunc(pkgs[path].imports, walk)
	}
	return walk(from)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", errors.New("go.mod names no module")
}

// loadDirs parses every package directory under root, with the file split
// and build constraints go/build applies.
func loadDirs(fset *token.FileSet, root, module string) (map[string]*modPkg, error) {
	pkgs := map[string]*modPkg{}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		path := module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		p := &modPkg{name: bp.Name, imports: bp.Imports, testImports: slices.Concat(bp.TestImports, bp.XTestImports)}
		parse := func(names []string) ([]*ast.File, error) {
			var out []*ast.File
			for _, n := range names {
				f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				out = append(out, f)
			}
			return out, nil
		}
		if p.files, err = parse(bp.GoFiles); err != nil {
			return err
		}
		if p.tests, err = parse(bp.TestGoFiles); err != nil {
			return err
		}
		if p.xtests, err = parse(bp.XTestGoFiles); err != nil {
			return err
		}
		pkgs[path] = p
		return nil
	})
	return pkgs, err
}

// stdExports asks the go command, once, for the export data of every
// package outside the module that the module imports, and their
// dependencies. The files are in the build cache `go test` just filled.
func stdExports(root, module string, pkgs map[string]*modPkg) (map[string]string, error) {
	args := []string{"list", "-deps", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for _, p := range pkgs {
		for _, path := range slices.Concat(p.imports, p.testImports) {
			if path != module && !strings.HasPrefix(path, module+"/") && !slices.Contains(args, path) {
				args = append(args, path)
			}
		}
	}
	cmd := exec.Command("go", args...) // go test puts its own toolchain first on PATH
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}
