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
// internal/ is linked by a main (or is a *test helper), and every top-level
// func, method and type under internal/ is reached from a root through
// non-test code. Tests are not readers: a reference that tests compare
// against lives in its package's _test.go files, and a helper several
// packages' tests share lives in a *test helper package. The roots are the
// mains of cmd/, examples/ and benchmark; the init funcs and package-level
// var initializers of the packages they link; the exported declarations of
// the root package, with the exported methods of the types it exports or
// aliases; and every declaration of a *test helper package. A method of a
// reached type that satisfies an interface is reached. Constants are never
// flagged, because iota values are used by value. The module's non-test
// files are type-checked from source; the standard library comes from the
// build cache's export data.
func TestReachability(t *testing.T) {
	findings, err := reachability(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestReachabilityCatchesPlanted runs the rule over a small module and
// requires exactly the planted dead code to be named: an unlinked package,
// a func only its own package's tests call, a func only another package's
// tests call, and a helper only a dead func calls. An interface method of a
// live type, an iota constant used by value and a func a *test helper calls
// are live.
func TestReachabilityCatchesPlanted(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":             "module planted\n\ngo 1.22\n",
		"cmd/x/main.go":      "package main\n\nimport \"planted/internal/live\"\n\nfunc main() { live.Used() }\n",
		"cmd/x/main_test.go": "package main\n\nimport (\n\t\"testing\"\n\n\t\"planted/internal/live\"\n)\n\nfunc TestOther(t *testing.T) { live.OnlyOtherTests() }\n",
		"internal/live/live.go": `package live

import "fmt"

type T struct{}

func (T) String() string { return "" }

type kind int

const (
	kindZero kind = iota
	kindOne
)

func Used() {
	var k kind
	fmt.Println(T{}, k == kindOne)
}

func Dead() { helper() }

func helper() {}

func OnlyOtherTests() {}

func ForHelpers() {}
`,
		"internal/live/x_test.go":  "package live\n\nimport \"testing\"\n\nfunc TestDead(t *testing.T) { Dead() }\n",
		"internal/livetest/h.go":   "package livetest\n\nimport \"planted/internal/live\"\n\nfunc Helper() { live.ForHelpers() }\n",
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
		"package planted/internal/island is linked by no main",
		"planted/internal/live.Dead is reached from no root",
		"planted/internal/live.OnlyOtherTests is reached from no root",
		"planted/internal/live.helper is reached from no root",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// modPkg is one directory of the module: its non-test files, their imports,
// and their types.
type modPkg struct {
	name    string
	files   []*ast.File
	imports []string
	types   *types.Package
	info    *types.Info
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
	var checkErr error
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		p, ok := pkgs[path]
		if !ok {
			return gc.Import(path)
		}
		if p.types == nil {
			p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
			conf := types.Config{Importer: imp, Error: func(err error) {
				if checkErr == nil {
					checkErr = err
				}
			}}
			p.types, _ = conf.Check(path, fset, p.files, p.info)
		}
		return p.types, nil
	}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
		imp(path)
	}
	slices.Sort(paths)
	if checkErr != nil {
		return nil, checkErr
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
		if pkgs[path].name == "main" && (strings.HasPrefix(path, module+"/cmd/") || strings.HasPrefix(path, module+"/examples/") || path == module+"/benchmark") {
			link(path)
		}
	}

	// edges maps each declared object to the objects its declaration names;
	// ifaces collects the interface types written in non-test code.
	edges := map[types.Object][]types.Object{}
	var ifaces []*types.Interface
	reached := map[types.Object]bool{}
	var queue []types.Object
	reach := func(objs ...types.Object) {
		for _, obj := range objs {
			if !reached[obj] {
				reached[obj] = true
				queue = append(queue, obj)
			}
		}
	}
	for _, path := range paths {
		p := pkgs[path]
		helper := strings.HasSuffix(p.name, "test")
		names := func(n ast.Node) []types.Object {
			var out []types.Object
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if obj := p.info.Uses[n]; obj != nil {
						out = append(out, origin(obj))
					}
				case *ast.InterfaceType:
					if it, ok := p.info.TypeOf(n).(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
				return true
			})
			return out
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					obj := p.info.Defs[fd.Name]
					edges[obj] = names(fd)
					entry := fd.Name.Name == "init" || fd.Name.Name == "main" && p.name == "main"
					if helper || fd.Recv == nil && (entry && linked[path] || path == module && obj.Exported()) {
						reach(obj)
					}
					continue
				}
				gd := d.(*ast.GenDecl)
				for _, s := range gd.Specs {
					var ids []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						ids = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						ids = s.Names
					default:
						continue
					}
					refs := names(s)
					if helper || gd.Tok == token.VAR && linked[path] {
						reach(refs...)
					}
					for _, id := range ids {
						obj := p.info.Defs[id]
						if obj == nil {
							continue
						}
						edges[obj] = refs
						if helper || path == module && obj.Exported() {
							reach(obj)
						}
					}
				}
			}
		}
	}
	// The root package's exported types are public API, methods included.
	if p, ok := pkgs[module]; ok {
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					ms := types.NewMethodSet(types.NewPointer(named))
					for i := range ms.Len() {
						if m := ms.At(i).Obj(); m.Exported() {
							reach(origin(m))
						}
					}
				}
			}
		}
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

	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		reach(edges[obj]...)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := range named.NumMethods() {
					if m := named.Method(i); satisfies(named, m) {
						reach(m)
					}
				}
			}
		}
	}

	var findings []string
	for _, path := range paths {
		p := pkgs[path]
		if !strings.HasPrefix(path, module+"/internal/") || strings.HasSuffix(p.name, "test") {
			continue
		}
		if !linked[path] {
			findings = append(findings, fmt.Sprintf("package %s is linked by no main", path))
			continue // every declaration of an unlinked package is dead; the package line says so
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			switch obj.(type) {
			case *types.Func, *types.TypeName:
			default:
				continue // constants by rule; a variable's initializer is a root
			}
			if !reached[obj] {
				findings = append(findings, fmt.Sprintf("%s.%s is reached from no root", path, name))
				continue // so are its methods
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
				if m := named.Method(i); !reached[m] {
					findings = append(findings, fmt.Sprintf("%s.%s.%s is reached from no root", path, name, m.Name()))
				}
			}
		}
	}
	slices.Sort(findings)
	return findings, nil
}

// origin maps an instantiated generic func, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
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
		p := &modPkg{name: bp.Name, imports: bp.Imports}
		for _, n := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
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
		for _, path := range p.imports {
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
