package encdns_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const module = "encdns"

// TestEveryInternalPackageIsReached: every package under internal/ is
// imported, directly or not, by the non-test code of some cmd/ binary. A
// package only tests, examples or benchmarks reach is surface no binary
// ships, and belongs deleted or wired in, not parked. testutil is
// test-only by design. Imports are read with build.Default, so
// reachability is judged for the host GOOS/GOARCH with no extra build tags.
func TestEveryInternalPackageIsReached(t *testing.T) {
	allowed := map[string]bool{module + "/internal/testutil": true}

	reached := map[string]bool{}
	var walk func(dir string)
	walk = func(dir string) {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, module+"/") || reached[imp] {
				continue
			}
			reached[imp] = true
			walk(filepath.FromSlash(strings.TrimPrefix(imp, module+"/")))
		}
	}
	mains, err := filepath.Glob(filepath.Join("cmd", "*"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/ binaries found (%v)", err)
	}
	for _, dir := range mains {
		walk(dir)
	}

	for _, path := range internalPackages(t) {
		if imp := module + "/" + filepath.ToSlash(path); !reached[imp] && !allowed[imp] {
			t.Errorf("%s: no cmd/ binary imports it", imp)
		}
	}
}

// TestEveryInternalDeclarationIsReached applies the package rule one level
// down: every top-level declaration under internal/ is used, directly or
// not, by the non-test code of something that ships. The roots are
//   - main of every cmd/* and examples/* program;
//   - the exported names of the root encdns package, the library surface;
//   - everything benchmark/layers declares: it composes the layers from
//     their constructors and lives in a module of its own, so what it
//     names must not vanish under it;
//   - the allow-listed code below, and what it uses.
//
// A method counts as reached when its receiver type is: dynamic dispatch
// cannot be followed, so dead methods on live types are not caught here. A
// helper only tests call belongs in a _test.go file. The code is
// type-checked from source for the host build context, like the package
// rule above.
func TestEveryInternalDeclarationIsReached(t *testing.T) {
	allowed := map[string]string{ // package directory or file → why it stays
		"internal/testutil":            "test-only by design: the helpers the test suites share",
		"internal/netsim/catchment.go": "the anycast catchment model, kept for the ROADMAP's resolver-cluster item",
	}

	g := newDeclGraph()
	var roots []*decl
	for _, pattern := range []string{"cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(filepath.FromSlash(pattern))
		if err != nil || len(dirs) == 0 {
			t.Fatalf("%s: no programs found (%v)", pattern, err)
		}
		for _, dir := range dirs {
			for _, d := range g.load(t, dir).decls {
				if d.name == "main" && d.recv == nil {
					roots = append(roots, d)
				}
			}
		}
	}
	for _, d := range g.load(t, ".").decls {
		if ast.IsExported(d.name) && d.recv == nil {
			roots = append(roots, d)
		}
	}
	roots = append(roots, g.load(t, filepath.Join("benchmark", "layers")).decls...)
	var judged []*decl
	for _, dir := range internalPackages(t) {
		p := g.load(t, dir)
		for _, d := range p.decls {
			if allowed[p.dir] != "" || allowed[d.file] != "" {
				roots = append(roots, d)
			} else {
				judged = append(judged, d)
			}
		}
	}

	reached := g.reach(roots)
	var dead []string
	for _, d := range judged {
		if !reached[d] {
			dead = append(dead, fmt.Sprintf("%s (%s:%d)", d.qualified(), d.file, g.fset.Position(d.pos).Line))
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s: no binary, example or the library surface reaches it", s)
	}
}

// internalPackages lists the directories under internal/ holding a
// package with non-test Go files for the host build context.
func internalPackages(t *testing.T) []string {
	var dirs []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		pkg, err := build.ImportDir(path, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil // no Go files at all, e.g. testdata
			}
			return err
		}
		if len(pkg.GoFiles)+len(pkg.CgoFiles) == 0 {
			return nil // tests only: nothing a binary could import
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// decl is one top-level declaration: a function, a method, or one spec of
// a type, var or const group.
type decl struct {
	pkg  string // package name
	name string
	recv *decl // a method's receiver type
	file string
	pos  token.Pos
	uses []*decl // declarations its syntax refers to
	meth []*decl // a type's methods
}

// qualified names d the way its callers write it: pkg.Name or
// pkg.Type.Method.
func (d *decl) qualified() string {
	name := d.name
	if d.recv != nil {
		name = d.recv.name + "." + name
	}
	return d.pkg + "." + name
}

type pkgDecls struct {
	dir   string // slash-separated, relative to the module root
	types *types.Package
	decls []*decl
}

// declGraph type-checks the module's packages from source, stdlib from
// export data, and links each declaration to the ones it uses.
type declGraph struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*pkgDecls // by import path
	byObj map[types.Object]*decl
}

func newDeclGraph() *declGraph {
	return &declGraph{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		pkgs:  map[string]*pkgDecls{},
		byObj: map[types.Object]*decl{},
	}
}

func (g *declGraph) load(t *testing.T, dir string) *pkgDecls {
	t.Helper()
	p, err := g.loadDir(filepath.ToSlash(dir))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Import resolves the module's own packages from source, the rest (the
// module is stdlib-only) through the default importer.
func (g *declGraph) Import(path string) (*types.Package, error) {
	if path == module || strings.HasPrefix(path, module+"/") {
		p, err := g.loadDir(strings.TrimPrefix(strings.TrimPrefix(path, module), "/"))
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return g.std.Import(path)
}

// loadDir type-checks the package in dir (slash-separated, relative to the
// module root) and links its declarations; each package loads once.
func (g *declGraph) loadDir(dir string) (*pkgDecls, error) {
	if dir == "" {
		dir = "."
	}
	path := module
	if dir != "." {
		path += "/" + dir
	}
	if p, ok := g.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(filepath.FromSlash(dir), 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(g.fset, filepath.Join(filepath.FromSlash(dir), name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: g}).Check(path, g.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &pkgDecls{dir: dir, types: pkg}
	g.pkgs[path] = p

	// Every object defined inside a declaration's syntax (its name,
	// fields, interface methods, parameters, locals) maps to it, so a use
	// of any of them is a use of the declaration.
	nodes := map[*decl]ast.Node{}
	add := func(name string, pos token.Pos, node ast.Node) {
		d := &decl{pkg: pkg.Name(), name: name, file: filepath.ToSlash(g.fset.Position(pos).Filename), pos: pos}
		p.decls = append(p.decls, d)
		nodes[d] = node
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Defs[id] != nil {
				g.byObj[origin(info.Defs[id])] = d
			}
			return true
		})
	}
	for _, f := range files {
		for _, fd := range f.Decls {
			switch fd := fd.(type) {
			case *ast.FuncDecl:
				add(fd.Name.Name, fd.Name.Pos(), fd)
			case *ast.GenDecl:
				for _, spec := range fd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, s.Name.Pos(), s)
					case *ast.ValueSpec:
						var names []string
						for _, n := range s.Names {
							names = append(names, n.Name)
						}
						add(strings.Join(names, ", "), s.Pos(), s)
					}
				}
			}
		}
	}
	for _, d := range p.decls {
		if fd, ok := nodes[d].(*ast.FuncDecl); ok && fd.Recv != nil {
			if d.recv = g.byObj[origin(info.Uses[recvIdent(fd.Recv.List[0].Type)])]; d.recv == nil {
				return nil, fmt.Errorf("%s: receiver of %s not found", path, d.name)
			}
			d.recv.meth = append(d.recv.meth, d)
		}
		ast.Inspect(nodes[d], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
				if u := g.byObj[origin(info.Uses[id])]; u != nil && u != d {
					d.uses = append(d.uses, u)
				}
			}
			return true
		})
	}
	return p, nil
}

// reach returns every declaration the roots lead to; init functions run
// whenever their package is linked, so they are roots too.
func (g *declGraph) reach(roots []*decl) map[*decl]bool {
	reached := map[*decl]bool{}
	queue := append([]*decl(nil), roots...)
	for _, p := range g.pkgs {
		for _, d := range p.decls {
			if d.name == "init" && d.recv == nil {
				queue = append(queue, d)
			}
		}
	}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		if reached[d] {
			continue
		}
		reached[d] = true
		queue = append(queue, d.uses...)
		queue = append(queue, d.meth...)
	}
	return reached
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvIdent is the type name in a method receiver: T, *T, T[P] or *T[P, Q].
func recvIdent(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}
