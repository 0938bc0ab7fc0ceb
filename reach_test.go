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
// A method is reached when reached code names it, or when its receiver
// type is reached and its name is a method of some interface type — one
// declared in the module or in a standard-library package it imports —
// since a call through an interface cannot be followed to its callee. A
// type the facade exposes (see facadeTypes) keeps all its methods, as a
// library user may call any of them.
//
// It also holds every exported field of an internal struct type to two
// rules. Some non-test code sets it, as a composite-literal key, an
// assignment or increment target, or by taking its address; an assignment
// directly in the body of an if whose condition reads the same field is a
// default fill and does not count, as it can only stand in for a value
// nobody set. A field only tests set is a mode no binary can switch on: a
// constant with its default, or gone. And some non-test code reads it: a
// use that is neither an =/:= target nor a composite-literal key. A field
// nothing reads is work whose result nobody looks at. Both hold for the
// types the facade exposes too: a library user may call any of their
// methods, but a field no binary sets is still a mode nothing runs.
// Exempt are tagged fields (codecs set and read them by reflection) and
// the types the allowed files declare; the five test seams listed below
// are exempt from the first rule only.
//
// A helper only tests call belongs in a _test.go file. The code is
// type-checked from source for the host build context, like the package
// rule above.
//
// dnsdig is a diagnostic tool: a mode only it switches on is a mode the
// served resolver and the measurement never run. So the rule runs a
// second time with dnsdig's main left out of the roots and its files out
// of the field writes. A field only dnsdig sets fails; so does a
// declaration only dnsdig reaches, unless the diagnostic map below names
// it with the reason it stays.
//
// Every key of the allowed, seams and diagnostic maps must still exempt
// something: a directory or file that exists, a field no non-test code
// sets, a declaration only dnsdig reaches. A stale key fails.
func TestEveryInternalDeclarationIsReached(t *testing.T) {
	allowed := map[string]string{ // package directory or file → why it stays
		"internal/testutil":            "test-only by design: the helpers the test suites share",
		"internal/netsim/catchment.go": "the anycast catchment model, kept for the ROADMAP's resolver-cluster item",
	}
	seams := map[string]string{ // pkg.Type.Field → why only tests set it
		"resolver.Recursive.RNGSeed":            "tests pin server selection; binaries seed from the clock",
		"cluster.Node.Now":                      "virtual-clock tests drive peer health",
		"experiment.ReachabilityConfig.Timeout": "tests shorten the probe bound for stranded dials",
		"transport.RetryPolicy.Sleep":           "tests skip or count the backoff sleeps",
		"netsim.Endpoint.Down":                  "tests take an endpoint down to drive outage detection",
	}
	diagnostic := map[string]string{ // pkg.Decl only dnsdig reaches → why it stays
		"cluster.Ring.Peers":  "dnsdig -ring, the cluster's debug view; ROADMAP item 4 decides the cluster",
		"cluster.Ring.Shares": "dnsdig -ring, the cluster's debug view; ROADMAP item 4 decides the cluster",
		"obs.NewTrace":        "dnsdig -trace span tree, dig +trace's analogue: kept",
		"obs.StartTrace":      "dnsdig -trace span tree, dig +trace's analogue: kept",
		"obs.Trace.Finish":    "dnsdig -trace span tree, dig +trace's analogue: kept",
	}
	const tool = "cmd/dnsdig"

	g := newDeclGraph()
	var roots, toolRoots []*decl
	for _, pattern := range []string{"cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(filepath.FromSlash(pattern))
		if err != nil || len(dirs) == 0 {
			t.Fatalf("%s: no programs found (%v)", pattern, err)
		}
		for _, dir := range dirs {
			for _, d := range g.load(t, dir).decls {
				switch {
				case d.name != "main" || d.recv != nil:
				case filepath.ToSlash(dir) == tool:
					toolRoots = append(toolRoots, d)
				default:
					roots = append(roots, d)
				}
			}
		}
	}
	facade := g.load(t, ".")
	for _, d := range facade.decls {
		if ast.IsExported(d.name) && d.recv == nil {
			roots = append(roots, d)
		}
	}
	roots = append(roots, g.load(t, filepath.Join("benchmark", "layers")).decls...)
	var judged []*decl
	used := map[string]bool{} // exemption keys that exempt something
	for _, dir := range internalPackages(t) {
		p := g.load(t, dir)
		used[p.dir] = true
		for _, d := range p.decls {
			used[d.file] = true
			if allowed[p.dir] != "" || allowed[d.file] != "" {
				roots = append(roots, d)
			} else {
				judged = append(judged, d)
			}
		}
	}

	exposed := g.facadeTypes(facade.types)
	served := g.reach(roots, exposed)
	reached := g.reach(append(roots, toolRoots...), exposed)
	written, read := g.fieldUses("")
	servedWritten, _ := g.fieldUses(tool)
	var dead []string
	for _, d := range judged {
		at := fmt.Sprintf("(%s:%d)", d.file, g.fset.Position(d.pos).Line)
		switch {
		case !reached[d]:
			dead = append(dead, fmt.Sprintf("%s %s: no binary, example or the library surface reaches it", d.qualified(), at))
		case served[d]:
		case diagnostic[d.qualified()] != "":
			used[d.qualified()] = true
		default:
			dead = append(dead, fmt.Sprintf("%s %s: only dnsdig reaches it", d.qualified(), at))
		}
		tn, ok := d.obj.(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			name := d.qualified() + "." + f.Name()
			if !f.Exported() || f.Embedded() || st.Tag(i) != "" {
				continue
			}
			at := fmt.Sprintf("(%s:%d)", d.file, g.fset.Position(f.Pos()).Line)
			switch {
			case servedWritten[f]:
			case written[f]:
				dead = append(dead, fmt.Sprintf("%s %s: only dnsdig sets it", name, at))
			case seams[name] != "":
				used[name] = true
			default:
				dead = append(dead, fmt.Sprintf("%s %s: no non-test code sets it", name, at))
			}
			if !read[f] {
				dead = append(dead, fmt.Sprintf("%s %s: no non-test code reads it", name, at))
			}
		}
	}
	for _, exempt := range []map[string]string{allowed, seams, diagnostic} {
		for key := range exempt {
			if !used[key] {
				dead = append(dead, fmt.Sprintf("%s: a stale exemption, it exempts nothing", key))
			}
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Error(s)
	}
}

// TestFieldRuleClauses pins both holes the field rule closes, on the
// fixture in testdata/fieldrule: a field whose only write is its own
// default fill is not set, and a field only ever assigned is not read.
func TestFieldRuleClauses(t *testing.T) {
	g := newDeclGraph()
	p := g.load(t, filepath.Join("testdata", "fieldrule"))
	written, read := g.fieldUses("")
	st := p.types.Scope().Lookup("Config").Type().Underlying().(*types.Struct)
	for i, want := range []struct {
		name          string
		written, read bool
	}{
		{"Filled", false, true},
		{"WriteOnly", true, false},
		{"Used", true, true},
	} {
		f := st.Field(i)
		if f.Name() != want.name {
			t.Fatalf("field %d is %s, want %s", i, f.Name(), want.name)
		}
		if written[f] != want.written || read[f] != want.read {
			t.Errorf("Config.%s: written %v, read %v; want %v, %v", f.Name(), written[f], read[f], want.written, want.read)
		}
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
	obj  types.Object // a type's or function's object; nil for var and const specs
	recv *decl        // a method's receiver type
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
	info  *types.Info
	files []*ast.File
	decls []*decl
}

// declGraph type-checks the module's packages from source, stdlib from
// export data, and links each declaration to the ones it uses.
type declGraph struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*pkgDecls // by import path
	byObj map[types.Object]*decl
	// dispatched holds every method name an interface call may reach: the
	// methods of the module's interface types and of the exported ones of
	// every standard-library package the module imports, directly or not.
	dispatched map[string]bool
	stdSeen    map[*types.Package]bool
}

func newDeclGraph() *declGraph {
	return &declGraph{
		fset:    token.NewFileSet(),
		std:     importer.Default(),
		pkgs:    map[string]*pkgDecls{},
		byObj:   map[types.Object]*decl{},
		stdSeen: map[*types.Package]bool{},
		// error, and what errors.Is, As and Unwrap assert on through
		// interfaces no package exports.
		dispatched: map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true},
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
	pkg, err := g.std.Import(path)
	if err == nil {
		g.addStd(pkg)
	}
	return pkg, err
}

// addStd adds the methods of pkg's exported interface types, and those of
// the packages it imports, to the dispatched names.
func (g *declGraph) addStd(pkg *types.Package) {
	if g.stdSeen[pkg] {
		return
	}
	g.stdSeen[pkg] = true
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					g.dispatched[it.Method(i).Name()] = true
				}
			}
		}
	}
	for _, imp := range pkg.Imports() {
		g.addStd(imp)
	}
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
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: g}).Check(path, g.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &pkgDecls{dir: dir, types: pkg, info: info, files: files}
	g.pkgs[path] = p

	// Every object defined inside a declaration's syntax (its name,
	// fields, interface methods, parameters, locals) maps to it, so a use
	// of any of them is a use of the declaration.
	nodes := map[*decl]ast.Node{}
	add := func(name string, obj types.Object, pos token.Pos, node ast.Node) {
		d := &decl{pkg: pkg.Name(), name: name, obj: obj, file: filepath.ToSlash(g.fset.Position(pos).Filename), pos: pos}
		p.decls = append(p.decls, d)
		nodes[d] = node
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if info.Defs[n] != nil {
					g.byObj[origin(info.Defs[n])] = d
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						g.dispatched[id.Name] = true
					}
				}
			}
			return true
		})
	}
	for _, f := range files {
		for _, fd := range f.Decls {
			switch fd := fd.(type) {
			case *ast.FuncDecl:
				add(fd.Name.Name, info.Defs[fd.Name], fd.Name.Pos(), fd)
			case *ast.GenDecl:
				for _, spec := range fd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, info.Defs[s.Name], s.Name.Pos(), s)
					case *ast.ValueSpec:
						var names []string
						for _, n := range s.Names {
							names = append(names, n.Name)
						}
						add(strings.Join(names, ", "), nil, s.Pos(), s)
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
// whenever their package is linked, so they are roots too. A reached type
// brings along the methods an interface call may reach, or all of them if
// it is exposed.
func (g *declGraph) reach(roots []*decl, exposed map[*decl]bool) map[*decl]bool {
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
		for _, m := range d.meth {
			if exposed[d] || g.dispatched[m.name] {
				queue = append(queue, m)
			}
		}
	}
	return reached
}

// facadeTypes returns the module's named types a library user can reach
// through root's exported API: the types its exported names have, and,
// from each such type on, the types of its exported fields and of its
// exported methods' signatures.
func (g *declGraph) facadeTypes(root *types.Package) map[*decl]bool {
	exposed := map[*decl]bool{}
	seen := map[types.Type]bool{}
	var visit func(types.Type)
	visitTuple := func(tup *types.Tuple) {
		for i := 0; i < tup.Len(); i++ {
			visit(tup.At(i).Type())
		}
	}
	visit = func(t types.Type) {
		t = types.Unalias(t)
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			d := g.byObj[t.Origin().Obj()]
			if d == nil {
				return // not the module's
			}
			exposed[d] = true
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					visit(m.Type())
				}
			}
			visit(t.Underlying())
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			visitTuple(t.Params())
			visitTuple(t.Results())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					visit(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					visit(m.Type())
				}
			}
		}
	}
	for _, name := range root.Scope().Names() {
		if obj := root.Scope().Lookup(name); obj.Exported() {
			visit(obj.Type())
		}
	}
	return exposed
}

// fieldUses returns the struct fields the module's non-test code, less
// the package in directory skip, sets and those it reads. A set is a
// composite-literal key (or position), the target of an assignment or
// increment, or an operand of &, but not an assignment placed directly in
// the body of an if whose condition reads the same field. A read is any
// other use: one that is neither an =/:= target nor a composite-literal
// key.
func (g *declGraph) fieldUses(skip string) (written, read map[*types.Var]bool) {
	written, read = map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, p := range g.pkgs {
		if p.dir == skip {
			continue
		}
		fieldOf := func(id *ast.Ident) *types.Var {
			if f, ok := p.info.Uses[id].(*types.Var); ok && f.IsField() {
				return f.Origin()
			}
			return nil
		}
		selected := func(x ast.Expr) (*types.Var, *ast.Ident) {
			if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
				return fieldOf(sel.Sel), sel.Sel
			}
			return nil, nil
		}
		unread := map[*ast.Ident]bool{} // =/:= targets and composite-literal keys
		fills := map[ast.Expr]bool{}    // assignments under an if that reads their field
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					tested := map[*types.Var]bool{}
					ast.Inspect(n.Cond, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							tested[fieldOf(id)] = true // nil for a non-field: never looked up
						}
						return true
					})
					for _, s := range n.Body.List {
						if as, ok := s.(*ast.AssignStmt); ok {
							for _, x := range as.Lhs {
								if f, _ := selected(x); f != nil && tested[f] {
									fills[x] = true
								}
							}
						}
					}
				case *ast.CompositeLit:
					st, ok := p.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							key := kv.Key.(*ast.Ident)
							unread[key] = true
							if f := fieldOf(key); f != nil {
								written[f] = true
							}
						} else {
							written[st.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, x := range n.Lhs {
						f, sel := selected(x)
						if f == nil {
							continue
						}
						if !fills[x] {
							written[f] = true
						}
						if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
							unread[sel] = true
						}
					}
				case *ast.IncDecStmt:
					if f, _ := selected(n.X); f != nil {
						written[f] = true
					}
				case *ast.UnaryExpr:
					if f, _ := selected(n.X); f != nil && n.Op == token.AND {
						written[f] = true
					}
				case *ast.Ident:
					if f := fieldOf(n); f != nil && !unread[n] {
						read[f] = true
					}
				}
				return true
			})
		}
	}
	return written, read
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
