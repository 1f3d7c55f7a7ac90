package rtdbs_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow names the entries TestExportedSurface tolerates in its three
// lists, keyed as the lists print them, each with the reason it stays.
var surfaceAllow = map[string]string{
	"internal/disk.fcfs":                "the zero Discipline, the paper's queue order every program runs; the constant names it",
	"internal/metrics.Run.LatenessSum":  runDigested,
	"internal/metrics.Run.Missed":       runDigested,
	"internal/metrics.Run.ResponseSum":  runDigested,
	"internal/metrics.Run.TardinessSum": runDigested,
}

const runDigested = "the recorded equivalence digests hash a Run's exported fields by reflection"

// TestExportedSurface holds "exported" to mean "used by another package"
// for everything under internal/, where no identifier has an audience
// outside the two modules, and "shipped" to mean "run by a program". It
// type-checks the root module and bench/ and fails on (a) an exported
// identifier no other package uses, (b) an unexported one nothing uses and
// (c) a non-test declaration of either module that no program reaches,
// unless surfaceAllow names it. The rules are pinned by
// TestExportedSurfaceRules. With -v it also prints the count of exported
// identifiers the size record tracks.
func TestExportedSurface(t *testing.T) {
	prog, err := treeProgram()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exported identifiers outside bench/ (declarations, methods, fields): %d", prog.exportedCount())
	unused, dead := prog.surface("repro/internal/")
	seen := map[string]bool{}
	for _, l := range []struct {
		name    string
		entries []surfaceEntry
	}{
		{"(a) exported, used only inside their own package", unused},
		{"(b) unexported, used nowhere", dead},
		{"(c) declared outside tests, reached by no program", prog.unreached("repro")},
	} {
		t.Logf("%s: %d", l.name, len(l.entries))
		for _, e := range l.entries {
			seen[e.key] = true
			if why, ok := surfaceAllow[e.key]; ok {
				t.Logf("  %s (%s) allowed: %s", e.key, e.pos, why)
			} else {
				t.Errorf("  %s (%s)", e.key, e.pos)
			}
		}
	}
	for key := range surfaceAllow {
		if !seen[key] {
			t.Errorf("allowlist entry %s matches nothing; delete it", key)
		}
	}
}

// TestExportedSurfaceRules runs the scan on the fixture module in
// testdata/surface, which has one case per rule: deleting a rule from the
// scan puts its case in one of the lists.
func TestExportedSurfaceRules(t *testing.T) {
	prog, err := loadProgram(filepath.Join("testdata", "surface"), filepath.Join("testdata", "surface", "ext"))
	if err != nil {
		t.Fatal(err)
	}
	unused, dead := prog.surface("fixture/internal/")
	if got, want := keys(unused), []string{"internal/a.InPackageOnly"}; !reflect.DeepEqual(got, want) {
		t.Errorf("list (a) = %v, want %v", got, want)
	}
	if got, want := keys(dead), []string{"internal/a.deadFunc"}; !reflect.DeepEqual(got, want) {
		t.Errorf("list (b) = %v, want %v", got, want)
	}
	if got, want := keys(prog.unreached("fixture")), []string{"internal/a.Thing.onlyTested", "internal/a.deadFunc", "internal/a.ownTestOnly"}; !reflect.DeepEqual(got, want) {
		t.Errorf("list (c) = %v, want %v", got, want)
	}
}

func keys(es []surfaceEntry) []string {
	var ks []string
	for _, e := range es {
		ks = append(ks, e.key)
	}
	return ks
}

// listedPackage is what the scan reads of `go list -json`.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	ForTest    string
}

// checkedPackage is one type-checked package: a package alone, the same
// package with its _test.go files, or an external test package.
type checkedPackage struct {
	path  string // import path; "_test" marks an external test package
	types *types.Package
	info  *types.Info
	files []*ast.File
}

// program is every package of some modules, type-checked once per
// variant `go test` compiles. Each file is parsed once, so a declaration
// has one position however many variants check it, and the scan keys
// objects by that position.
type program struct {
	fset     *token.FileSet
	pkgs     []*checkedPackage
	modPaths map[string]bool // import paths declared by the modules
	sized    []*ast.File     // non-test files of the first module
}

// loadProgram lists the packages of the modules rooted at dirs with their
// tests and dependencies and type-checks them in import order. The
// standard library is checked from source.
func loadProgram(dirs ...string) (*program, error) {
	// With cgo off, a package with cgo files is checked from its pure-Go
	// files instead of running the C toolchain.
	build.Default.CgoEnabled = false
	p := &program{fset: token.NewFileSet(), modPaths: map[string]bool{}}
	std := importer.ForCompiler(p.fset, "source", nil)
	byID := map[string]*types.Package{}
	parsed := map[string]*ast.File{}
	for i, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-test", "-json=ImportPath,Dir,GoFiles,ImportMap,Standard,ForTest", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var lp listedPackage
			if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, err
			}
			if lp.Standard || strings.HasSuffix(lp.ImportPath, ".test") || byID[lp.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range lp.GoFiles {
				name = filepath.Join(lp.Dir, name)
				f := parsed[name]
				if f == nil {
					if f, err = parser.ParseFile(p.fset, name, nil, parser.SkipObjectResolution); err != nil {
						return nil, err
					}
					parsed[name] = f
					if i == 0 && lp.ForTest == "" && !strings.HasSuffix(name, "_test.go") {
						p.sized = append(p.sized, f)
					}
				}
				files = append(files, f)
			}
			path, _, _ := strings.Cut(lp.ImportPath, " ")
			conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
				if id, ok := lp.ImportMap[path]; ok {
					path = id
				}
				if pkg := byID[path]; pkg != nil {
					return pkg, nil
				}
				return std.Import(path)
			})}
			info := &types.Info{
				Types: map[ast.Expr]types.TypeAndValue{},
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
			}
			pkg, err := conf.Check(path, p.fset, files, info)
			if err != nil {
				return nil, fmt.Errorf("type-checking %s: %w", lp.ImportPath, err)
			}
			byID[lp.ImportPath] = pkg
			p.modPaths[strings.TrimSuffix(path, "_test")] = true
			p.pkgs = append(p.pkgs, &checkedPackage{path: path, types: pkg, info: info, files: files})
		}
	}
	return p, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportedCount counts the exported names of declarations, methods, fields
// and parameters in the first module's non-test files.
func (p *program) exportedCount() int {
	n := 0
	for _, f := range p.sized {
		ast.Inspect(f, func(x ast.Node) bool {
			var ids []*ast.Ident
			switch x := x.(type) {
			case *ast.FuncDecl:
				ids = []*ast.Ident{x.Name}
			case *ast.TypeSpec:
				ids = []*ast.Ident{x.Name}
			case *ast.ValueSpec:
				ids = x.Names
			case *ast.Field:
				ids = x.Names
			}
			for _, id := range ids {
				if id.IsExported() {
					n++
				}
			}
			return true
		})
	}
	return n
}

// surfaceEntry is one identifier a list reports.
type surfaceEntry struct {
	key string // "internal/pkg.Name", "internal/pkg.Type.Member"
	pos string // file:line
}

// declared is an identifier the scan judges: a package-level declaration,
// a method or field of a package-level type, or an interface's method.
type declared struct {
	obj    types.Object
	key    string
	method bool
	tagged bool // a field of a struct with a json: tag
	inTest bool
}

// surface returns, for the packages whose path starts with prefix, (a) the
// exported identifiers no other package uses and (b) the unexported ones
// nothing uses. A use is a reference from any package of the program,
// tests included; a package's external test counts as the package itself.
// Neither list holds a method whose receiver type implements a named
// interface with a method of that name, and (a) holds no field of a
// json-tagged struct. An interface's methods are used outside once a type
// of another package implements it, and a type is used outside once an
// exported signature or field used outside reaches it.
func (p *program) surface(prefix string) (unused, dead []surfaceEntry) {
	decls := map[token.Pos]*declared{}
	for _, cp := range p.pkgs {
		if strings.HasPrefix(cp.path, prefix) {
			p.collect(cp.types, decls)
		}
	}
	used := map[token.Pos]bool{}
	outside := map[token.Pos]bool{}
	use := func(from string, obj types.Object) {
		pos := origin(obj).Pos()
		if decls[pos] == nil {
			return
		}
		used[pos] = true
		if own(from) != own(obj.Pkg().Path()) {
			outside[pos] = true
		}
	}
	for _, cp := range p.pkgs {
		for _, obj := range cp.info.Uses {
			if obj.Pkg() != nil {
				use(cp.path, obj)
			}
		}
		// A struct literal without keys sets every field.
		for _, f := range cp.files {
			ast.Inspect(f, func(x ast.Node) bool {
				lit, ok := x.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := cp.info.TypeOf(lit).Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						use(cp.path, st.Field(i))
					}
				}
				return true
			})
		}
	}
	satisfied := p.implementations(decls, outside)
	reach(decls, outside)
	for _, d := range decls {
		pos := d.obj.Pos()
		switch {
		case d.method && satisfied[pos]:
		case d.obj.Exported() && !d.inTest && !outside[pos] && !d.tagged:
			unused = append(unused, p.entry(d))
		case !d.obj.Exported() && !used[pos]:
			dead = append(dead, p.entry(d))
		}
	}
	sortEntries(unused)
	sortEntries(dead)
	return unused, dead
}

func (p *program) entry(d *declared) surfaceEntry {
	pos := p.fset.Position(d.obj.Pos())
	return surfaceEntry{key: d.key, pos: fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)}
}

func sortEntries(es []surfaceEntry) {
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
}

// own maps an external test package's path to its package's.
func own(path string) string { return strings.TrimSuffix(path, "_test") }

// origin maps a member of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// collect adds pkg's judged identifiers to decls.
func (p *program) collect(pkg *types.Package, decls map[token.Pos]*declared) {
	short := pkg.Path()[strings.Index(pkg.Path(), "internal/"):]
	add := func(obj types.Object, key string, method, tagged bool) {
		if obj.Name() == "_" || decls[obj.Pos()] != nil {
			return
		}
		inTest := strings.HasSuffix(p.fset.Position(obj.Pos()).Filename, "_test.go")
		decls[obj.Pos()] = &declared{obj: obj, key: key, method: method, tagged: tagged, inTest: inTest}
	}
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if name == "init" || name == "main" {
			continue
		}
		add(obj, short+"."+name, false, false)
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			add(m, short+"."+name+"."+m.Name(), true, false)
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			tagged := false
			for i := 0; i < u.NumFields(); i++ {
				if _, ok := reflect.StructTag(u.Tag(i)).Lookup("json"); ok {
					tagged = true
				}
			}
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); !f.Embedded() {
					add(f, short+"."+name+"."+f.Name(), false, tagged)
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				m := u.ExplicitMethod(i)
				add(m, short+"."+name+"."+m.Name(), true, false)
			}
		}
	}
}

// implementations returns the methods of the program's named types that
// implement a method of a named interface declared in the program or in
// any package it imports. It marks outside-used every method of a judged
// interface that a type of another package implements.
func (p *program) implementations(decls map[token.Pos]*declared, outside map[token.Pos]bool) map[token.Pos]bool {
	satisfied := map[token.Pos]bool{}
	implemented := map[token.Pos]bool{} // judged interfaces a type of another package implements
	for _, cp := range p.pkgs {
		// Within one checked package every import is one types.Package, so
		// types and interfaces from its closure compare correctly.
		var ifaces []*types.TypeName
		var named []*types.TypeName
		seen := map[*types.Package]bool{}
		var visit func(pkg *types.Package)
		visit = func(pkg *types.Package) {
			if seen[pkg] {
				return
			}
			seen[pkg] = true
			for _, name := range pkg.Scope().Names() {
				tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				n, ok := tn.Type().(*types.Named)
				if !ok || n.TypeParams().Len() > 0 {
					continue
				}
				if types.IsInterface(n) {
					ifaces = append(ifaces, tn)
				} else if p.modPaths[own(pkg.Path())] {
					named = append(named, tn)
				}
			}
			for _, imp := range pkg.Imports() {
				visit(imp)
			}
		}
		visit(cp.types)
		ifaces = append(ifaces, types.Universe.Lookup("error").(*types.TypeName))
		byMethod := map[string][]*types.Interface{}
		for _, tn := range ifaces {
			iface := tn.Type().Underlying().(*types.Interface)
			for i := 0; i < iface.NumMethods(); i++ {
				byMethod[iface.Method(i).Name()] = append(byMethod[iface.Method(i).Name()], iface)
			}
		}
		for _, tn := range named {
			ptr := types.NewPointer(tn.Type())
			n := tn.Type().(*types.Named)
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				if satisfied[m.Pos()] {
					continue
				}
				for _, iface := range byMethod[m.Name()] {
					if types.Implements(ptr, iface) {
						satisfied[m.Pos()] = true
						break
					}
				}
			}
		}
		for _, itn := range ifaces {
			if decls[itn.Pos()] == nil || implemented[itn.Pos()] {
				continue
			}
			iface := itn.Type().Underlying().(*types.Interface)
			for _, tn := range named {
				if own(tn.Pkg().Path()) != own(itn.Pkg().Path()) && types.Implements(types.NewPointer(tn.Type()), iface) {
					implemented[itn.Pos()] = true
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						outside[iface.ExplicitMethod(i).Pos()] = true
					}
					break
				}
			}
		}
	}
	return satisfied
}

// reach marks outside-used every judged type that the type of an
// outside-used declaration names, until nothing changes: a value of it
// reaches another package.
func reach(decls map[token.Pos]*declared, outside map[token.Pos]bool) {
	for changed := true; changed; {
		changed = false
		for pos, d := range decls {
			if !outside[pos] {
				continue
			}
			if _, ok := d.obj.(*types.TypeName); ok {
				continue
			}
			walkType(d.obj.Type(), map[types.Type]bool{}, func(tn *types.TypeName) {
				if decls[tn.Pos()] != nil && !outside[tn.Pos()] && own(tn.Pkg().Path()) == own(d.obj.Pkg().Path()) {
					outside[tn.Pos()] = true
					changed = true
				}
			})
		}
	}
}

// walkType calls fn for every named type t mentions, without entering a
// named type's definition.
func walkType(t types.Type, seen map[types.Type]bool, fn func(*types.TypeName)) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		fn(t.Origin().Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			walkType(t.TypeArgs().At(i), seen, fn)
		}
	case *types.Pointer:
		walkType(t.Elem(), seen, fn)
	case *types.Slice:
		walkType(t.Elem(), seen, fn)
	case *types.Array:
		walkType(t.Elem(), seen, fn)
	case *types.Chan:
		walkType(t.Elem(), seen, fn)
	case *types.Map:
		walkType(t.Key(), seen, fn)
		walkType(t.Elem(), seen, fn)
	case *types.Signature:
		if t.Recv() != nil {
			walkType(t.Recv().Type(), seen, fn)
		}
		walkType(t.Params(), seen, fn)
		walkType(t.Results(), seen, fn)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			walkType(t.At(i).Type(), seen, fn)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			walkType(t.Field(i).Type(), seen, fn)
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			walkType(t.Method(i).Type(), seen, fn)
		}
	}
}

// stdCalled names the standard-library interfaces whose methods the
// standard library calls on a program's values, by package; no names means
// every interface of the package. A method that implements one is reached
// with its type.
var stdCalled = map[string][]string{
	"fmt":            {"Stringer"},
	"encoding":       {"TextMarshaler", "TextUnmarshaler"},
	"encoding/json":  {"Marshaler", "Unmarshaler"},
	"sort":           {"Interface"},
	"container/heap": {"Interface"},
	"io":             nil,
	"net":            nil,
	"net/http":       {"Handler"},
}

// unreached returns list (c): the non-test declarations of the program's
// modules (package-level funcs, vars, consts and types, and methods) that
// no program reaches. The roots are main and init of every main package,
// every package-level var initializer, every exported declaration of the
// package root (the library's facade) and every declaration a test of
// another package uses (a seam). A reached declaration reaches every
// declaration its source names. A method of a reached type is reached when
// it is named, when reached code calls an interface method of its name, or
// when it implements one of stdCalled's interfaces (or error).
func (p *program) unreached(root string) []surfaceEntry {
	type decl struct {
		obj  types.Object
		key  string
		node ast.Node
		info *types.Info
	}
	type source struct {
		node ast.Node
		info *types.Info
	}
	decls := map[token.Pos]*decl{}
	var queue []source
	reached := map[token.Pos]bool{}
	reach := func(pos token.Pos) {
		if d := decls[pos]; d != nil && !reached[pos] {
			reached[pos] = true
			queue = append(queue, source{d.node, d.info})
		}
	}
	var roots, seams []token.Pos
	seen := map[*ast.File]bool{}
	for _, cp := range p.pkgs {
		short := cp.path
		if i := strings.Index(short, "/"); i >= 0 {
			short = short[i+1:]
		}
		for _, f := range cp.files {
			if seen[f] {
				continue
			}
			seen[f] = true
			if strings.HasSuffix(p.fset.Position(f.Pos()).Filename, "_test.go") {
				// A seam: a declaration of another package this test uses.
				ast.Inspect(f, func(x ast.Node) bool {
					if id, ok := x.(*ast.Ident); ok {
						if obj := cp.info.Uses[id]; obj != nil && obj.Pkg() != nil && own(obj.Pkg().Path()) != own(cp.path) {
							seams = append(seams, origin(obj).Pos())
						}
					}
					return true
				})
				continue
			}
			add := func(id *ast.Ident, key string, node ast.Node) {
				if id.Name == "_" {
					return
				}
				obj := cp.info.Defs[id]
				decls[obj.Pos()] = &decl{obj: obj, key: key, node: node, info: cp.info}
				if cp.path == root && id.IsExported() {
					roots = append(roots, obj.Pos())
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					switch {
					case d.Recv == nil && cp.types.Name() == "main" && (d.Name.Name == "main" || d.Name.Name == "init"):
						queue = append(queue, source{d, cp.info})
					case d.Recv == nil:
						add(d.Name, short+"."+d.Name.Name, d)
					default:
						recv := cp.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
						if ptr, ok := recv.(*types.Pointer); ok {
							recv = ptr.Elem()
						}
						add(d.Name, short+"."+recv.(*types.Named).Obj().Name()+"."+d.Name.Name, d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, short+"."+spec.Name.Name, spec)
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(id, short+"."+id.Name, spec)
							}
							if d.Tok == token.VAR {
								for _, v := range spec.Values {
									queue = append(queue, source{v, cp.info})
								}
							}
						}
					}
				}
			}
		}
	}
	for _, pos := range append(roots, seams...) {
		reach(pos)
	}

	var called []*types.Interface
	for path, names := range stdCalled {
		for _, pkg := range p.imported(path) {
			for _, name := range pkg.Scope().Names() {
				tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if ok && types.IsInterface(tn.Type()) && (names == nil || slices.Contains(names, name)) {
					called = append(called, tn.Type().Underlying().(*types.Interface))
				}
			}
		}
	}
	called = append(called, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	// receiver returns the declaration of a method's receiver type, and
	// whether the method implements one of the called interfaces.
	receiver := func(fn *types.Func) (token.Pos, bool) {
		named := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := named.(*types.Pointer); ok {
			named = ptr.Elem()
		}
		ptr := types.NewPointer(named)
		for _, iface := range called {
			if m, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name()); m != nil && types.Implements(ptr, iface) {
				return named.(*types.Named).Origin().Obj().Pos(), true
			}
		}
		return named.(*types.Named).Origin().Obj().Pos(), false
	}

	ifaceCalls := map[string]bool{}
	for len(queue) > 0 {
		for len(queue) > 0 {
			src := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(src.node, func(x ast.Node) bool {
				id, ok := x.(*ast.Ident)
				if !ok {
					return true
				}
				obj := src.info.Uses[id]
				if obj == nil {
					return true
				}
				if fn, ok := obj.(*types.Func); ok {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceCalls[fn.Name()] = true
					}
				}
				reach(origin(obj).Pos())
				return true
			})
		}
		for pos, d := range decls {
			fn, ok := d.obj.(*types.Func)
			if !ok || reached[pos] || fn.Type().(*types.Signature).Recv() == nil {
				continue
			}
			if typ, std := receiver(fn); reached[typ] && (ifaceCalls[fn.Name()] || std) {
				reach(pos)
			}
		}
	}

	var out []surfaceEntry
	for pos, d := range decls {
		if !reached[pos] {
			out = append(out, p.entry(&declared{obj: d.obj, key: d.key}))
		}
	}
	sortEntries(out)
	return out
}

// imported returns the checked program's imports of the standard package
// path: one per importer instance, usually one.
func (p *program) imported(path string) []*types.Package {
	var out []*types.Package
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if pkg.Path() == path {
			out = append(out, pkg)
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, cp := range p.pkgs {
		visit(cp.types)
	}
	return out
}
