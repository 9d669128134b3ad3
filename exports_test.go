package h3cdn_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyExports lists the exported identifiers under internal/ that no
// non-test file of the module uses, each with the reason a test must reach
// that far in. It is the one list of such names: DESIGN.md's "Kept, each
// for a reason" paragraph points here. TestInternalExportsHaveCallers fails
// on an exported name that has no caller and no entry here, and on an
// entry that names nothing or names something that now has a caller.
//
// Keys are the package path below internal/, then the receiver type for a
// method, then the name.
var testOnlyExports = map[string]string{
	"simnet.Scheduler.At":       "tests in other packages schedule closures at absolute virtual times with it",
	"simnet.Scheduler.Pending":  "tests in other packages catch leaked timers with it, and the heap test checks it against its model",
	"simnet.Scheduler.RunUntil": "tests in other packages run a scenario to a virtual deadline and then inspect it",
	"simnet.Network.SetFilter":  "the tests' fault seam (drop or corrupt chosen packets) until the link pipeline has a drop stage",
	"simnet.Network.Host":       "core's epoch-pool test looks up each epoch's hosts to prove no pool keeps one alive",
	"httpsim.ClientConn.Abort":  "cdn's stampede test resets a client connection mid-request; the production path to the same teardown is the watchdog",
	"httpsim.client.Abort":      "implements ClientConn.Abort",
	"tcpsim.Listener.ConnCount": "httpsim's released-dial test counts the server's TCP connections to prove the late one was aborted",
}

// testOnlyFields lists the exported struct fields under internal/ that no
// non-test file reads, each with the reason it stays. A field is read
// where a non-test file selects it other than as the left side of an
// assignment or an increment; a composite-literal key is a write, and a
// field with an encoding tag other than `json:"-"` is read by its encoder.
// TestInternalFieldsAreRead fails on an unread field with no entry here,
// and on an entry that names nothing or names a field that is now read.
// Keys are the package path below internal/, the type, then the field.
var testOnlyFields = map[string]string{
	"simnet.Stats.NoRoute":             "the conservation check of ROADMAP item 7(b) balances sent packets against it",
	"browser.Stats.H1Conns":            "browser_test checks the HTTP/1.1 connection count per host",
	"browser.Stats.H2Conns":            "browser_test checks that H2 pools one connection per hostname",
	"core.Fig5Series.FracOver10":       "shapes_test calibrates Figure 5's share of pages with more than ten resources",
	"httpsim.ServerContext.ServerName": "cdn's tests key requests by it; bench/kernels.go sets it, so it goes with the next benchmark change",
	"simnet.Packet.Size":               "the tests' filters (SetFilter) read what the network charges for a packet",
	"bufpool.ArenaStats.Gets":          "the tests' leak checks require Gets == Puts once a stream is drained or aborted",
	"bufpool.ArenaStats.Puts":          "the tests' leak checks require Gets == Puts once a stream is drained or aborted",
	"bufpool.ArenaStats.Lent":          "the span-list tests require it to equal the non-empty lists and to reach 0 when all are released",
}

// testOnlyPackage is the one package under internal/ that only tests
// import, by design; its exports are exempt.
const testOnlyPackage = "recycletest"

// exportScan type-checks a module's packages from their non-test files,
// and the standard library from source, keeping what each package uses.
type exportScan struct {
	fset   *token.FileSet
	std    types.Importer
	module string                                                      // module path
	parse  func(fset *token.FileSet, path string) ([]*ast.File, error) // a module package's non-test files
	pkgs   map[string]*types.Package
	infos  []*types.Info
	// stores holds every selector that is the left side of an assignment
	// or an increment; selecting a field there writes it.
	stores map[*ast.SelectorExpr]bool
}

func newExportScan(module string, parse func(*token.FileSet, string) ([]*ast.File, error)) *exportScan {
	fset := token.NewFileSet()
	return &exportScan{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		module: module,
		parse:  parse,
		pkgs:   map[string]*types.Package{},
		stores: map[*ast.SelectorExpr]bool{},
	}
}

func (s *exportScan) Import(path string) (*types.Package, error) {
	if path != s.module && !strings.HasPrefix(path, s.module+"/") {
		return s.std.Import(path)
	}
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	files, err := s.parse(s.fset, path)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	p, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	store := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			s.stores[sel] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					store(e)
				}
			case *ast.IncDecStmt:
				store(n.X)
			}
			return true
		})
	}
	s.pkgs[path] = p
	s.infos = append(s.infos, info)
	return p, nil
}

// exports returns every exported identifier of the checked packages below
// internal/ (methods of unexported types and interface methods included),
// keyed as testOnlyExports is, and the set of objects some checked file
// uses. A method counts as used when it is called, or when its type
// satisfies an interface that has it and that method of the interface is
// used; a standard-library interface's methods count as used (the library
// calls them).
func (s *exportScan) exports() (all map[string]types.Object, used map[types.Object]bool) {
	all = map[string]types.Object{}
	var concrete []types.Type // the named types whose methods an interface may reach
	for path, p := range s.pkgs {
		rel, ok := strings.CutPrefix(path, s.module+"/internal/")
		if !ok || rel == testOnlyPackage {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if obj.Exported() {
				all[rel+"."+name] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() {
						all[rel+"."+name+"."+m.Name()] = m
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					all[rel+"."+name+"."+m.Name()] = m
				}
			}
			if named.TypeParams().Len() == 0 {
				concrete = append(concrete, named)
			}
		}
	}

	used = map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{} // true: the standard library's
	for _, info := range s.infos {
		for _, obj := range info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = false
			}
			if named, ok := tv.Type.(*types.Named); ok && named.TypeArgs().Len() > 0 && !types.IsInterface(named) {
				concrete = append(concrete, named) // a generic type's instance
			}
		}
	}
	// The standard library's interfaces that the module can reach.
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, mod := s.pkgs[p.Path()]; !mod {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						ifaces[it] = true
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range s.pkgs {
		walk(p)
	}
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true

	// A concrete method that implements a used interface method (any of
	// the standard library's) is used, promoted through embedding or not.
	for _, t := range concrete {
		ptr := types.NewPointer(t)
		for it, std := range ifaces {
			if !types.Implements(t, it) && !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if im := it.Method(i); std || used[im] {
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name())
					used[obj.(*types.Func).Origin()] = true
				}
			}
		}
	}
	return all, used
}

// fields returns every exported, named field of the struct types declared
// at package scope below internal/, keyed as testOnlyFields is, and the
// set of those some checked file reads (see testOnlyFields).
func (s *exportScan) fields() (all map[string]*types.Var, read map[*types.Var]bool) {
	all, read = map[string]*types.Var{}, map[*types.Var]bool{}
	for path, p := range s.pkgs {
		rel, ok := strings.CutPrefix(path, s.module+"/internal/")
		if !ok || rel == testOnlyPackage {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					all[rel+"."+name+"."+f.Name()] = f
					if tag := st.Tag(i); tag != "" && tag != `json:"-"` {
						read[f] = true
					}
				}
			}
		}
	}
	for _, info := range s.infos {
		for sel, selection := range info.Selections {
			if selection.Kind() == types.FieldVal && !s.stores[sel] {
				read[selection.Obj().(*types.Var).Origin()] = true
			}
		}
	}
	return all, read
}

// checkFields returns one line per exported field no checked file reads
// and without a reason, and per reason that names nothing or a read field.
func checkFields(s *exportScan, reasons map[string]string) []string {
	all, read := s.fields()
	var bad []string
	for name, f := range all {
		_, kept := reasons[name]
		switch {
		case !read[f] && !kept:
			bad = append(bad, name+": exported field no non-test file reads; delete it or give testOnlyFields a reason")
		case read[f] && kept:
			bad = append(bad, name+": is read now; drop its testOnlyFields entry")
		}
	}
	for name := range reasons {
		if _, ok := all[name]; !ok {
			bad = append(bad, name+": testOnlyFields names no field under internal/")
		}
	}
	sort.Strings(bad)
	return bad
}

// checkExports returns one line per exported name without a caller and
// without a reason, and per reason that names nothing or a used name.
func checkExports(s *exportScan, reasons map[string]string) []string {
	all, used := s.exports()
	var bad []string
	for name, obj := range all {
		_, kept := reasons[name]
		switch {
		case !used[obj] && !kept:
			bad = append(bad, name+": exported, but no non-test file uses it; delete it or give testOnlyExports a reason")
		case used[obj] && kept:
			bad = append(bad, name+": has a caller now; drop its testOnlyExports entry")
		}
	}
	for name := range reasons {
		if _, ok := all[name]; !ok {
			bad = append(bad, name+": testOnlyExports names nothing under internal/")
		}
	}
	sort.Strings(bad)
	return bad
}

func TestInternalExportsHaveCallers(t *testing.T) {
	// The checker must catch what it claims to, on a module small enough
	// to read: a dead function, a dead interface method and the concrete
	// method that only satisfies it, a dead method of an unexported type,
	// and two stale reasons. A method the standard library calls
	// (String), one reached through a used interface method and one
	// reached through a generic instance count as used, and the exempt
	// package is not scanned.
	fixture := map[string]string{
		"fix/internal/a": `package a
import "fmt"
type Shape interface { Area() int; Name() string }
type Sq struct{ S int }
func (q Sq) Area() int { return q.S * q.S }
func (q Sq) Name() string { return "sq" }
func (q Sq) String() string { return fmt.Sprint(q.S) }
type box[T any] struct{ v T }
func (b *box[T]) Get() T { return b.v }
func (b *box[T]) Put(v T) { b.v = v }
func NewBox() *box[int] { return &box[int]{} }
type hidden struct{}
func (hidden) Dead() {}
func Used(s Shape) int { return s.Area() }
func Dead() {}
func Kept() {}
const KindZero = 0`,
		"fix/internal/" + testOnlyPackage: `package ` + testOnlyPackage + `
func Helper() {}`,
		"fix/cmd": `package main
import (
	"fix/internal/a"
	_ "fix/internal/` + testOnlyPackage + `"
)
func main() { _ = a.Used(a.Sq{S: 2}); _ = a.NewBox().Get(); a.Kept() }`,
	}
	scan := newExportScan("fix", func(fset *token.FileSet, path string) ([]*ast.File, error) {
		f, err := parser.ParseFile(fset, path+".go", fixture[path], 0)
		return []*ast.File{f}, err
	})
	if _, err := scan.Import("fix/cmd"); err != nil {
		t.Fatal(err)
	}
	got := checkExports(scan, map[string]string{"a.Kept": "stale", "a.Gone": "stale", "a.KindZero": "kept"})
	want := []string{
		"a.Dead: exported",
		"a.Gone: testOnlyExports names nothing",
		"a.Kept: has a caller now",
		"a.Shape.Name: exported",
		"a.Sq.Name: exported",
		"a.box.Put: exported",
		"a.hidden.Dead: exported",
	}
	ok := len(got) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = strings.HasPrefix(got[i], want[i])
	}
	if !ok {
		t.Fatalf("fixture: flagged\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	scan, err := moduleScan()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range checkExports(scan, testOnlyExports) {
		t.Error(line)
	}
}

func TestInternalFieldsAreRead(t *testing.T) {
	// The checker must catch what it claims to: a field only written (by
	// assignment, by increment, as a composite-literal key), a field
	// tagged json:"-" and only written, and two stale reasons. A field
	// read through a selector, through a pointer, promoted through an
	// embedded struct, or of a generic type's instance counts as read,
	// as does one with an encoding tag; embedded fields and the exempt
	// package are not scanned.
	fixture := map[string]string{
		"fix/internal/a": `package a
type Inner struct{ Deep, Shallow int }
type Outer struct {
	Inner
	Read, Bumped, Keyed, Stored, Kept int
	Skipped int ` + "`json:\"-\"`" + `
	Encoded int ` + "`json:\"encoded\"`" + `
}
type Box[T any] struct{ V, W T }
func Use(o *Outer, b *Box[int]) int {
	o.Bumped++
	o.Stored = 2
	o.Skipped = 3
	(o.Kept) += 1
	b.W = 4
	return o.Read + o.Deep + b.V
}
func Make() *Outer { return &Outer{Keyed: 1} }`,
		"fix/internal/" + testOnlyPackage: `package ` + testOnlyPackage + `
type T struct{ Unread int }`,
		"fix/cmd": `package main
import (
	"fix/internal/a"
	_ "fix/internal/` + testOnlyPackage + `"
)
func main() { _ = a.Use(a.Make(), &a.Box[int]{}) }`,
	}
	scan := newExportScan("fix", func(fset *token.FileSet, path string) ([]*ast.File, error) {
		f, err := parser.ParseFile(fset, path+".go", fixture[path], 0)
		return []*ast.File{f}, err
	})
	if _, err := scan.Import("fix/cmd"); err != nil {
		t.Fatal(err)
	}
	got := checkFields(scan, map[string]string{"a.Outer.Kept": "kept", "a.Outer.Read": "stale", "a.Outer.Gone": "stale"})
	want := []string{
		"a.Box.W: exported field",
		"a.Inner.Shallow: exported field",
		"a.Outer.Bumped: exported field",
		"a.Outer.Gone: testOnlyFields names no field",
		"a.Outer.Keyed: exported field",
		"a.Outer.Read: is read now",
		"a.Outer.Skipped: exported field",
		"a.Outer.Stored: exported field",
	}
	ok := len(got) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = strings.HasPrefix(got[i], want[i])
	}
	if !ok {
		t.Fatalf("fixture: flagged\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	scan, err := moduleScan()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range checkFields(scan, testOnlyFields) {
		t.Error(line)
	}
}

// moduleScan is the scan of the module's own non-test files, built once:
// every directory with Go files is a package, imported as the module
// path plus the directory.
var moduleScan = sync.OnceValues(func() (*exportScan, error) {
	scan := newExportScan("h3cdn", func(fset *token.FileSet, importPath string) ([]*ast.File, error) {
		dir := "." + strings.TrimPrefix(importPath, "h3cdn")
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	})
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(dir, 0); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		_, err = scan.Import(path.Join("h3cdn", filepath.ToSlash(dir)))
		return err
	})
	return scan, err
})
