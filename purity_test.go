package h3cdn_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Simulation code must be a pure function of its seeds: nothing under
// internal/ may read the wall clock, draw from math/rand's global
// source, or recycle through a sync.Pool (process-global, drained by
// the collector, shared across shards). Virtual time comes from
// simnet.Scheduler, randomness from injected *rand.Rand / seqrand
// streams, recycling from the owning universe's bufpool arenas.
var (
	wallClock  = map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true, "Tick": true, "NewTimer": true, "NewTicker": true}
	seededRand = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}
)

// impureCalls parses one Go source file and returns a line per
// wall-clock read, global-source math/rand call or sync.Pool in it.
func impureCalls(fset *token.FileSet, filename string, src any) ([]string, error) {
	f, err := parser.ParseFile(fset, filename, src, 0)
	if err != nil {
		return nil, err
	}
	// Local names of the three packages in this file (imports may alias).
	local := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path != "time" && path != "math/rand" && path != "sync" {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = path
	}
	// pkgOf returns the import path sel selects from, or "". The parser
	// resolves identifiers declared in the file; a package name is the
	// unresolved kind, so a local variable called "rand" is not mistaken
	// for the package.
	pkgOf := func(e ast.Expr) (*ast.SelectorExpr, string) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return nil, ""
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Obj == nil {
			return sel, local[pkg.Name]
		}
		return nil, ""
	}
	var found []string
	flag := func(sel *ast.SelectorExpr) {
		found = append(found, fmt.Sprintf("%s: %s.%s", fset.Position(sel.Pos()), sel.X.(*ast.Ident).Name, sel.Sel.Name))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr: // a clock function, called or passed around
			if sel, path := pkgOf(n); path == "time" && wallClock[sel.Sel.Name] || path == "sync" && sel.Sel.Name == "Pool" {
				flag(sel)
			}
		case *ast.CallExpr:
			if sel, path := pkgOf(n.Fun); path == "math/rand" && !seededRand[sel.Sel.Name] {
				flag(sel)
			}
		}
		return true
	})
	return found, nil
}

func TestInternalIsWallClockAndGlobalRandFree(t *testing.T) {
	// The checker must catch what it claims to, aliases included.
	fixture := `package p
import (
	"sync"
	"time"
	mrand "math/rand"
)
var mu, pool = sync.Mutex{}, sync.Pool{}
func f(rand *mrand.Rand) (time.Duration, int) {
	start := time.Now()
	_ = mrand.New(mrand.NewSource(1))
	return time.Since(start) + 2*time.Second, mrand.Intn(3) + rand.Intn(3)
}`
	fset := token.NewFileSet()
	got, err := impureCalls(fset, "fixture.go", fixture)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"sync.Pool", "time.Now", "time.Since", "mrand.Intn"}
	if len(got) != len(want) {
		t.Fatalf("fixture: flagged %v, want %v", got, want)
	}
	for i, w := range want {
		if !strings.HasSuffix(got[i], w) {
			t.Fatalf("fixture: flagged %v, want %v", got, want)
		}
	}

	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		calls, err := impureCalls(fset, path, nil)
		for _, c := range calls {
			t.Error(c)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
