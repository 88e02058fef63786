package numaio

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"testing"
)

// apiAllowlist names the functions and methods that no program calls but
// that stay, keyed as TestNoTestOnlyAPI reports them, each with its reason.
var apiAllowlist = map[string]string{
	"numaio/internal/fabric.Allocation.Bottleneck": "the closed-form model on ROADMAP's open items is its caller",
	"numaio/internal/telemetry.NewTracerFunc":      "fake-clock seam that telemetry's and core's trace tests drive",
	"numaio/internal/telemetry.StepClock":          "the deterministic clock those tests pass to NewTracerFunc",
	"numaio/internal/resilience.NewFakeClock":      "test support: the manual Clock resilience's and fleet's tests drive",
	"numaio/internal/resilience.FakeClock.Advance": "test support: moves the FakeClock",
}

// stdInterfaceMethods are method names that the standard library calls
// through its own interfaces, out of sight of a scan of this module.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "Set": true,
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// TestNoTestOnlyAPI fails when a function or method declared in a non-test
// file under internal/ or cmd/ is used by no non-test file of this module
// or of perfbench/: code that only tests reach is code no program needs.
func TestNoTestOnlyAPI(t *testing.T) {
	var order []listedPackage
	seen := map[string]bool{}
	exports := map[string]string{}
	for _, dir := range []string{".", "perfbench"} {
		pkgs, err := goList(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			if !p.Standard && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				order = append(order, p)
			}
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	// Module packages are checked from source in dependency order, so one
	// type universe holds every declaration and every use.
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}

	type decl struct {
		fn        *types.Func
		recv      *types.Named // nil for a function
		pos       token.Position
		start, to token.Pos
	}
	type use struct {
		fn  *types.Func
		pos token.Pos
	}
	decls := map[string]decl{}
	var uses []use
	for _, p := range order {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				uses = append(uses, use{fn, id.Pos()})
			}
		}
		for sel, s := range info.Selections {
			if fn, ok := s.Obj().(*types.Func); ok {
				uses = append(uses, use{fn, sel.Sel.Pos()})
			}
		}
		rel := strings.TrimPrefix(p.ImportPath, "numaio/")
		if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				if fd.Recv == nil && (fn.Name() == "init" || fn.Name() == "main") {
					continue
				}
				if fd.Recv != nil && stdInterfaceMethods[fn.Name()] {
					continue
				}
				key, recv := funcKey(fn)
				decls[key] = decl{fn, recv, fset.Position(fd.Pos()), fd.Pos(), fd.End()}
			}
		}
	}

	used := map[string]bool{}
	ifaceUses := map[string][]*types.Interface{} // method name -> interfaces it was called through
	for _, u := range uses {
		fn := u.fn.Origin()
		if fn.Pkg() == nil {
			continue
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			if it, ok := recv.Type().Underlying().(*types.Interface); ok {
				ifaceUses[fn.Name()] = append(ifaceUses[fn.Name()], it)
			}
			continue
		}
		key, _ := funcKey(fn)
		// A function that only calls itself is still unused.
		if d, ok := decls[key]; ok && u.pos >= d.start && u.pos < d.to {
			continue
		}
		used[key] = true
	}
	implemented := func(d decl) bool {
		if d.recv == nil {
			return false
		}
		for _, it := range ifaceUses[d.fn.Name()] {
			if types.Implements(d.recv, it) || types.Implements(types.NewPointer(d.recv), it) {
				return true
			}
		}
		return false
	}

	var unused []string
	for key, d := range decls {
		if used[key] || implemented(d) {
			continue
		}
		if _, ok := apiAllowlist[key]; ok {
			continue
		}
		unused = append(unused, fmt.Sprintf("%s (%s:%d)", key, relPath(d.pos.Filename), d.pos.Line))
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("no program uses %s; delete it, move it into a _test.go file, or allowlist it with a reason", u)
	}
	for key := range apiAllowlist {
		if d, ok := decls[key]; !ok || used[key] || implemented(d) {
			t.Errorf("allowlist entry %s is stale: it is gone or a program now uses it", key)
		}
	}
}

// funcKey names fn by package, receiver type and name, and returns the
// receiver's named type for a method.
func funcKey(fn *types.Func) (string, *types.Named) {
	fn = fn.Origin()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name(), nil
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	n, ok := rt.(*types.Named)
	if !ok {
		return fn.Pkg().Path() + ".?." + fn.Name(), nil
	}
	n = n.Origin()
	return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name(), n
}

// goList lists the packages under dir and all their dependencies, with
// export data, outside any workspace and user GOFLAGS.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

func relPath(name string) string {
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, name); err == nil {
			return r
		}
	}
	return name
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
