// Command deadcheck is the dead-export gate (CI): an exported function
// or method in a non-test internal/ file must be reached by non-test
// code of the module or of bench/ (tests alone keep nothing alive). A
// name is live when such code refers to it outside its own body; a
// method also when, with it, its type implements an interface the code
// names or passes values as (or fmt.Stringer, where fmt is imported),
// or when repro.go aliases its type (facade API). go/build picks the
// files, so a race_on.go/race_off.go pair checks as one; the standard
// library is type-checked from source. scripts/deadcheck.allow lists
// names kept without a caller, "dir.Name reason" or "dir.Type.Method
// reason" a line; a listed name that is gone or has a caller fails
// too. Run from the repository root: go run ./scripts/deadcheck.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const allowFile = "scripts/deadcheck.allow"

func main() {
	problems := check(".")
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "deadcheck:", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Println("deadcheck: every exported internal/ function and method is reached or allowlisted")
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check returns one line per offender in the module at root, or the
// reason it could not check the module.
func check(root string) []string {
	data, err := os.ReadFile(filepath.Join(root, allowFile))
	if err != nil {
		return []string{err.Error()}
	}
	// Cgo files of the standard library (net, os/user) would need the
	// cgo tool; their pure-Go twins declare the same API.
	build.Default.CgoEnabled = false
	fset, dirs, pkgs := token.NewFileSet(), map[string]*build.Package{}, map[string]*types.Package{}
	info := types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	std := importer.ForCompiler(fset, "source", nil)
	// Liveness: references outside a name's own body, used interfaces, facade types.
	used, ifaces, facade := map[*types.Func]bool{}, map[*types.Interface]bool{}, map[*types.Named]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) { // each package found under root, once
		if p := pkgs[path]; p != nil {
			return p, nil
		}
		bp, ok := dirs[path]
		if !ok {
			p, err := std.Import(path)
			if path == "fmt" && err == nil { // fmt calls String on the values it prints
				addIface(p.Scope().Lookup("Stringer").Type())
			}
			return p, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, files, &info)
		pkgs[path] = p
		return p, err
	}
	var walk func(dir, path string) error
	walk = func(dir, path string) error { // as "./..." does, each go.mod starting a module
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(mod), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					path = f[1]
				}
			}
		}
		if bp, err := build.Default.ImportDir(dir, 0); err == nil {
			dirs[path] = bp
		}
		entries, err := os.ReadDir(dir)
		for _, e := range entries {
			if n := e.Name(); err == nil && e.IsDir() && n != "testdata" && n[0] != '.' && n[0] != '_' {
				err = walk(filepath.Join(dir, n), path+"/"+n)
			}
		}
		return err
	}
	if err := walk(root, ""); err != nil {
		return []string{err.Error()}
	}
	for path := range dirs {
		if _, err := imp(path); err != nil {
			return []string{err.Error()}
		}
	}
	for id, obj := range info.Uses {
		switch obj := obj.(type) {
		case *types.TypeName:
			addIface(obj.Type())
		case *types.Func:
			for i, params := 0, obj.Type().(*types.Signature).Params(); i < params.Len(); i++ {
				addIface(params.At(i).Type())
			}
			if s := obj.Origin().Scope(); s == nil || id.Pos() < s.Pos() || id.Pos() >= s.End() {
				used[obj.Origin()] = true
			}
		}
	}
	for id, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() && fset.Position(id.Pos()).Filename == filepath.Join(root, "repro.go") {
			if t, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				facade[t.Origin()] = true
			}
		}
	}

	var problems []string
	listed, declared := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(f[0], "#") {
			listed[f[0]] = true
		}
	}
	for id, obj := range info.Defs {
		fn, ok := obj.(*types.Func)
		pos := fset.Position(id.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		if rel = filepath.ToSlash(rel); !ok || !fn.Exported() || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		key, live := filepath.ToSlash(filepath.Dir(rel))+"."+fn.Name(), used[fn]
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if types.IsInterface(recv.Type()) {
				continue // an interface's method, not a declaration
			}
			t := types.Unalias(recv.Type())
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			r := t.(*types.Named).Origin()
			key = strings.TrimSuffix(key, fn.Name()) + r.Obj().Name() + "." + fn.Name()
			live = live || facade[r]
			for it := range ifaces {
				// A generic type's methods live by reference only.
				m, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name())
				live = live || m != nil && r.TypeParams().Len() == 0 && types.Implements(types.NewPointer(r), it)
			}
		}
		declared[key] = true
		where := fmt.Sprintf("%s (%s:%d)", key, rel, pos.Line)
		if listed[key] && live {
			problems = append(problems, where+" has a caller now; drop it from "+allowFile)
		} else if !listed[key] && !live {
			problems = append(problems, where+" is exported but nothing outside tests reaches it; delete it or list it in "+allowFile)
		}
	}
	for k := range listed {
		if !declared[k] {
			problems = append(problems, k+" is listed in "+allowFile+" but not declared")
		}
	}
	sort.Strings(problems)
	return problems
}
