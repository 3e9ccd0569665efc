// Command deadcode lists the declarations under internal/ that no
// non-test Go file in the repository needs, one "path:line kind
// pkg.Name" line each (kind method: "pkg.Type.Name"), and exits 1 if it
// printed any. Library code that only its own tests call is dead
// weight: delete it (and re-run, since a deletion can orphan what only
// it used) or give it a caller.
//
// Every package below the working directory is type-checked once
// (scripts/internal/load), the nested bench module included; _test.go
// files and anything under testdata/ or a directory whose name starts
// with "." or "_" are not loaded, so they call nothing. Two kinds of
// declaration are checked:
//
//   - an exported package-level func, type, var or const is needed when
//     a loaded file uses it outside its own declaration (a type's own
//     methods do not count);
//   - a method, exported or not, is needed when a loaded file selects it
//     outside its own body; when its receiver, T or *T, implements
//     (types.Implements) an interface that has a method of that name and
//     that a loaded file names or a standard-library package the
//     modules import declares; or when scripts/apidump lists it as a
//     method of the root package's API.
//
// Run from the repository root:
//
//	go run ./scripts/deadcode
package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"caasper/scripts/internal/load"
)

func main() {
	prog, err := load.Load(".")
	var entries []entry
	if err == nil {
		entries, err = scan(prog)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, e := range entries {
		fmt.Println(e)
	}
	if len(entries) > 0 {
		os.Exit(1)
	}
}

// entry is one unneeded declaration.
type entry struct {
	file string // slash path relative to the loaded root
	line int
	kind string // func, type, var, const or method
	name string // pkg.Name, or pkg.Type.Name for a method
}

func (e entry) String() string {
	return fmt.Sprintf("%s:%d %s %s", e.file, e.line, e.kind, e.name)
}

// scan returns the internal/ declarations of a loaded program that
// nothing needs, sorted by position.
func scan(prog *load.Program) ([]entry, error) {
	api, err := prog.API()
	if err != nil {
		return nil, err
	}
	used := map[types.Object]bool{}
	for _, s := range api {
		used[s.Obj] = true
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				markUses(pkg.Info, d, used)
			}
		}
	}
	ifaces := interfaces(prog)

	var out []entry
	for _, pkg := range prog.Packages {
		if pkg.Dir != "internal" && !strings.HasPrefix(pkg.Dir, "internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				for _, obj := range declared(pkg.Info, d) {
					if used[obj] || satisfies(obj, ifaces) {
						continue
					}
					pos := prog.Fset.Position(obj.Pos())
					file := path.Join(pkg.Dir, filepath.Base(pos.Filename))
					out = append(out, entry{file: file, line: pos.Line, kind: kindOf(obj), name: qualified(obj)})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out, nil
}

// declared returns the objects of a top-level declaration that the gate
// checks: every method, and the exported package-level names.
func declared(info *types.Info, d ast.Decl) []types.Object {
	var ids []*ast.Ident
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv != nil || d.Name.IsExported() {
			ids = append(ids, d.Name)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			for _, id := range specNames(s) {
				if id.IsExported() {
					ids = append(ids, id)
				}
			}
		}
	}
	objs := make([]types.Object, 0, len(ids))
	for _, id := range ids {
		objs = append(objs, info.Defs[id])
	}
	return objs
}

// specNames returns the names a type, var or const spec declares.
func specNames(s ast.Spec) []*ast.Ident {
	switch s := s.(type) {
	case *ast.TypeSpec:
		return []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		return s.Names
	}
	return nil
}

// markUses records every object a top-level declaration uses, except
// the names it declares itself and, in a method, the receiver's type.
func markUses(info *types.Info, d ast.Decl, used map[types.Object]bool) {
	own := map[types.Object]bool{}
	switch d := d.(type) {
	case *ast.FuncDecl:
		own[info.Defs[d.Name]] = true
		if d.Recv != nil {
			own[recvNamed(info.Defs[d.Name]).Obj()] = true
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			for _, id := range specNames(s) {
				own[info.Defs[id]] = true
			}
		}
	}
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				if f, ok := obj.(*types.Func); ok {
					obj = f.Origin()
				}
				if !own[obj] {
					used[obj] = true
				}
			}
		}
		return true
	})
}

// recvNamed returns the named type a method is declared on.
func recvNamed(m types.Object) *types.Named {
	t := m.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// interfaces indexes by method name the interfaces a method may be
// needed to satisfy: every interface type a loaded file names, and
// every exported interface that a standard-library package a loaded
// file imports declares, error included.
func interfaces(prog *load.Program) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > n.TypeArgs().Len() {
			return // generic: only its instances can be implemented
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	mine := map[*types.Package]bool{}
	for _, pkg := range prog.Packages {
		mine[pkg.Types] = true
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	for _, pkg := range prog.Packages {
		for _, imp := range pkg.Types.Imports() {
			if mine[imp] {
				continue
			}
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					add(tn.Type())
				}
			}
		}
	}
	return byName
}

// satisfies reports whether obj is a method whose receiver, T or *T,
// implements an interface that has a method of its name.
func satisfies(obj types.Object, ifaces map[string][]*types.Interface) bool {
	if kindOf(obj) != "method" {
		return false
	}
	t := recvNamed(obj)
	for _, it := range ifaces[obj.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

func kindOf(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Func:
		if obj.Type().(*types.Signature).Recv() != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Var:
		return "var"
	}
	return "const"
}

// qualified names obj as pkg.Name, or pkg.Type.Name for a method.
func qualified(obj types.Object) string {
	name := obj.Name()
	if kindOf(obj) == "method" {
		name = recvNamed(obj).Obj().Name() + "." + name
	}
	return obj.Pkg().Name() + "." + name
}
