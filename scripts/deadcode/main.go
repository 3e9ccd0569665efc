// Command deadcode lists exported package-level identifiers under
// internal/ that no non-test Go file in the repository references, one
// "path:line kind pkg.Name" line each, and exits 1 if it printed any.
// Library code that only its own tests call is dead weight: delete it
// (and re-run, since a deletion can orphan what only it used) or give it
// a caller.
//
// Every .go file below the working directory counts as a possible
// caller, the nested bench module included, except _test.go files and
// anything under testdata/ or a directory whose name starts with "." or
// "_". A name's own declaration is not a reference to it, and neither is
// a use of a type inside its own methods. Only package-level funcs,
// types, vars and consts are checked: whether a method is needed depends
// on interface satisfaction, which this syntax-only scan cannot see, so
// methods are out of scope and count as callers of what they use.
//
// Run from the repository root:
//
//	go run ./scripts/deadcode
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	entries, err := scan(".")
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

// entry is one unreferenced declaration.
type entry struct {
	file string // slash path relative to the scanned root
	line int
	kind string // func, type, var or const
	pkg  string
	name string
}

func (e entry) String() string {
	return fmt.Sprintf("%s:%d %s %s.%s", e.file, e.line, e.kind, e.pkg, e.name)
}

// ident names a package-level identifier by its package directory.
type ident struct{ dir, name string }

type goFile struct {
	dir string // slash path relative to the root
	f   *ast.File
}

// scan parses every non-test Go file under root and returns the exported
// internal/ declarations nothing else references, sorted by position.
func scan(root string) ([]entry, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []goFile
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, goFile{dir: filepath.ToSlash(rel), f: f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	pkgName := map[string]string{} // dir → package name
	for _, gf := range files {
		pkgName[gf.dir] = gf.f.Name.Name
	}

	decls := map[ident]entry{}
	for _, gf := range files {
		if gf.dir != "internal" && !strings.HasPrefix(gf.dir, "internal/") {
			continue
		}
		for _, d := range gf.f.Decls {
			for _, id := range declared(d) {
				if !ast.IsExported(id.Name) {
					continue
				}
				pos := fset.Position(id.Pos())
				rel, err := filepath.Rel(root, pos.Filename)
				if err != nil {
					return nil, err
				}
				decls[ident{gf.dir, id.Name}] = entry{
					file: filepath.ToSlash(rel), line: pos.Line,
					kind: kindOf(d), pkg: gf.f.Name.Name, name: id.Name,
				}
			}
		}
	}

	used := map[ident]bool{}
	for _, gf := range files {
		r := refs{dir: gf.dir, imports: map[string]string{}, used: used}
		for _, imp := range gf.f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(ip, module+"/") {
				continue
			}
			dir := strings.TrimPrefix(ip, module+"/")
			local := pkgName[dir]
			if local == "" {
				local = path.Base(dir)
			}
			if imp.Name != nil {
				local = imp.Name.Name
			}
			switch local {
			case "_":
			case ".":
				r.dots = append(r.dots, dir)
			default:
				r.imports[local] = dir
			}
		}
		for _, d := range gf.f.Decls {
			r.decl(d)
		}
	}

	var out []entry
	for id, e := range decls {
		if !used[id] {
			out = append(out, e)
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

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(m), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// declared returns the package-level names a top-level declaration
// introduces; a method introduces none.
func declared(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, s := range d.Specs {
			ids = append(ids, specNames(s)...)
		}
		return ids
	}
	return nil
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

func kindOf(d ast.Decl) string {
	if g, ok := d.(*ast.GenDecl); ok {
		return g.Tok.String()
	}
	return "func"
}

// refs records the references one file makes.
type refs struct {
	dir     string
	imports map[string]string // local package name → directory
	dots    []string          // dot-imported directories
	used    map[ident]bool
	own     map[string]bool // names of the declaration being walked
}

// decl walks a top-level declaration. Uses of the declaration's own
// names inside it, and of a method's receiver type inside the method,
// are not references.
func (r *refs) decl(d ast.Decl) {
	switch d := d.(type) {
	case *ast.FuncDecl:
		r.own = map[string]bool{d.Name.Name: true}
		if d.Recv != nil {
			r.own = map[string]bool{recvType(d.Recv.List[0].Type): true}
			r.walk(d.Recv)
		}
		r.walk(d.Type)
		if d.Body != nil {
			r.walk(d.Body)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			r.own = map[string]bool{}
			for _, id := range specNames(s) {
				r.own[id.Name] = true
			}
			r.walk(s)
		}
	}
}

// recvType returns the base type name of a method receiver: T for T,
// *T, T[K] and *T[K, V].
func recvType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

func (r *refs) walk(n ast.Node) { ast.Inspect(n, r.visit) }

// visit counts identifiers as uses, skipping those that only declare a
// name (fields, parameters, local vars and types, := targets) or name a
// field or method after a dot.
func (r *refs) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		if x, ok := n.X.(*ast.Ident); ok {
			if dir, ok := r.imports[x.Name]; ok {
				r.used[ident{dir, n.Sel.Name}] = true
				return false
			}
		}
		r.walk(n.X)
		return false
	case *ast.Field:
		if n.Type != nil {
			r.walk(n.Type)
		}
		return false
	case *ast.ValueSpec:
		if n.Type != nil {
			r.walk(n.Type)
		}
		for _, v := range n.Values {
			r.walk(v)
		}
		return false
	case *ast.TypeSpec:
		if n.TypeParams != nil {
			r.walk(n.TypeParams)
		}
		r.walk(n.Type)
		return false
	case *ast.AssignStmt:
		if n.Tok == token.DEFINE {
			for _, v := range n.Rhs {
				r.walk(v)
			}
			return false
		}
	case *ast.Ident:
		if !r.own[n.Name] {
			r.used[ident{r.dir, n.Name}] = true
		}
		for _, dir := range r.dots {
			r.used[ident{dir, n.Name}] = true
		}
	}
	return true
}
