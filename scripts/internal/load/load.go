// Package load type-checks every package of a repository once: the
// module at the root and every module nested below it, through one
// importer, so each declared object has a single identity wherever it
// is used. Import paths of those modules resolve to their directories;
// anything else is taken to be the standard library and is type-checked
// from source (go/importer's "source" mode), once for all packages.
//
// Only non-test files are loaded: a directory's package is the .go files
// that match the host's build constraints, minus _test.go files.
// Directories named testdata or starting with "." or "_" are skipped,
// as the go command skips them.
package load

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Program is every package of a repository, type-checked.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // sorted by import path
}

// Package is one type-checked package.
type Package struct {
	Dir   string // slash path relative to the root, "." for the root
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load type-checks every package below root. root must hold a go.mod;
// each go.mod below it starts a nested module.
func Load(root string) (*Program, error) {
	l := &loader{root: root, fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*Package{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.findPackages(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	prog := &Program{Fset: l.fset}
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

type loader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string   // import path → slash dir of every package
	pkgs map[string]*Package // import path → package; nil while it loads
}

// findPackages maps the import path of every package directory below
// the root to that directory, by the module path of the nearest go.mod.
func (l *loader) findPackages() error {
	type module struct{ dir, path string }
	var mods []module // innermost last while the walk is inside them
	return filepath.WalkDir(l.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(l.root, p)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		for len(mods) > 0 && !within(dir, mods[len(mods)-1].dir) {
			mods = mods[:len(mods)-1]
		}
		if mp, err := modulePath(filepath.Join(p, "go.mod")); err == nil {
			mods = append(mods, module{dir, mp})
		} else if !os.IsNotExist(err) {
			return err
		}
		if len(mods) == 0 {
			return fmt.Errorf("%s: no go.mod at or above it", p)
		}
		names, err := l.goFiles(dir)
		if err != nil || len(names) == 0 {
			return err
		}
		m := mods[len(mods)-1]
		ip := m.path
		if dir != m.dir {
			sub := dir
			if m.dir != "." {
				sub = strings.TrimPrefix(dir, m.dir+"/")
			}
			ip += "/" + sub
		}
		l.dirs[ip] = dir
		return nil
	})
}

// within reports whether slash dir is base or lies below it.
func within(dir, base string) bool {
	return base == "." || dir == base || strings.HasPrefix(dir, base+"/")
}

// goFiles lists the non-test .go files of a directory that the host
// would build.
func (l *loader) goFiles(dir string) ([]string, error) {
	abs := filepath.Join(l.root, filepath.FromSlash(dir))
	ents, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(abs, n)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, n)
		}
	}
	return names, nil
}

// Import resolves an import of a type-checked package.
func (l *loader) Import(ip string) (*types.Package, error) {
	if _, ok := l.dirs[ip]; !ok {
		return l.std.Import(ip)
	}
	pkg, err := l.load(ip)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// load parses and type-checks one package of the repository, once.
func (l *loader) load(ip string) (*Package, error) {
	if pkg, ok := l.pkgs[ip]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", ip)
		}
		return pkg, nil
	}
	l.pkgs[ip] = nil
	dir := l.dirs[ip]
	names, err := l.goFiles(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir, Info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(l.root, filepath.FromSlash(dir), n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	conf := types.Config{Importer: l}
	if pkg.Types, err = conf.Check(ip, l.fset, pkg.Files, pkg.Info); err != nil {
		return nil, err
	}
	l.pkgs[ip] = pkg
	return pkg, nil
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

// Symbol is one line of the root package's API and the object it names.
type Symbol struct {
	Line string // "kind Name", or "method Type.Name"
	Obj  types.Object
}

// API returns the exported surface of the package at the root, sorted
// by line: a "func", "var", "const" or "type" line per exported
// package-level name, and a "method Type.Name" line per exported method
// of each exported type, its own or promoted, alias or not. An
// interface type's lines are its methods.
func (p *Program) API() ([]Symbol, error) {
	var root *Package
	for _, pkg := range p.Packages {
		if pkg.Dir == "." {
			root = pkg
		}
	}
	if root == nil {
		return nil, fmt.Errorf("no package at the root")
	}
	var api []Symbol
	scope := root.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Func:
			api = append(api, Symbol{"func " + name, obj})
		case *types.Var:
			api = append(api, Symbol{"var " + name, obj})
		case *types.Const:
			api = append(api, Symbol{"const " + name, obj})
		case *types.TypeName:
			api = append(api, Symbol{"type " + name, obj})
			t := types.Unalias(obj.Type())
			if !types.IsInterface(t) {
				t = types.NewPointer(t) // its methods and *T's
			}
			set := types.NewMethodSet(t)
			for i := 0; i < set.Len(); i++ {
				if m := set.At(i).Obj(); m.Exported() {
					api = append(api, Symbol{"method " + name + "." + m.Name(), m})
				}
			}
		}
	}
	sort.Slice(api, func(i, j int) bool { return api[i].Line < api[j].Line })
	return api, nil
}
