// Command apidump prints the exported package-level API surface of the
// root caasper package, one "kind Name" line per symbol, sorted. It is
// the input to scripts/apicheck.sh, which diffs the output against the
// checked-in snapshot testdata/api.txt so accidental API drift (a
// removed re-export, a renamed constructor) fails `make check` instead
// of surprising downstream callers.
//
// Run from the repository root:
//
//	go run ./scripts/apidump
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"sort"
	"strings"
)

func main() {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apidump:", err)
		os.Exit(1)
	}
	pkg, ok := pkgs["caasper"]
	if !ok {
		fmt.Fprintln(os.Stderr, "apidump: package caasper not found in cwd (run from the repo root)")
		os.Exit(1)
	}

	var lines []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				// Methods live on re-exported internal types; only
				// package-level functions are part of this surface.
				if d.Recv == nil && d.Name.IsExported() {
					lines = append(lines, "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				kind := map[token.Token]string{
					token.CONST: "const", token.VAR: "var", token.TYPE: "type",
				}[d.Tok]
				if kind == "" {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							lines = append(lines, kind+" "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								lines = append(lines, kind+" "+name.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}
