package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caasper/scripts/internal/load"
)

// plant writes a file tree under a temp dir: keys are slash paths.
func plant(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestScanPlantedTree(t *testing.T) {
	root := plant(t, map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"internal/a/a.go": `package a

import "net/http"

// OnlyTested has no caller outside a test.
func OnlyTested() int { return OnlyTested() }

// Lonely is named only by its own methods.
type Lonely struct{ next *Lonely }

func (l *Lonely) Next() *Lonely { return &Lonely{next: l} }

// Sized has Sizer's name but not its signature.
func (l *Lonely) Sized() string { return "" }

func UsedByCmd() int { return Limit + helper() }

const Limit = 3

func helper() int { return 0 }

func ReExported() {}

type Aliased struct{}

// Public is reached through the root package's alias.
func (Aliased) Public() {}

type T struct{}

func (T) Exported()   {}
func (T) unexported() {}
func (T) TestOnly()   {}

// Sized implements Sizer, which cmd/x names.
func (T) Sized() int { return 0 }

// String is reached only through fmt, by a value passed as any.
func (T) String() string { return "t" }

// FromSub is called only by the nested module.
func (T) FromSub() {}

type Sizer interface{ Sized() int }

// statusWriter overrides the WriteHeader of the writer it embeds.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) { w.code = code }
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestOnlyTested(t *testing.T) { _ = OnlyTested; T{}.TestOnly() }
`,
		"internal/a/testdata/use.go": `package use

import "example/internal/a"

var _ = a.Lonely{}
`,
		"cmd/x/main.go": `package main

import (
	"fmt"

	"example/internal/a"
)

var _ a.Sizer = a.T{}

func main() { fmt.Println(a.UsedByCmd(), a.T{}) }
`,
		"example.go": `package example

import "example/internal/a"

var ReExported = a.ReExported

type Aliased = a.Aliased
`,
		"sub/go.mod": "module example/sub\n\ngo 1.22\n\nrequire example v0.0.0\n\nreplace example => ../\n",
		"sub/sub.go": `package sub

import "example/internal/a"

func Use() { a.T{}.FromSub() }
`,
	})
	prog, err := load.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scan(prog)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range got {
		lines = append(lines, e.String())
	}
	want := []string{
		"internal/a/a.go:6 func a.OnlyTested",
		"internal/a/a.go:9 type a.Lonely",
		"internal/a/a.go:11 method a.Lonely.Next",
		"internal/a/a.go:14 method a.Lonely.Sized",
		"internal/a/a.go:31 method a.T.Exported",
		"internal/a/a.go:32 method a.T.unexported",
		"internal/a/a.go:33 method a.T.TestOnly",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("scan reported\n%s\nwant\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}

	// apidump's lines for the same tree: the alias brings its method.
	api, err := prog.API()
	if err != nil {
		t.Fatal(err)
	}
	lines = lines[:0]
	for _, s := range api {
		lines = append(lines, s.Line)
	}
	want = []string{"method Aliased.Public", "type Aliased", "var ReExported"}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("API lists\n%s\nwant\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

// TestRepositoryHasNoDeadCode runs the gate over this repository, so
// `go test ./...` fails on an internal/ name or method nothing needs.
func TestRepositoryHasNoDeadCode(t *testing.T) {
	prog, err := load.Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	got, err := scan(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range got {
		t.Errorf("no non-test caller: %s", e)
	}
}
