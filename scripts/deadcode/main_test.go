package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// OnlyTested has no caller outside a test.
func OnlyTested() int { return OnlyTested() }

// Lonely is named only by its own methods.
type Lonely struct{ next *Lonely }

func (l *Lonely) Next() *Lonely { return &Lonely{next: l} }

func UsedByCmd() int { return Limit + helper() }

const Limit = 3

func helper() int { return 0 }

func ReExported() {}

type Aliased struct{}
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestOnlyTested(t *testing.T) { _ = OnlyTested }
`,
		"internal/a/testdata/use.go": `package use

import "example/internal/a"

var _ = a.Lonely{}
`,
		"cmd/x/main.go": `package main

import "example/internal/a"

func main() { _ = a.UsedByCmd() }
`,
		"example.go": `package example

import "example/internal/a"

var ReExported = a.ReExported

type Aliased = a.Aliased
`,
	})
	got, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range got {
		lines = append(lines, e.String())
	}
	want := []string{
		"internal/a/a.go:4 func a.OnlyTested",
		"internal/a/a.go:7 type a.Lonely",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("scan reported\n%s\nwant\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

// TestRepositoryHasNoDeadCode runs the gate over this repository, so
// `go test ./...` fails on an exported internal/ name nothing calls.
func TestRepositoryHasNoDeadCode(t *testing.T) {
	got, err := scan(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range got {
		t.Errorf("no non-test caller: %s", e)
	}
}
