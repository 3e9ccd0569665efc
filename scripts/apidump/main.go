// Command apidump prints the exported API surface of the root caasper
// package, one line per symbol, sorted: "kind Name" for each exported
// package-level func, var, const and type, and "method Type.Name" for
// each exported method of each exported type, re-exported internal
// types (aliases) included, since callers reach those methods through
// this package. It is the input to scripts/apicheck.sh, which diffs the
// output against the checked-in snapshot testdata/api.txt so accidental
// API drift (a removed re-export, a renamed constructor, a deleted
// method) fails `make check` instead of surprising downstream callers.
//
// Run from the repository root:
//
//	go run ./scripts/apidump
package main

import (
	"fmt"
	"os"

	"caasper/scripts/internal/load"
)

func main() {
	prog, err := load.Load(".")
	if err == nil {
		var api []load.Symbol
		if api, err = prog.API(); err == nil {
			for _, s := range api {
				fmt.Println(s.Line)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "apidump:", err)
		os.Exit(1)
	}
}
