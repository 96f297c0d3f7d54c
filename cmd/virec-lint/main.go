// Command virec-lint runs the simulator's determinism analyzer
// (internal/lint) over the given packages, in the style of go vet:
//
//	go run ./cmd/virec-lint ./...
//	go run ./cmd/virec-lint ./internal/farm ./internal/experiments
//
// It takes only package patterns (default ./...). Findings print as
// "file:line:col: message [analyzer]" and the command exits 1 when any
// are reported. It is wired into CI next to go vet; see DESIGN.md for the
// rules the analyzer enforces and the //virec: directives that steer it.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/virec/virec/internal/lint"
)

func main() {
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset, pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "virec-lint: %v\n", err)
		os.Exit(2)
	}

	diags := lint.Run(fset, pkgs, lint.All())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "virec-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
