// Command slothvet runs the repro's static invariant suite (internal/lint):
// wallclock, stmtscope, snapwrite, mapdet, atomicfield, faultrand.
//
//	go run ./cmd/slothvet
//
// It analyzes the module enclosing the working directory through the
// in-process source loader (lint.LoadTree) — the same driver the fixture
// tests and TestRepoInvariants use, so CI, `make vet` and `go test` gate on
// one set of diagnostics. Findings print one per line to stdout and exit
// status 1, so CI can gate on it.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() { os.Exit(run()) }

// run analyzes the module enclosing the working directory and returns the
// process exit status: 0 clean, 1 on any finding or load failure.
func run() int {
	root, modpath, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "slothvet: %v\n", err)
		return 1
	}
	loaded, err := lint.LoadTree(root, modpath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "slothvet: %v\n", err)
		return 1
	}
	diags, err := loaded.Run(lint.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "slothvet: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "slothvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func moduleRoot() (dir, modpath string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}
