package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldens are the experiments whose output is a pure function of the code:
// every figure on the virtual clock, at the command's default flags. Fig. 13
// (host clock) and multi-session throughput cells (placement follows the
// host scheduler) are left out. `make golden` writes testdata/<name>.txt
// with the same arguments.
var goldens = []struct {
	name string
	args []string
}{
	{"fig5", nil},
	{"fig6", nil},
	{"fig7", nil},
	{"fig8", nil},
	{"fig9", nil},
	{"fig10", nil},
	{"fig11", nil},
	{"fig12", nil},
	{"appendix", nil},
	{"ablation", nil},
	{"merge", nil},
	{"faults", nil},
	{"trace", []string{"-traceout", ""}},
	{"throughput", []string{"-sessions", "1", "-workers", "1,4"}},
}

// TestExperimentsGolden runs each deterministic experiment through run and
// compares its bytes with the committed report. An intended change to a
// figure is regenerated with `make golden` and reviewed with `git diff`.
func TestExperimentsGolden(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			o, err := parseFlags(append([]string{"-exp", g.name}, g.args...))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(&got, o); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", g.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("-exp %s %s differs from testdata/%s.txt; `make golden` then `git diff` shows how:\n%s",
					g.name, strings.Join(g.args, " "), g.name, got.String())
			}
		})
	}
}
