package lint

import (
	"go/ast"
)

// wallclock: the reproduction's entire measured world runs on virtual
// time (netsim clocks); the host's wall clock may appear only at the few
// sanctioned attribution points (driver wall stats, obs host durations,
// the Fig. 13 overhead timer), each marked
// //slothvet:allow wallclock(reason). Everywhere else a time.Now or
// time.Sleep is a determinism bug by construction: it couples golden
// output or stats to host speed. Types like
// time.Duration remain fine; only the clock-reading and timer functions
// are banned, in test-free shipped code, across every package.

var wallclockBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// WallclockAnalyzer forbids wall-clock reads and timers outside
// annotated host-attribution sites.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid time.Now/Since/Sleep/After/... in virtual-time code; host attribution sites must carry //slothvet:allow wallclock(reason)",
	Run:  runWallclock,
}

func runWallclock(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !wallclockBanned[sel.Sel.Name] || !isPkgIdent(pass.Info, sel.X, "time") {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s reads the host clock in virtual-time code; use the netsim clock, or annotate //slothvet:allow wallclock(reason) for genuine host attribution",
				sel.Sel.Name)
			return true
		})
	}
	return nil
}
