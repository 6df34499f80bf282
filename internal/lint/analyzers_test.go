package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestWallclock(t *testing.T) {
	linttest.Run(t, fixture("wallclock"), lint.WallclockAnalyzer)
}

func TestSnapwrite(t *testing.T) {
	linttest.Run(t, fixture("snapwrite"), lint.SnapwriteAnalyzer)
}

func TestMapdet(t *testing.T) {
	linttest.Run(t, fixture("mapdet"), lint.MapdetAnalyzer)
}

func TestAtomicfield(t *testing.T) {
	linttest.Run(t, fixture("atomicfield"), lint.AtomicfieldAnalyzer)
}

func TestFaultrand(t *testing.T) {
	linttest.Run(t, fixture("faultrand"), lint.FaultrandAnalyzer)
}
