package lint_test

import (
	"testing"

	"repro/internal/lint"
)

// checkFixture runs analyzers over a testdata package and fails the
// test on any unmatched `// want` expectation or unexpected finding.
func checkFixture(t *testing.T, dir string, analyzers ...*lint.Analyzer) {
	t.Helper()
	problems, err := lint.CheckFixture(dir, analyzers...)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestMapRangeFixture(t *testing.T) {
	checkFixture(t, lint.FixtureDir("maprange", "a"), lint.MapRange)
}

func TestWallClockFixture(t *testing.T) {
	checkFixture(t, lint.FixtureDir("wallclock", "det"), lint.WallClock)
}

// The obs path element exempts a package wholesale: the same calls that
// are findings in det produce none here.
func TestWallClockExemptFixture(t *testing.T) {
	checkFixture(t, lint.FixtureDir("wallclock", "obs"), lint.WallClock)
}

// The ledger path element is exempt the same way — its completion
// timestamps and wall-time measurements are the recorded data. The det
// fixture above keeps proving that non-exempt packages are still
// flagged.
func TestWallClockLedgerExemptFixture(t *testing.T) {
	checkFixture(t, lint.FixtureDir("wallclock", "ledger"), lint.WallClock)
}

// The fabric path element is exempt too: hedge timers, retry backoff,
// and circuit-breaker cooldowns measure real time by design.
func TestWallClockFabricExemptFixture(t *testing.T) {
	checkFixture(t, lint.FixtureDir("wallclock", "fabric"), lint.WallClock)
}

func TestRNGSourceFixture(t *testing.T) {
	checkFixture(t, lint.FixtureDir("rngsource", "a"), lint.RNGSource)
}

func TestAtomicMixFixture(t *testing.T) {
	checkFixture(t, lint.FixtureDir("atomicmix", "a"), lint.AtomicMix)
}

// The suppression directive is itself under test: valid directives
// silence their target line, reason-less / unknown-analyzer / stale
// ones surface as findings of the reserved "ignore" analyzer.
func TestIgnoreDirectiveFixture(t *testing.T) {
	checkFixture(t, lint.FixtureDir("ignore", "a"), lint.Analyzers()...)
}

// The CI smoke package violates every invariant at once; each analyzer
// must land its finding.
func TestSmokeFixture(t *testing.T) {
	checkFixture(t, lint.FixtureDir("smoke"), lint.Analyzers()...)
}
