package lint

import "testing"

func TestMapRangeFixture(t *testing.T) {
	checkFixture(t, fixtureDir("maprange", "a"), MapRange)
}

func TestWallClockFixture(t *testing.T) {
	checkFixture(t, fixtureDir("wallclock", "det"), WallClock)
}

// The obs path element exempts a package wholesale: the same calls that
// are findings in det produce none here.
func TestWallClockExemptFixture(t *testing.T) {
	checkFixture(t, fixtureDir("wallclock", "obs"), WallClock)
}

// The ledger path element is exempt the same way — its completion
// timestamps and wall-time measurements are the recorded data. The det
// fixture above keeps proving that non-exempt packages are still
// flagged.
func TestWallClockLedgerExemptFixture(t *testing.T) {
	checkFixture(t, fixtureDir("wallclock", "ledger"), WallClock)
}

// The fabric path element is exempt too: hedge timers, retry backoff,
// and circuit-breaker cooldowns measure real time by design.
func TestWallClockFabricExemptFixture(t *testing.T) {
	checkFixture(t, fixtureDir("wallclock", "fabric"), WallClock)
}

func TestRNGSourceFixture(t *testing.T) {
	checkFixture(t, fixtureDir("rngsource", "a"), RNGSource)
}

func TestAtomicMixFixture(t *testing.T) {
	checkFixture(t, fixtureDir("atomicmix", "a"), AtomicMix)
}

// The suppression directive is itself under test: valid directives
// silence their target line, reason-less / unknown-analyzer / stale
// ones surface as findings of the reserved "ignore" analyzer.
func TestIgnoreDirectiveFixture(t *testing.T) {
	checkFixture(t, fixtureDir("ignore", "a"), Analyzers()...)
}

// The smoke package violates every invariant at once: each analyzer,
// and the ignore pseudo-analyzer for directive hygiene, must land at
// least one finding, so an analyzer added without a smoke line fails
// here.
func TestSmokeFixture(t *testing.T) {
	found := map[string]bool{}
	for _, d := range checkFixture(t, fixtureDir("smoke"), Analyzers()...) {
		found[d.Analyzer] = true
	}
	names := []string{IgnoreAnalyzer}
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	for _, name := range names {
		if !found[name] {
			t.Errorf("smoke fixture: no %s finding; testdata/smoke needs a line that trips it", name)
		}
	}
}
