package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/report"
)

// -update regenerates the golden reports. Only use it for deliberate,
// reviewed output changes: the goldens pin every experiment report to the
// byte-exact output of the original per-command simulation path, so the
// batched/closed-form fast paths cannot drift without failing here.
var updateGolden = flag.Bool("update", false, "rewrite golden experiment reports")

// goldenOptions mirrors TestEngineDeterminismAndCache's configuration so
// the two suites pin the same reports.
func goldenOptions() Options {
	return Options{Scale: 0.05, Seed: 1, Modules: []string{"S0", "S3", "M3"}}
}

// TestGoldenReports asserts that every registered experiment reproduces
// its checked-in pre-refactor report byte-for-byte at one, two, and
// eight workers. This is the acceptance gate for the closed-form accrual
// and replay-free search rework, and — since the dominant shards now
// declare sub-shard splits — for the two-level merge: any numerical or
// ordering drift in the fast paths, and any completion-order dependence
// in a Gather, shows up as a diff here.
//
// The serial engine also writes every payload through a disk tier, and
// a fresh engine on the same directory then replays each experiment
// from disk alone. That proves every payload type the experiments
// produce is gob-registered by its plan builder and survives encode and
// decode, across all shard shapes.
func TestGoldenReports(t *testing.T) {
	o := goldenOptions()
	dir := t.TempDir()
	dc, err := engine.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	serial := engine.New(1, 0)
	serial.AttachDiskCache(dc)
	two := engine.New(2, 0)
	wide := engine.New(8, 0)
	var ran []string // experiments the serial engine wrote through the disk tier
	for _, e := range List() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", e.ID+".golden")
			doc, err := RunWith(serial, e.ID, o)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			ran = append(ran, e.ID)
			got := report.Text(doc)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("report differs from golden %s\n--- want ---\n%s\n--- got ---\n%s",
					path, want, got)
			}
			for _, w := range []struct {
				n   int
				eng *engine.Engine
			}{{2, two}, {8, wide}} {
				wideDoc, err := RunWith(w.eng, e.ID, o)
				if err != nil {
					t.Fatalf("run (%d workers): %v", w.n, err)
				}
				if report.Text(wideDoc) != got {
					t.Errorf("%d-worker report differs from serial report", w.n)
				}
			}
		})
	}
	if t.Failed() || *updateGolden {
		return
	}
	if st := dc.Stats(); st.Skips != 0 || st.WriteErrors != 0 || st.Evictions != 0 {
		t.Fatalf("disk tier lost payloads: %d skips (unregistered type), %d write errors, %d evictions",
			st.Skips, st.WriteErrors, st.Evictions)
	}

	warmDisk, err := engine.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := engine.New(1, 0)
	warm.AttachDiskCache(warmDisk)
	for _, id := range ran {
		doc, st, err := RunObserved(warm, id, o, nil)
		if err != nil {
			t.Fatalf("%s: disk replay: %v", id, err)
		}
		if st.Executed != 0 || st.SubExecuted != 0 {
			t.Errorf("%s: disk replay executed %d shards and %d sub-shards, want 0", id, st.Executed, st.SubExecuted)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if report.Text(doc) != string(want) {
			t.Errorf("%s: disk replay differs from golden", id)
		}
	}
}
