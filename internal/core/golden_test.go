package core

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/report"
)

// -update regenerates the golden reports and documents
// (testdata/golden/<id>.golden and <id>.json). Only use it for
// deliberate, reviewed output changes: the goldens pin every experiment
// report to the byte-exact output of the original per-command
// simulation path, so the batched/closed-form fast paths cannot drift
// without failing here.
var updateGolden = flag.Bool("update", false, "rewrite golden experiment reports and documents")

func goldenOptions() Options {
	return Options{Scale: 0.05, Seed: 1, Modules: []string{"S0", "S3", "M3"}}
}

// goldenWorkers are the pool sizes of the golden engines. The first
// (serial) engine writes every payload through a disk tier.
var goldenWorkers = [3]int{1, 2, 8}

// golden holds the engines every experiment runs cold on at the golden
// options, and each experiment's runs. The golden, determinism,
// renderer and smoke suites all check the same runs, so an experiment
// runs cold once per engine per test binary, not once per suite.
var golden struct {
	mu   sync.Mutex
	dir  string // the serial engine's disk-cache directory
	disk *engine.DiskCache
	engs [3]*engine.Engine
	runs map[string]*coldRun
}

// coldRun is one experiment's runs on the golden engines: a cold run on
// each, then a repeat on the 8-worker engine.
type coldRun struct {
	docs      [3]*report.Doc
	stats     [3]engine.RunStats
	warm      *report.Doc
	warmStats engine.RunStats
	err       error
}

// text is the run's report, rendered from the serial engine's document.
func (r *coldRun) text() string { return report.Text(r.docs[0]) }

func TestMain(m *testing.M) {
	code := m.Run()
	if golden.dir != "" {
		os.RemoveAll(golden.dir)
	}
	os.Exit(code)
}

// coldRunOf returns experiment id's golden runs, running them on first
// use. A failed run fails every test that asks for it.
func coldRunOf(t *testing.T, id string) *coldRun {
	t.Helper()
	golden.mu.Lock()
	defer golden.mu.Unlock()
	if golden.runs == nil {
		dir, err := os.MkdirTemp("", "core-golden-")
		if err != nil {
			t.Fatal(err)
		}
		golden.dir = dir
		if golden.disk, err = engine.OpenDiskCache(dir, 0); err != nil {
			t.Fatal(err)
		}
		for i, w := range goldenWorkers {
			golden.engs[i] = engine.New(w, 0)
		}
		golden.engs[0].AttachDiskCache(golden.disk)
		golden.runs = map[string]*coldRun{}
	}
	r, ok := golden.runs[id]
	if !ok {
		r = &coldRun{}
		o := goldenOptions()
		for i, e := range golden.engs {
			if r.docs[i], r.stats[i], r.err = RunObserved(e, id, o, nil); r.err != nil {
				r.err = fmt.Errorf("%d workers: %w", goldenWorkers[i], r.err)
				break
			}
		}
		if r.err == nil {
			r.warm, r.warmStats, r.err = RunObserved(golden.engs[2], id, o, nil)
		}
		golden.runs[id] = r
	}
	if r.err != nil {
		t.Fatalf("run: %v", r.err)
	}
	return r
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
	var ran []string // experiments the serial engine wrote through the disk tier
	for _, e := range List() {
		t.Run(e.ID, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", e.ID+".golden")
			r := coldRunOf(t, e.ID)
			ran = append(ran, e.ID)
			got := r.text()
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
			for i := 1; i < len(goldenWorkers); i++ {
				if report.Text(r.docs[i]) != got {
					t.Errorf("%d-worker report differs from serial report", goldenWorkers[i])
				}
			}
		})
	}
	if t.Failed() || *updateGolden {
		return
	}
	if st := golden.disk.Stats(); st.Skips != 0 || st.WriteErrors != 0 || st.Evictions != 0 {
		t.Fatalf("disk tier lost payloads: %d skips (unregistered type), %d write errors, %d evictions",
			st.Skips, st.WriteErrors, st.Evictions)
	}

	warmDisk, err := engine.OpenDiskCache(golden.dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := engine.New(1, 0)
	warm.AttachDiskCache(warmDisk)
	for _, id := range ran {
		doc, st, err := RunObserved(warm, id, goldenOptions(), nil)
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

// TestEngineDeterminismAndCache is the engine's core contract: for every
// registered experiment, the same (experiment, Options) must produce
// byte-identical reports at every worker count, each cold run must
// execute every shard, and a repeated run on the same engine must be
// served entirely from the shard cache.
func TestEngineDeterminismAndCache(t *testing.T) {
	for _, e := range List() {
		t.Run(e.ID, func(t *testing.T) {
			r := coldRunOf(t, e.ID)
			for i, st := range r.stats {
				if st.Executed != st.Shards {
					t.Fatalf("cold run on %d workers should execute every shard: %+v", goldenWorkers[i], st)
				}
			}
			got1, got8 := r.text(), report.Text(r.docs[2])
			if got1 != got8 {
				t.Fatalf("workers=1 and workers=8 reports differ:\n--- w1 ---\n%s\n--- w8 ---\n%s", got1, got8)
			}
			if r.warmStats.Executed != 0 || r.warmStats.CacheHits != r.warmStats.Shards {
				t.Fatalf("warm run re-executed shards: %+v", r.warmStats)
			}
			if report.Text(r.warm) != got8 {
				t.Fatal("cached report differs from computed report")
			}
		})
	}
}

// TestRendererEquivalence is the renderer contract for the typed result
// model, checked for every registered experiment:
//
//   - report.Text(doc) is byte-identical to the pre-refactor merge
//     output (the checked-in golden files, which predate the Doc model);
//   - the canonical JSON encoding is deterministic (two encodes agree),
//     equals the checked-in testdata/golden/<id>.json (the documents
//     internal/report's differential renderer tests replay), round-trips
//     through encoding/json losslessly, and re-renders to the same text
//     after the round trip;
//   - the CSV rendering is non-empty and every non-comment line parses
//     as RFC 4180 CSV.
func TestRendererEquivalence(t *testing.T) {
	for _, e := range List() {
		t.Run(e.ID, func(t *testing.T) {
			doc := coldRunOf(t, e.ID).docs[0]

			want, err := os.ReadFile(filepath.Join("testdata", "golden", e.ID+".golden"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			text := report.Text(doc)
			if text != string(want) {
				t.Errorf("report.Text differs from pre-refactor golden output")
			}

			j1, err := report.JSON(doc)
			if err != nil {
				t.Fatalf("JSON: %v", err)
			}
			j2, _ := report.JSON(doc)
			if !bytes.Equal(j1, j2) {
				t.Error("canonical JSON is not deterministic across encodes")
			}
			jpath := filepath.Join("testdata", "golden", e.ID+".json")
			if *updateGolden {
				if err := os.WriteFile(jpath, j1, 0o644); err != nil {
					t.Fatal(err)
				}
			} else if jwant, err := os.ReadFile(jpath); err != nil {
				t.Errorf("missing golden document (run with -update to create): %v", err)
			} else if !bytes.Equal(j1, jwant) {
				t.Errorf("canonical JSON differs from golden document %s", jpath)
			}
			var round report.Doc
			if err := json.Unmarshal(j1, &round); err != nil {
				t.Fatalf("JSON does not round-trip: %v", err)
			}
			j3, err := report.JSON(&round)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(j1, j3) {
				t.Error("JSON round trip changed the canonical encoding")
			}
			if report.Text(&round) != text {
				t.Error("text rendering changed after a JSON round trip")
			}

			csvOut := report.CSV(doc)
			if csvOut == "" || !strings.HasPrefix(csvOut, "# experiment: "+e.ID+"\n") {
				first, _, _ := strings.Cut(csvOut, "\n")
				t.Fatalf("CSV rendering malformed: %q", first)
			}
			var data strings.Builder
			for _, line := range strings.Split(csvOut, "\n") {
				if line == "" || strings.HasPrefix(line, "# ") {
					continue
				}
				data.WriteString(line)
				data.WriteByte('\n')
			}
			cr := csv.NewReader(strings.NewReader(data.String()))
			cr.FieldsPerRecord = -1 // sections have different widths
			if _, err := cr.ReadAll(); err != nil {
				t.Fatalf("CSV data rows do not parse: %v", err)
			}
		})
	}
}

// TestSmokeAllExperiments checks every experiment's document is stamped
// with its metadata and renders at least one section.
func TestSmokeAllExperiments(t *testing.T) {
	for _, e := range List() {
		t.Run(e.ID, func(t *testing.T) {
			doc := coldRunOf(t, e.ID).docs[0]
			if len(doc.Sections) == 0 {
				t.Fatalf("%s: document has no sections", e.ID)
			}
			if doc.Experiment != e.ID || doc.Title != e.Title || len(doc.Params) == 0 {
				t.Fatalf("%s: metadata not stamped: %+v", e.ID, doc)
			}
			if !strings.Contains(report.Text(doc), "==") {
				t.Fatalf("%s: text rendering lacks section header", e.ID)
			}
		})
	}
}
