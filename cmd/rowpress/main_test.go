package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// mainEnv switches the test binary into running main: the tests re-exec
// it with this variable set so os.Exit codes are observable.
const mainEnv = "ROWPRESS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs main with args in a child process and returns its exit
// code, stdout and stderr.
func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, out.String(), errOut.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), out.String(), errOut.String()
	default:
		t.Fatalf("rowpress %v: %v", args, err)
		return -1, "", ""
	}
}

// TestRejectsUnusedFlags: every command that parses flags exits 2 on a
// flag it does not read, before doing any work, instead of silently
// ignoring it.
func TestRejectsUnusedFlags(t *testing.T) {
	cases := []struct {
		args []string
		flag string
	}{
		{[]string{"scenarios", "-workers", "8"}, "-workers"},
		{[]string{"run", "fig6", "-top", "3"}, "-top"},
		{[]string{"sweep", "fig6", "-scale", "0.05"}, "-scale"},
		{[]string{"profile", "fig6", "-cache-dir", t.TempDir()}, "-cache-dir"},
		{[]string{"all", "-format", "json"}, "-format"},
		{[]string{"history", "-workers", "2"}, "-workers"},
		{[]string{"compare", "a", "b", "-seed", "2"}, "-seed"},
		{[]string{"loadtest", "-workers", "2"}, "-workers"},
	}
	for _, c := range cases {
		code, _, stderr := runMain(t, c.args...)
		if code != 2 {
			t.Errorf("rowpress %v: exit %d, want 2 (stderr %q)", c.args, code, stderr)
			continue
		}
		if want := c.flag + " does not apply to"; !strings.Contains(stderr, want) {
			t.Errorf("rowpress %v: stderr %q does not name the rejected flag (%q)", c.args, stderr, want)
		}
	}
}

func TestScenariosCSV(t *testing.T) {
	if code, _, stderr := runMain(t, "scenarios", "-format", "csv"); code != 0 {
		t.Fatalf("rowpress scenarios -format csv: exit %d (stderr %q)", code, stderr)
	}
}

// TestLedgerDeterminismGate runs fig6 twice through one ledger and
// disk cache. Every history record's tier split sums to its shards, the
// second run answers from the disk cache, history serves every format,
// and `compare -gate determinism` passes on matching doc hashes.
func TestLedgerDeterminismGate(t *testing.T) {
	led, cache := t.TempDir(), t.TempDir()
	for i := 0; i < 2; i++ {
		if code, _, stderr := runMain(t, "run", "fig6", "-scale", "0.05", "-ledger-dir", led, "-cache-dir", cache); code != 0 {
			t.Fatalf("run %d: exit %d (stderr %q)", i, code, stderr)
		}
	}
	code, out, stderr := runMain(t, "history", "-ledger-dir", led, "-format", "json")
	if code != 0 {
		t.Fatalf("history -format json: exit %d (stderr %q)", code, stderr)
	}
	var recs []ledger.Record
	if err := json.Unmarshal([]byte(out), &recs); err != nil {
		t.Fatalf("history -format json: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("history holds %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Tiers.Total() != r.Shards {
			t.Errorf("record %s: tiers %+v sum to %d, not its %d shards", r.ID, r.Tiers, r.Tiers.Total(), r.Shards)
		}
	}
	if warm := recs[0]; warm.Experiment != "fig6" || warm.Shards == 0 || warm.Tiers.Miss != 0 {
		t.Errorf("newest record %s %s: %d shards, tiers %+v; want a fig6 run with no misses",
			warm.ID, warm.Experiment, warm.Shards, warm.Tiers)
	}
	for _, format := range []string{"text", "csv"} {
		if code, _, stderr := runMain(t, "history", "-ledger-dir", led, "-format", format); code != 0 {
			t.Errorf("history -format %s: exit %d (stderr %q)", format, code, stderr)
		}
	}
	code, out, stderr = runMain(t, "compare", "fig6", "fig6", "-ledger-dir", led, "-gate", "determinism")
	if code != 0 {
		t.Fatalf("compare -gate determinism: exit %d (stderr %q)", code, stderr)
	}
	for _, want := range []string{"doc hashes match", "tier shift"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output does not say %q:\n%s", want, out)
		}
	}
}

// traceEvent is the part of a Chrome trace event the trace test reads.
type traceEvent struct {
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat"`
	Name string         `json:"name"`
	Args map[string]any `json:"args"`
}

// tracedSpans runs work on a fresh engine with a span recorder, as
// -trace does, writes the trace file through writeTrace, and returns
// the file's complete ("X") events.
func tracedSpans(t *testing.T, work func(*engine.Engine) error) []traceEvent {
	t.Helper()
	e := engine.New(0, 0)
	e.SetRecorder(obs.NewRecorder(0))
	if err := work(e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(e.Recorder(), path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	var spans []traceEvent
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			spans = append(spans, ev)
		}
	}
	return spans
}

// TestTraceCoversShardLifecycle: a traced run records at least one
// execute span per planned shard (fig6 plans 12 module shards) plus the
// plan-build, merge and queue-wait spans, and printing its report
// through writeReport, as `rowpress run` does, a render span. A traced
// sweep runs through
// the same execution core as a single run, so its lookup spans carry
// the shard index and none is labelled with the pseudo-experiment
// "batch".
func TestTraceCoversShardLifecycle(t *testing.T) {
	o := core.DefaultOptions()
	o.Scale = 0.05
	spans := tracedSpans(t, func(e *engine.Engine) error {
		doc, _, err := core.RunObserved(e, "fig6", o, nil)
		if err != nil {
			return err
		}
		return writeReport(io.Discard, e.Recorder(), "fig6", doc, "text", time.Now())
	})
	execs := map[any]bool{}
	cats := map[string]bool{}
	for _, ev := range spans {
		cats[ev.Cat] = true
		if ev.Cat == "execute" {
			execs[ev.Args["shard"]] = true
		}
	}
	if len(execs) < 12 {
		t.Errorf("run: execute spans for %d shards, want >= 12", len(execs))
	}
	for _, cat := range []string{"plan_build", "merge", "queue_wait", "render"} {
		if !cats[cat] {
			t.Errorf("run: no %s span among %d", cat, len(spans))
		}
	}

	spec, err := buildSpec("fig6", "0.05", "1,2", "")
	if err != nil {
		t.Fatal(err)
	}
	spans = tracedSpans(t, func(e *engine.Engine) error {
		res, err := sweep.Run(e, spec)
		if err == nil && res.Failure() != "" {
			t.Errorf("sweep: %s", res.Failure())
		}
		return err
	})
	lookups := 0
	for _, ev := range spans {
		if strings.HasPrefix(ev.Cat, "cache_") {
			lookups++
			if _, ok := ev.Args["index"]; !ok {
				t.Errorf("sweep: lookup span %s has no index arg", ev.Name)
			}
		}
		if ev.Args["experiment"] == "batch" {
			t.Errorf("sweep: span %s labelled experiment \"batch\"", ev.Name)
		}
	}
	if lookups == 0 {
		t.Error("sweep: trace has no cache lookup spans")
	}
}
