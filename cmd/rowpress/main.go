// Command rowpress lists and runs the reproduction's experiments — one
// regenerator per table and figure of "RowPress: Amplifying Read
// Disturbance in Modern DRAM Chips" (ISCA 2023).
//
// Runs execute on the sharded experiment engine: -workers picks the
// concurrency (0 = GOMAXPROCS), and within one invocation completed
// shards are cached per (experiment, options, shard), so repeated or
// overlapping runs of the same experiment are served from memory. To
// serve results over HTTP, run with -cache-dir and start rowpressd on
// the same directory: the daemon warm-starts from the disk tier.
//
// Runs produce typed result documents (internal/report): -format picks
// the rendering (text, the canonical JSON document, or CSV), -cache-dir
// layers a persistent shard cache under the in-memory one so a later
// invocation (or daemon) warm-starts from disk, and -stats prints a
// cache-tier summary line after the run.
//
// Observability: -trace FILE attaches a span recorder to the engine and
// writes the run's full shard lifecycle (queue wait, tiered cache
// lookups, execution, merge) as Chrome trace-event JSON loadable in
// chrome://tracing or Perfetto. `rowpress profile <id>` runs an
// experiment cold under the recorder and prints the critical-path /
// shard-dominance analysis instead of the experiment report.
//
// Cross-run analytics: -ledger-dir stamps every completed run and sweep
// into a persistent append-only ledger (internal/ledger) — identity
// hashes, wall time, tier-split shard counts, latency aggregates.
// `rowpress history` lists it, `rowpress compare <a> <b>` prints a
// benchstat-style delta between two records (with -gate for CI), and
// `rowpress loadtest` drives a live daemon with concurrent clients and
// records client- and server-side latency quantiles for the same
// window.
//
// Usage:
//
//	rowpress list
//	rowpress scenarios [-format text|csv]
//	rowpress run <id> [-scale 0.5] [-modules S0,S3] [-seed 7] [-workers 8]
//	                  [-format text|json|csv] [-cache-dir DIR] [-stats] [-trace FILE]
//	                  [-ledger-dir DIR]
//	rowpress sweep <id> [-scales 0.05,0.1] [-seeds 1,2] [-modulesets "S0,S3;H0,H4"]
//	                    [-format text|json|csv] [-workers 8] [-ledger-dir DIR]
//	rowpress profile <id> [-scale 0.5] [-workers 8] [-top 10] [-format text|json|csv]
//	                      [-trace FILE]
//	rowpress all [-scale 0.1] [-workers 8] [-cache-dir DIR] [-ledger-dir DIR]
//	rowpress history -ledger-dir DIR [-experiment fig6] [-kind run|sweep|loadtest]
//	                  [-limit 20] [-format text|json|csv]
//	rowpress compare <a> <b> -ledger-dir DIR [-threshold 0.1] [-gate determinism,regression]
//	                  [-format text|json|csv]
//	rowpress loadtest -ledger-dir DIR [-target http://localhost:8271] [-clients 8]
//	                  [-requests 64] [-mix fig6,table3] [-scale 0.05] [-format text|json|csv]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "scale factor in (0,1] for rows/victims/instructions")
	modules := fs.String("modules", "", "comma-separated Table 5 module ids (default: one per die revision)")
	seed := fs.Uint64("seed", 1, "seed for randomized components")
	scales := fs.String("scales", "", "comma-separated scale list (sweep command)")
	seeds := fs.String("seeds", "", "comma-separated seed list (sweep command)")
	moduleSets := fs.String("modulesets", "", `semicolon-separated module sets, e.g. "S0,S3;H0,H4" (sweep command)`)
	format := fs.String("format", "text", "output rendering: text|json|csv (run/sweep; scenarios supports text|csv)")
	workers := fs.Int("workers", 0, "concurrent shards per experiment (0 = GOMAXPROCS)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (run/sweep/all)")
	cacheDir := fs.String("cache-dir", "", "persistent shard-cache directory (warm-starts across invocations and daemons)")
	stats := fs.Bool("stats", false, "print a cache-tier summary line after the run (run/sweep/all)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (run/sweep/all/profile)")
	top := fs.Int("top", 10, "rows in the shard-dominance table (profile command)")
	ledgerDir := fs.String("ledger-dir", "", "persistent run-ledger directory (stamps runs; history/compare/loadtest read it)")
	histExp := fs.String("experiment", "", "filter records by experiment id (history command)")
	histKind := fs.String("kind", "", "filter records by kind: run|sweep|loadtest (history command)")
	limit := fs.Int("limit", 0, "max records to list, newest first; 0 = all (history command)")
	threshold := fs.Float64("threshold", 0, "regression-flag threshold as a fraction; 0 = default (compare command)")
	gate := fs.String("gate", "", "comma-separated findings that fail the exit code: determinism,regression (compare command)")
	clients := fs.Int("clients", 0, "concurrent clients; 0 = default (loadtest command)")
	requests := fs.Int("requests", 0, "total requests across clients; 0 = default (loadtest command)")
	mix := fs.String("mix", "", "comma-separated experiment ids issued round-robin (loadtest command)")
	target := fs.String("target", "http://localhost:8271", "daemon base URL (loadtest command)")

	opts := func() core.Options {
		o := core.DefaultOptions()
		o.Scale = *scale
		o.Seed = *seed
		if *modules != "" {
			o.Modules = strings.Split(*modules, ",")
		}
		return o
	}
	eng := func() *engine.Engine {
		e := engine.New(*workers, 0)
		if *cacheDir != "" {
			dc, err := engine.OpenDiskCache(*cacheDir, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rowpress: -cache-dir: %v\n", err)
				os.Exit(1)
			}
			e.AttachDiskCache(dc)
		}
		if *tracePath != "" {
			e.SetRecorder(obs.NewRecorder(0))
		}
		return e
	}
	// openLedger opens -ledger-dir. Commands that only read the ledger
	// (history, compare) require one; run-executing commands skip
	// stamping when unset.
	openLedger := func(required bool) *ledger.Ledger {
		if *ledgerDir == "" {
			if required {
				fmt.Fprintf(os.Stderr, "rowpress: %s needs -ledger-dir\n", cmd)
				os.Exit(2)
			}
			return nil
		}
		l, err := ledger.Open(*ledgerDir, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rowpress: -ledger-dir: %v\n", err)
			os.Exit(1)
		}
		return l
	}
	// finish writes the trace, flushes the disk-cache index, and prints
	// the -stats summary; every run-executing command calls it before
	// exiting.
	finish := func(e *engine.Engine) {
		if *tracePath != "" {
			if err := writeTrace(e.Recorder(), *tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "rowpress: -trace: %v\n", err)
				os.Exit(1)
			}
		}
		if d := e.Disk(); d != nil {
			if err := d.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "rowpress: cache flush: %v\n", err)
			}
		}
		if *stats {
			// Diagnostics go to stderr so -format json/csv stdout stays
			// machine-parseable.
			fmt.Fprint(os.Stderr, statsLine(e))
		}
	}

	switch cmd {
	case "list":
		for _, e := range core.List() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
	case "scenarios":
		if err := fs.Parse(os.Args[2:]); err != nil {
			os.Exit(2)
		}
		rejectFlags(fs, "scenarios", "scale", "seed", "modules", "scales", "seeds", "modulesets", "workers", "cpuprofile", "cache-dir", "stats", "trace", "top",
			"ledger-dir", "experiment", "kind", "limit", "threshold", "gate", "clients", "requests", "mix", "target")
		switch *format {
		case "text":
			fmt.Print(scenario.MatrixText())
		case "csv":
			fmt.Print(scenario.MatrixCSV())
		default:
			fmt.Fprintf(os.Stderr, "rowpress: bad -format %q for scenarios: want text|csv\n", *format)
			os.Exit(2)
		}
	case "run":
		rest := os.Args[2:]
		if len(rest) == 0 {
			fmt.Fprintln(os.Stderr, "rowpress run <id> [flags]")
			os.Exit(2)
		}
		id := rest[0]
		if err := fs.Parse(rest[1:]); err != nil {
			os.Exit(2)
		}
		rejectFlags(fs, "run", "scales", "seeds", "modulesets", "top",
			"experiment", "kind", "limit", "threshold", "gate", "clients", "requests", "mix", "target")
		switch *format {
		case "text", "json", "csv":
		default:
			fmt.Fprintf(os.Stderr, "rowpress: bad -format %q: want text|json|csv\n", *format)
			os.Exit(2)
		}
		e := eng()
		led := openLedger(false)
		stop := startProfile(*cpuprofile)
		runOne(e, led, id, opts(), *format)
		stop()
		finish(e)
	case "sweep":
		rest := os.Args[2:]
		if len(rest) == 0 {
			fmt.Fprintln(os.Stderr, "rowpress sweep <id> [flags]")
			os.Exit(2)
		}
		id := rest[0]
		if err := fs.Parse(rest[1:]); err != nil {
			os.Exit(2)
		}
		rejectFlags(fs, "sweep", "scale", "seed", "modules", "top",
			"experiment", "kind", "limit", "threshold", "gate", "clients", "requests", "mix", "target")
		switch *format {
		case "text", "json", "csv":
		default:
			fmt.Fprintf(os.Stderr, "rowpress: bad -format %q: want text|json|csv\n", *format)
			os.Exit(2)
		}
		spec, err := buildSpec(id, *scales, *seeds, *moduleSets)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rowpress: %v\n", err)
			os.Exit(2)
		}
		e := eng()
		led := openLedger(false)
		stop := startProfile(*cpuprofile)
		runSweep(e, led, spec, *format)
		stop()
		finish(e)
	case "profile":
		rest := os.Args[2:]
		if len(rest) == 0 {
			fmt.Fprintln(os.Stderr, "rowpress profile <id> [flags]")
			os.Exit(2)
		}
		id := rest[0]
		if err := fs.Parse(rest[1:]); err != nil {
			os.Exit(2)
		}
		// Profiling measures a cold run: a warm-start cache would hide
		// exactly the execution being measured.
		rejectFlags(fs, "profile", "scales", "seeds", "modulesets", "cache-dir", "stats",
			"ledger-dir", "experiment", "kind", "limit", "threshold", "gate", "clients", "requests", "mix", "target")
		switch *format {
		case "text", "json", "csv":
		default:
			fmt.Fprintf(os.Stderr, "rowpress: bad -format %q: want text|json|csv\n", *format)
			os.Exit(2)
		}
		stop := startProfile(*cpuprofile)
		runProfile(id, opts(), *workers, *top, *format, *tracePath)
		stop()
	case "all":
		if err := fs.Parse(os.Args[2:]); err != nil {
			os.Exit(2)
		}
		rejectFlags(fs, "all", "scales", "seeds", "modulesets", "format", "top",
			"experiment", "kind", "limit", "threshold", "gate", "clients", "requests", "mix", "target")
		e := eng()
		led := openLedger(false)
		stop := startProfile(*cpuprofile)
		for _, exp := range core.List() {
			runOne(e, led, exp.ID, opts(), "text")
		}
		stop()
		finish(e)
	case "history":
		if err := fs.Parse(os.Args[2:]); err != nil {
			os.Exit(2)
		}
		rejectFlags(fs, "history", "scale", "seed", "modules", "scales", "seeds", "modulesets",
			"workers", "cpuprofile", "cache-dir", "stats", "trace", "top",
			"threshold", "gate", "clients", "requests", "mix", "target")
		led := openLedger(true)
		recs := led.Records(ledger.Query{Experiment: *histExp, Kind: *histKind, Limit: *limit})
		switch *format {
		case "json":
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if recs == nil {
				recs = []ledger.Record{}
			}
			if err := enc.Encode(recs); err != nil {
				fmt.Fprintf(os.Stderr, "rowpress: %v\n", err)
				os.Exit(1)
			}
		case "csv":
			fmt.Print(report.CSV(ledger.HistoryDoc(recs, led.Stats())))
		case "text":
			fmt.Print(report.Text(ledger.HistoryDoc(recs, led.Stats())))
		default:
			fmt.Fprintf(os.Stderr, "rowpress: bad -format %q: want text|json|csv\n", *format)
			os.Exit(2)
		}
	case "compare":
		rest := os.Args[2:]
		if len(rest) < 2 || strings.HasPrefix(rest[0], "-") || strings.HasPrefix(rest[1], "-") {
			fmt.Fprintln(os.Stderr, "rowpress compare <a> <b> [flags]   (selectors: record id, or experiment[~N])")
			os.Exit(2)
		}
		selA, selB := rest[0], rest[1]
		if err := fs.Parse(rest[2:]); err != nil {
			os.Exit(2)
		}
		rejectFlags(fs, "compare", "scale", "seed", "modules", "scales", "seeds", "modulesets",
			"workers", "cpuprofile", "cache-dir", "stats", "trace", "top",
			"experiment", "kind", "limit", "clients", "requests", "mix", "target")
		led := openLedger(true)
		a, b, err := led.ResolvePair(selA, selB)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rowpress: compare: %v\n", err)
			os.Exit(1)
		}
		d := ledger.Compare(a, b, ledger.CompareOptions{Threshold: *threshold})
		switch *format {
		case "json":
			bts, err := report.JSON(d.Doc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rowpress: %v\n", err)
				os.Exit(1)
			}
			os.Stdout.Write(bts)
		case "csv":
			fmt.Print(report.CSV(d.Doc))
		case "text":
			fmt.Print(report.Text(d.Doc))
		default:
			fmt.Fprintf(os.Stderr, "rowpress: bad -format %q: want text|json|csv\n", *format)
			os.Exit(2)
		}
		failed := false
		for _, g := range splitList(*gate, ",") {
			switch g {
			case "determinism":
				if d.DeterminismViolation {
					fmt.Fprintln(os.Stderr, "rowpress: compare: determinism gate failed")
					failed = true
				}
			case "regression":
				if d.Regression {
					fmt.Fprintln(os.Stderr, "rowpress: compare: regression gate failed")
					failed = true
				}
			default:
				fmt.Fprintf(os.Stderr, "rowpress: bad -gate %q: want determinism|regression\n", g)
				os.Exit(2)
			}
		}
		if failed {
			os.Exit(1)
		}
	case "loadtest":
		if err := fs.Parse(os.Args[2:]); err != nil {
			os.Exit(2)
		}
		rejectFlags(fs, "loadtest", "modules", "scales", "seeds", "modulesets",
			"workers", "cpuprofile", "cache-dir", "stats", "trace", "top",
			"experiment", "kind", "limit", "threshold", "gate")
		switch *format {
		case "text", "json", "csv":
		default:
			fmt.Fprintf(os.Stderr, "rowpress: bad -format %q: want text|json|csv\n", *format)
			os.Exit(2)
		}
		cfg := ledger.LoadTestConfig{
			BaseURL:  *target,
			Clients:  *clients,
			Requests: *requests,
			Mix:      splitList(*mix, ","),
			Seed:     *seed,
		}
		// -scale defaults to 1.0 for run commands; for a load test an
		// unset flag should mean the harness default, not a full run.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "scale" {
				cfg.Scale = *scale
			}
		})
		rec, doc, err := ledger.LoadTest(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rowpress: loadtest: %v\n", err)
			os.Exit(1)
		}
		if led := openLedger(false); led != nil {
			if _, aerr := led.Append(rec); aerr != nil {
				fmt.Fprintf(os.Stderr, "rowpress: ledger: %v\n", aerr)
			}
			led.Close()
		}
		switch *format {
		case "json":
			bts, err := report.JSON(doc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rowpress: %v\n", err)
				os.Exit(1)
			}
			os.Stdout.Write(bts)
		case "csv":
			fmt.Print(report.CSV(doc))
		default:
			fmt.Print(report.Text(doc))
		}
	default:
		usage()
		os.Exit(2)
	}
}

// startProfile begins CPU profiling into path (no-op when empty) and
// returns the stop function. Profiles cover the measured runs only.
func startProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rowpress: -cpuprofile: %v\n", err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "rowpress: -cpuprofile: %v\n", err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rowpress: -cpuprofile: %v\n", err)
		}
	}
}

// runOne executes one experiment and renders its document. With a
// ledger attached it also stamps the durable run record (failed runs
// included; see ledger.RunRecord), adding the profile summary when
// tracing is on.
func runOne(eng *engine.Engine, led *ledger.Ledger, id string, o core.Options, format string) {
	start := time.Now()
	var before engine.Metrics
	var spanLo int
	if led != nil {
		before = eng.Metrics()
		if rec := eng.Recorder(); rec != nil {
			spanLo = len(rec.Snapshot())
		}
	}
	doc, st, err := core.RunObserved(eng, id, o, nil)
	if led != nil {
		lr := ledger.RunRecord(id, o.Hash(), eng.Workers(), st, eng.Metrics().Sub(before), doc, err)
		if rec := eng.Recorder(); rec != nil {
			spans := rec.Snapshot()
			if spanLo > len(spans) {
				spanLo = 0 // trace ring overflowed; analyze what remains
			}
			lr.Profile = ledger.ProfileFrom(obs.Analyze(spans[spanLo:]), eng.Workers())
		}
		if _, aerr := led.Append(lr); aerr != nil {
			fmt.Fprintf(os.Stderr, "rowpress: ledger: %v\n", aerr)
		}
	}
	if err == nil {
		err = writeReport(os.Stdout, eng.Recorder(), id, doc, format, start)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rowpress: %s: %v\n", id, err)
		os.Exit(1)
	}
}

// writeReport renders doc in format and writes it to w, timed as a
// render span on rec (nil: untimed). The text report is headed by the
// run's elapsed time since start.
func writeReport(w io.Writer, rec *obs.Recorder, id string, doc *report.Doc, format string, start time.Time) error {
	defer rec.Start(obs.Render, id)()
	var b []byte
	switch format {
	case "json":
		j, err := report.JSON(doc)
		if err != nil {
			return err
		}
		b = j
	case "csv":
		b = report.AppendCSV(nil, doc)
	default:
		b = fmt.Appendf(nil, "# %s (%.1fs)\n", id, time.Since(start).Seconds())
		b = append(report.AppendText(b, doc), '\n')
	}
	_, err := w.Write(b)
	return err
}

// runProfile executes one experiment cold under a span recorder and
// prints the critical-path / shard-dominance analysis instead of the
// experiment report. The engine is always fresh (no warm-start cache,
// no prior runs), so every shard actually executes and the profile
// measures real work.
func runProfile(id string, o core.Options, workers, top int, format, tracePath string) {
	e := engine.New(workers, 0)
	rec := obs.NewRecorder(0)
	e.SetRecorder(rec)
	start := time.Now()
	if _, err := core.RunWith(e, id, o); err != nil {
		fmt.Fprintf(os.Stderr, "rowpress: profile %s: %v\n", id, err)
		os.Exit(1)
	}
	wall := time.Since(start)
	spans := rec.Snapshot()
	doc := obs.Analyze(spans).Doc(top)
	doc.Experiment = id
	doc.Title = "Execution profile: " + id
	doc.Params = append(doc.Params,
		report.Param{Key: "scale", Value: fmt.Sprintf("%g", o.Scale)},
		report.Param{Key: "workers", Value: strconv.Itoa(e.Workers())},
	)
	switch format {
	case "json":
		b, err := report.JSON(doc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rowpress: profile %s: %v\n", id, err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
	case "csv":
		fmt.Print(report.CSV(doc))
	default:
		fmt.Printf("# profile %s (%.1fs wall, %d spans)\n%s\n", id, wall.Seconds(), len(spans), report.Text(doc))
	}
	if tracePath != "" {
		if err := writeTrace(rec, tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "rowpress: -trace: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeTrace dumps the recorder's spans as Chrome trace-event JSON.
func writeTrace(rec *obs.Recorder, path string) error {
	if rec == nil {
		return fmt.Errorf("engine has no span recorder attached")
	}
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "rowpress: trace ring overflowed; oldest %d spans dropped\n", d)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, rec.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// statsLine summarizes both cache tiers — plus queue wait and
// tier-attributed lookup latency — after the measured runs: the
// operator-facing view of the /v1/metrics counters.
func statsLine(eng *engine.Engine) string {
	m := eng.Metrics()
	line := fmt.Sprintf("# stats: runs=%d shards=%d executed=%d cache_hits=%d | mem entries=%d hits=%d misses=%d evictions=%d",
		m.Runs, m.ShardsPlanned, m.ShardsExecuted, m.CacheHits,
		m.Mem.Entries, m.Mem.Hits, m.Mem.Misses, m.Mem.Evictions)
	if eng.Disk() != nil {
		line += fmt.Sprintf(" | disk entries=%d bytes=%d hits=%d misses=%d evictions=%d writes=%d write_errors=%d",
			m.Disk.Entries, m.Disk.Bytes, m.Disk.Hits, m.Disk.Misses, m.Disk.Evictions,
			m.Disk.Writes, m.Disk.WriteErrors)
	}
	line += fmt.Sprintf(" | queue waits=%d avg=%s | lookup mem=%d/%s disk=%d/%s miss=%d/%s",
		m.QueueWait.Count, m.QueueWait.Avg().Round(time.Microsecond),
		m.MemLookup.Count, m.MemLookup.Avg().Round(time.Microsecond),
		m.DiskLookup.Count, m.DiskLookup.Avg().Round(time.Microsecond),
		m.MissLookup.Count, m.MissLookup.Avg().Round(time.Microsecond))
	return line + "\n"
}

// rejectFlags exits when any of the named flags was set explicitly: the
// run and sweep grammars are near-identical (-scale vs -scales), so
// silently ignoring the wrong variant would run something very
// different from what the user asked for.
func rejectFlags(fs *flag.FlagSet, cmd string, names ...string) {
	bad := make(map[string]bool, len(names))
	for _, n := range names {
		bad[n] = true
	}
	fs.Visit(func(f *flag.Flag) {
		if bad[f.Name] {
			fmt.Fprintf(os.Stderr, "rowpress: -%s does not apply to %q (see `rowpress` usage)\n", f.Name, cmd)
			os.Exit(2)
		}
	})
}

// buildSpec parses the sweep flag grammar: comma-separated scales and
// seeds, semicolon-separated module sets (each itself comma-separated;
// an empty set selects the representative modules).
func buildSpec(id, scales, seeds, moduleSets string) (sweep.Spec, error) {
	spec := sweep.Spec{Experiment: id}
	for _, v := range splitList(scales, ",") {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return spec, fmt.Errorf("bad scale %q: %v", v, err)
		}
		spec.Scales = append(spec.Scales, f)
	}
	for _, v := range splitList(seeds, ",") {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return spec, fmt.Errorf("bad seed %q: %v", v, err)
		}
		spec.Seeds = append(spec.Seeds, u)
	}
	for _, set := range splitList(moduleSets, ";") {
		spec.ModuleSets = append(spec.ModuleSets, strings.Split(set, ","))
	}
	return spec, nil
}

// splitList splits on sep, trimming whitespace and dropping empties.
func splitList(s, sep string) []string {
	var out []string
	for _, v := range strings.Split(s, sep) {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func runSweep(eng *engine.Engine, led *ledger.Ledger, spec sweep.Spec, format string) {
	start := time.Now()
	var before engine.Metrics
	if led != nil {
		before = eng.Metrics()
	}
	res, err := sweep.Run(eng, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rowpress: sweep %s: %v\n", spec.Experiment, err)
		os.Exit(1)
	}
	if led != nil {
		lr := res.LedgerRecord(spec, eng.Workers(), eng.Metrics().Sub(before))
		if _, aerr := led.Append(lr); aerr != nil {
			fmt.Fprintf(os.Stderr, "rowpress: ledger: %v\n", aerr)
		}
	}
	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "rowpress: %v\n", err)
			os.Exit(1)
		}
	case "csv":
		fmt.Print(res.CSV())
	default: // "text"; format is validated before the sweep runs
		fmt.Printf("# sweep %s (%d points, %.1fs)\n%s", spec.Experiment,
			res.Aggregate.Points, time.Since(start).Seconds(), res.Text())
	}
	if res.Aggregate.Failed > 0 {
		fmt.Fprintf(os.Stderr, "rowpress: sweep %s: %d/%d points failed\n",
			spec.Experiment, res.Aggregate.Failed, res.Aggregate.Points)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `rowpress — RowPress (ISCA 2023) reproduction harness

commands:
  list                 list all experiment ids (figures and tables)
  scenarios [flags]    list the attack-scenario matrix (-format text|csv)
  run <id> [flags]     run one experiment and print its report
  sweep <id> [flags]   run a batched parameter grid over one experiment
  profile <id> [flags] run one experiment cold and print the critical-path /
                       shard-dominance analysis (-top N rows, -trace FILE)
  all [flags]          run every experiment (serve the results: -cache-dir DIR,
                       then rowpressd -cache-dir DIR)
  history [flags]      list the persistent run ledger (-ledger-dir required;
                       -experiment ID, -kind run|sweep|loadtest, -limit N)
  compare <a> <b>      benchstat-style delta between two ledger records;
                       selectors are a record id or experiment[~N] (N-th newest);
                       -threshold F, -gate determinism,regression exits 1 on a hit
  loadtest [flags]     drive a live daemon with concurrent clients and record
                       client+server latency quantiles into the ledger
                       (-target URL, -clients N, -requests N, -mix id,id,...)

flags: -scale F  -modules S0,S3,...  -seed N  -workers N  -cpuprofile FILE
       -format text|json|csv  -cache-dir DIR (persistent warm-start cache)  -stats (cache-tier summary)
       -trace FILE (Chrome trace-event JSON of the shard lifecycle; chrome://tracing, Perfetto)
       -ledger-dir DIR (append-only run ledger; run/sweep/all stamp records, history/compare/loadtest read)
sweep flags: -scales F,F,...  -seeds N,N,...  -modulesets "S0,S3;H0,H4"`)
}
