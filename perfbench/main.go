// Command perfbench is the repository's benchmark: four closed-loop
// workloads over the RowPress regenerators, each checked output for
// output against the committed golden reports.
//
//	bash perfbench/run.sh --workload serve-warm --seed 3 --seconds 12 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json,
// measured with tracing off; with --trace 1 it prints the per-layer
// metrics, from a run with a span recorder attached to every engine and
// the benchmark timing its own calls into each layer. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. NOTES.md explains the workloads and the per-layer budget.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times a --trace 0 run sets its workload up;
// setup_s is the median.
const setupReps = 3

// windows is how many equal windows the end-to-end figures of a
// time-bounded phase are the median of. Phases of whole cycles report
// the cycles as one window, so every run measures the same op mix.
const windows = 5

// traceSpans bounds the recorder of a traced run. The traced phase ends
// early once half of it is used, so the probe after it never drops.
const traceSpans = 1 << 18

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "regen-cold, sweep-cold, serve-warm or restart-disk")
	seed := fs.Uint64("seed", 1, "workload seed: experiment order, request formats, sweep grids")
	seconds := fs.Float64("seconds", 15, "length of a measured phase")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	root := fs.String("root", ".", "repository root (holds internal/core/testdata/golden)")
	tmp := fs.String("tmp", ".bench_build/tmp", "directory for the workloads' disk caches")
	maxOps := fs.Int("max-ops", 0, "end each measured phase after this many ops (0: no limit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := execute(*name, *seed, *seconds, *trace == 1, *root, *tmp, *maxOps, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func execute(name string, seed uint64, seconds float64, trace bool, root, tmp string, maxOps int, out io.Writer) (*result, error) {
	if _, err := os.Stat(filepath.Join(root, "internal", "core", "testdata", "golden")); err != nil {
		return nil, fmt.Errorf("no golden reports under %s: run from the repository root: %w", root, err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	b := &bench{root: root, tmp: tmp, seed: seed, seconds: seconds, maxOps: maxOps, opts: goldenOptions(), nw: workers()}
	w, err := newWorkload(b, name)
	if err != nil {
		return nil, err
	}
	defer w.close()
	fmt.Fprintf(out, "workload %s seed %d: %d engine workers, %d clients, options scale=%g seed=%d modules=%v\n",
		name, seed, b.nw, w.loop().clients, b.opts.Scale, b.opts.Seed, b.opts.Modules)
	if trace {
		return traced(b, w, out)
	}

	var setups []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p := measured(w, nil)
	k := 1
	if !w.loop().wholeCycles {
		k = windows
	}
	sum := p.summarize(k)
	fmt.Fprintf(out, "measured %d ops (%d failed) in %.2f s; set-ups %.3v s\n", p.ops, p.failed, p.elapsed.Seconds(), setups)
	fmt.Fprintf(out, "p90_ms %.3f rests on %d samples (fewest in any of %d windows), %d beyond it\n",
		sum.p90, sum.samples, k, beyond(sum.samples, 0.9))
	if p.firstErr != nil {
		fmt.Fprintln(out, "first failure:", p.firstErr)
	}
	m := map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {sum.opsPerSec, "1/s"},
		"p50_ms":          {sum.p50, "ms"},
		"p90_ms":          {sum.p90, "ms"},
		"alloc_kb_per_op": {float64(p.allocBytes) / 1024 / float64(max(p.ops, 1)), "KB"},
	}
	printMetrics(out, m)
	return &result{Correct: p.failed == 0, Attempted: max(p.ops, 1), Failed: p.failed, Metrics: m}, nil
}

// measured runs one measured phase, ended early when full reports true
// (nil: never), and folds the workload's after-phase check into it: a
// failed check fails every op of the phase, since none of them can be
// trusted.
func measured(w workload, full func() bool) phase {
	lp := w.loop()
	lp.full = full
	p := lp.run(w.op)
	if err := w.check(); err != nil {
		p.failed = p.ops
		p.firstErr = errors.Join(err, p.firstErr)
	}
	return p
}

// traced sets up once with the recorder attached, measures one phase
// with tracing off and one with it on, runs the layer probe, and derives
// the per-layer metrics.
func traced(b *bench, w workload, out io.Writer) (*result, error) {
	rec := obs.NewRecorder(traceSpans)
	b.rec = rec
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b.rec = nil
	if err := w.attach(nil); err != nil {
		return nil, err
	}
	plain := measured(w, nil)

	b.rec, b.lay = rec, &layers{}
	if err := w.attach(rec); err != nil {
		return nil, err
	}
	b.executed.Store(0)
	b.subExecuted.Store(0)
	b.sweepRefs.Store(0)
	b.sweepUniq.Store(0)
	from := rec.Since(time.Now())
	tp := measured(w, func() bool { return recorded(rec) > traceSpans/2 })
	to := rec.Since(time.Now())
	executed, subExecuted := b.executed.Load(), b.subExecuted.Load()

	bud, pAttempted, pFailed, pErr := b.probe()

	attempted := plain.ops + tp.ops + pAttempted
	failed := plain.failed + tp.failed + pFailed
	for _, e := range []error{plain.firstErr, tp.firstErr, pErr} {
		if e != nil {
			fmt.Fprintln(out, "first failure:", e)
			break
		}
	}
	dropped := rec.Dropped()
	fmt.Fprintf(out, "untraced phase %d ops in %.2f s; traced phase %d ops in %.2f s; probe %d checks; %d spans, %d dropped\n",
		plain.ops, plain.elapsed.Seconds(), tp.ops, tp.elapsed.Seconds(), pAttempted, recorded(rec), dropped)

	spans := rec.Snapshot()
	var window []obs.Span
	for _, s := range spans {
		if s.Start >= from && s.End() <= to {
			window = append(window, s)
		}
	}
	a := obs.Analyze(window)
	kinds := rec.Stats()
	meanMS := func(kind string) float64 {
		k := kinds[kind]
		if k.Count == 0 {
			return 0
		}
		return ms(k.Total) / float64(k.Count)
	}
	famTotal, famN := map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		if s.Kind == obs.Execute {
			famTotal[family(s.Experiment)] += s.Dur
			famN[family(s.Experiment)]++
		}
	}
	famMS := func(f string) float64 {
		if famN[f] == 0 {
			return 0
		}
		return ms(famTotal[f]) / float64(famN[f])
	}
	hits := kinds["cache_mem"].Count + kinds["cache_disk"].Count
	lookups := hits + kinds["cache_miss"].Count
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := float64(max(tp.ops, 1))
	l := b.lay
	rendered := l.get("text").bytes + l.get("json").bytes + l.get("csv").bytes
	renders := l.get("text").nb + l.get("json").nb + l.get("csv").nb
	m := map[string]metric{
		"core.plan_ms":              {l.get("plan").meanMS(), "ms"},
		"core.plan_alloc_kb":        {l.get("plan").meanKB(), "KB"},
		"engine.mem_lookup_us":      {1000 * meanMS("cache_mem"), "us"},
		"engine.merge_ms":           {meanMS("merge"), "ms"},
		"engine.hit_ratio":          {ratio(float64(hits), float64(lookups)), "ratio"},
		"engine.disk_open_ms":       {l.get("disk_open").meanMS(), "ms"},
		"engine.disk_lookup_us":     {1000 * meanMS("cache_disk"), "us"},
		"engine.payload_kb":         {l.get("payload").meanKB(), "KB"},
		"engine.execute_ms":         {meanMS("execute"), "ms"},
		"engine.queue_wait_ms":      {meanMS("queue_wait"), "ms"},
		"engine.worker_util":        {a.MeanUtilization, "ratio"},
		"engine.amdahl_bound":       {a.MaxSpeedup, "x"},
		"engine.shards_executed":    {float64(executed) / ops, "count/op"},
		"engine.subshards_executed": {float64(subExecuted) / ops, "count/op"},
		"characterize.exec_ms":      {famMS("characterize"), "ms"},
		"scenario.exec_ms":          {famMS("scenario"), "ms"},
		"simperf.exec_ms":           {famMS("simperf"), "ms"},
		"sweep.dedup_ratio":         {ratio(float64(b.sweepRefs.Load()), float64(b.sweepUniq.Load())), "ratio"},
		"sweep.ms_per_point":        {l.get("sweep_point").meanMS(), "ms"},
		"report.text_ms":            {l.get("text").meanMS(), "ms"},
		"report.json_ms":            {l.get("json").meanMS(), "ms"},
		"report.csv_ms":             {l.get("csv").meanMS(), "ms"},
		"report.alloc_kb":           {ratio(float64(rendered)/1024, float64(renders)), "KB"},
		"serve.handler_ms":          {l.get("handler").meanMS(), "ms"},
		"serve.net_ms":              {l.get("net").meanMS(), "ms"},
		"runtime.cpu_ms_per_op":     {ms(tp.cpu) / ops, "ms"},
		"runtime.gc_cpu_frac":       {tp.gcFrac, "ratio"},
		"runtime.heap_peak_mb":      {float64(tp.heapPeak) / (1 << 20), "MB"},
		"obs.trace_overhead_pct":    {100 * (ratio(float64(tp.meanLat()), float64(plain.meanLat())) - 1), "%"},
		"obs.dropped_spans":         {float64(dropped), "count"},
		"bench.error_rate":          {ratio(float64(failed), float64(attempted)), "ratio"},
	}
	for _, id := range budgetSet {
		for _, layer := range budgetLayers {
			v := bud[id][layer]
			m["budget."+id+"."+layer+"_ms"] = metric{v[0], "ms"}
			m["budget."+id+"."+layer+"_kb"] = metric{v[1], "KB"}
		}
	}
	printBudget(out, bud)
	printMetrics(out, m)
	return &result{Correct: failed == 0 && dropped == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// recorded is the number of spans rec has taken so far.
func recorded(rec *obs.Recorder) uint64 {
	var n uint64
	for _, k := range rec.Stats() {
		n += k.Count
	}
	return n
}

func printBudget(out io.Writer, bud budget) {
	fmt.Fprintln(out, "warm /v1/run?format=json budget (median of probe reps):")
	fmt.Fprintf(out, "  %-14s", "experiment")
	for _, l := range budgetLayers {
		fmt.Fprintf(out, " %18s", l)
	}
	fmt.Fprintln(out)
	for _, id := range budgetSet {
		fmt.Fprintf(out, "  %-14s", id)
		for _, l := range budgetLayers {
			v := bud[id][l]
			fmt.Fprintf(out, " %8.3fms %6.0fKB", v[0], v[1])
		}
		fmt.Fprintln(out)
	}
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
