package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/report"
)

// goldenOptions are the options of the committed golden reports in
// internal/core/testdata/golden, so every text output the workloads
// produce can be compared byte for byte with a reviewed reference.
func goldenOptions() core.Options {
	return core.Options{Scale: 0.05, Seed: 1, Modules: []string{"S0", "S3", "M3"}}
}

// excluded experiments are left out of every workload: each is a single
// shard whose cold cost (fig23 ~7-8 s, fig49 ~17 s, scenario-mitigation
// ~9 s at the golden options) would fill a whole run on its own.
var excluded = map[string]bool{"fig23": true, "fig49": true, "scenario-mitigation": true}

// weighted returns one cycle of a workload's op mix: every experiment
// of ids weight times, except those weights lists with a weight of
// their own. Expensive experiments run fewer times, so that no single
// experiment's block of samples straddles the p90 rank: p90 then falls
// among experiments of similar cost rather than on the boundary between
// a cheap class and one several times dearer.
func weighted(ids []string, weights map[string]int, weight int) []string {
	var cycle []string
	for _, id := range ids {
		n, ok := weights[id]
		if !ok {
			n = weight
		}
		for k := 0; k < n; k++ {
			cycle = append(cycle, id)
		}
	}
	return cycle
}

// regen-cold: scenario-grid, sec63 and sec72 cost 0.6-3.2 s cold and
// fig19, appF and fig18 100-270 ms, against at most 60 ms for the rest.
// At these weights the two dear classes are 12 of 180 ops and p90 falls
// among the 40-60 ms experiments (table3, fig20, fig41, fig11 on the
// build host).
var (
	regenWeights = map[string]int{"scenario-grid": 1, "sec63": 1, "sec72": 1, "fig19": 3, "appF": 3, "fig18": 3}
	regenWeight  = 6
)

// sweep-cold: the appF and fig18 grids cost 140-220 ms against at most
// 70 ms for the rest. At weight 4 they are 2 of 78 ops, and p90 falls
// inside fig13's block, between fig11 and fig1 of similar cost.
var (
	sweepWeights = map[string]int{"appF": 1, "fig18": 1}
	sweepWeight  = 4
)

// family names the simulation layer whose kernels an experiment's
// shards execute; execute-span time is grouped by it. sec63 (attack)
// and fig24 (sysarch) belong to none of the three reported families.
func family(id string) string {
	switch id {
	case "scenario-grid":
		return "scenario"
	case "table3", "fig38", "fig39", "fig40", "fig41", "sec72":
		return "simperf"
	case "sec63", "fig24":
		return "other"
	}
	return "characterize"
}

// sweepable lists the per-module characterization experiments: the
// ones whose shards are keyed by module, so overlapping module sets in
// one grid share shards and ExecuteBatch's dedup has work to do.
var sweepable = []string{
	"appC", "appE", "appF", "fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
	"fig12", "fig13", "fig14", "fig15", "fig17", "fig18", "fig25", "fig26",
	"summary", "table5", "table6",
}

// experimentSet returns every registered experiment except the
// excluded ones, sorted by id.
func experimentSet() []string {
	var ids []string
	for _, e := range core.List() {
		if !excluded[e.ID] {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// workers is the engine worker count and client count of every
// workload: one per CPU the process may use.
func workers() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x726f77707265)) }

func shuffled[T any](r *rand.Rand, in []T) []T {
	out := append([]T(nil), in...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// loadGoldens reads the committed golden report of every experiment in
// ids from the repository rooted at root.
func loadGoldens(root string, ids []string) (map[string]string, error) {
	out := make(map[string]string, len(ids))
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(root, "internal", "core", "testdata", "golden", id+".golden"))
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", id, err)
		}
		out[id] = string(b)
	}
	return out, nil
}

type digest [sha256.Size]byte

func hashOf(b []byte) digest { return sha256.Sum256(b) }

// refs are the reference renderings of one document: its golden text
// and the hashes of its canonical JSON and its CSV. They are taken in
// set-up from a document whose text matched the golden.
type refs struct {
	text string
	json digest // report.JSON, trailing newline included
	doc  digest // report.JSON without the trailing newline, as nested in /v1/run bodies
	csv  digest
}

func newRefs(doc *report.Doc) (refs, error) {
	j, err := report.JSON(doc)
	if err != nil {
		return refs{}, err
	}
	return refs{
		text: report.Text(doc),
		json: hashOf(j),
		doc:  hashOf(j[:len(j)-1]),
		csv:  hashOf([]byte(report.CSV(doc))),
	}, nil
}

// verifiedRefs checks doc's text against the golden and returns its
// references.
func verifiedRefs(id string, doc *report.Doc, golden string) (refs, error) {
	if got := report.Text(doc); got != golden {
		return refs{}, fmt.Errorf("%s: report differs from its golden (%d vs %d bytes)", id, len(got), len(golden))
	}
	return newRefs(doc)
}
