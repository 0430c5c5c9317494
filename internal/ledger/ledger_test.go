package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/report"
)

func openT(t *testing.T, dir string, maxBytes int64) *Ledger {
	t.Helper()
	l, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendT(t *testing.T, l *Ledger, r Record) Record {
	t.Helper()
	out, err := l.Append(r)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return out
}

func TestAppendStampsAndReloads(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	r := appendT(t, l, Record{Kind: KindRun, Experiment: "fig6", OptionsHash: "oh", DocHash: "dh",
		WallMS: 12.5, Shards: 8, Tiers: engine.TierCounts{Mem: 3, Disk: 1, Miss: 4}})
	if r.ID == "" || r.Version != RecordVersion || r.CompletedAt.IsZero() {
		t.Fatalf("Append did not stamp identity: %+v", r)
	}
	appendT(t, l, Record{Kind: KindSweep, Experiment: "fig6"})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := openT(t, dir, 0)
	recs := l2.Records(Query{})
	if len(recs) != 2 {
		t.Fatalf("reloaded %d records, want 2", len(recs))
	}
	// Newest first; the reloaded run record must round-trip exactly.
	got := recs[1]
	if got.ID != r.ID || got.DocHash != "dh" || got.Tiers != r.Tiers || got.WallMS != r.WallMS {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, r)
	}
	if !got.CompletedAt.Equal(r.CompletedAt) {
		t.Fatalf("CompletedAt %v != %v", got.CompletedAt, r.CompletedAt)
	}
}

// A crash can truncate at most the final line; load must skip it,
// count it, and keep appending.
func TestTruncatedFinalLineSkipped(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	appendT(t, l, Record{Kind: KindRun, Experiment: "fig6"})
	appendT(t, l, Record{Kind: KindRun, Experiment: "table3"})
	l.Close()

	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"version":1,"id":"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openT(t, dir, 0)
	st := l2.Stats()
	if st.Records != 2 {
		t.Fatalf("after truncation: %d records, want 2", st.Records)
	}
	if st.Skipped != 1 {
		t.Fatalf("after truncation: %d skipped, want 1", st.Skipped)
	}
	// The store stays writable: the next append lands on its own line.
	appendT(t, l2, Record{Kind: KindRun, Experiment: "fig9"})
	l2.Close()
	l3 := openT(t, dir, 0)
	if got := l3.Stats().Records; got != 3 {
		t.Fatalf("after append past truncation: %d records, want 3", got)
	}
}

// Unknown fields mean a newer schema wrote the line; wrong Version
// catches renamed-but-parseable shapes. Both are skipped, never fatal.
func TestForeignSchemaLinesSkipped(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	appendT(t, l, Record{Kind: KindRun, Experiment: "fig6"})
	l.Close()

	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{
		`{"version":1,"id":"future","kind":"run","experiment":"fig6","from_the_future":true,"completed_at":"2026-01-01T00:00:00Z","wall_ms":1,"shards":1,"tiers":{"mem":0,"disk":0,"miss":1},"queue_wait":{"count":0,"total_ms":0},"mem_lookup":{"count":0,"total_ms":0},"disk_lookup":{"count":0,"total_ms":0},"miss_lookup":{"count":0,"total_ms":0}}`,
		`{"version":99,"id":"v99","kind":"run","experiment":"fig6","completed_at":"2026-01-01T00:00:00Z","wall_ms":1,"shards":1,"tiers":{"mem":0,"disk":0,"miss":1},"queue_wait":{"count":0,"total_ms":0},"mem_lookup":{"count":0,"total_ms":0},"disk_lookup":{"count":0,"total_ms":0},"miss_lookup":{"count":0,"total_ms":0}}`,
		`not json at all`,
	}
	if _, err := f.WriteString(strings.Join(lines, "\n") + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openT(t, dir, 0)
	st := l2.Stats()
	if st.Records != 1 || st.Skipped != 3 {
		t.Fatalf("records=%d skipped=%d, want 1 and 3", st.Records, st.Skipped)
	}
	if _, ok := l2.Get("future"); ok {
		t.Fatal("unknown-field record must not load")
	}
}

// Concurrent appenders must lose no records and interleave no bytes
// (run under -race in CI).
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 0)
	const workers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append(Record{Kind: KindRun, Experiment: fmt.Sprintf("w%d", w)}); err != nil {
					t.Errorf("Append: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()

	l2 := openT(t, dir, 0)
	st := l2.Stats()
	if st.Records != workers*each || st.Skipped != 0 {
		t.Fatalf("records=%d skipped=%d, want %d and 0", st.Records, st.Skipped, workers*each)
	}
	seen := map[string]bool{}
	for _, r := range l2.Records(Query{}) {
		if seen[r.ID] {
			t.Fatalf("duplicate record id %s", r.ID)
		}
		seen[r.ID] = true
	}
}

// The size bound prunes oldest-first and the compacted file must
// survive a reopen with exactly the retained set.
func TestSizeBoundKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, 2048)
	const n = 50
	for i := 0; i < n; i++ {
		appendT(t, l, Record{Kind: KindRun, Experiment: fmt.Sprintf("exp%03d", i)})
	}
	st := l.Stats()
	if st.Pruned == 0 {
		t.Fatalf("no records pruned at a %d-byte bound after %d appends (bytes=%d)", 2048, n, st.Bytes)
	}
	if st.Bytes > 2048 {
		t.Fatalf("ledger holds %d bytes, bound is 2048", st.Bytes)
	}
	recs := l.Records(Query{})
	if len(recs) == 0 || recs[0].Experiment != fmt.Sprintf("exp%03d", n-1) {
		t.Fatalf("newest record missing after pruning: %+v", recs)
	}
	// Retained records are the newest contiguous suffix.
	for i, r := range recs {
		want := fmt.Sprintf("exp%03d", n-1-i)
		if r.Experiment != want {
			t.Fatalf("record %d is %s, want %s", i, r.Experiment, want)
		}
	}
	l.Close()

	l2 := openT(t, dir, 2048)
	st2 := l2.Stats()
	if st2.Records != len(recs) || st2.Skipped != 0 {
		t.Fatalf("reopen after compaction: records=%d skipped=%d, want %d and 0", st2.Records, st2.Skipped, len(recs))
	}
}

// A full ledger compacts in batches: the first compaction prunes down
// to the low-water mark, so the next append lands on the same file
// (same inode, nothing pruned) instead of rewriting it, and Pruned
// later grows by more than one record at a time.
func TestCompactionLeavesHeadroom(t *testing.T) {
	dir := t.TempDir()
	const bound = 4096
	l := openT(t, dir, bound)
	stat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(l.Path())
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	i := 0
	add := func() Stats {
		appendT(t, l, Record{Kind: KindRun, Experiment: fmt.Sprintf("exp%04d", i)})
		i++
		return l.Stats()
	}
	for add().Pruned == 0 {
		if i > 1000 {
			t.Fatal("no compaction after 1000 appends")
		}
	}
	first := l.Stats()
	before := stat()
	if st := add(); st.Pruned != first.Pruned {
		t.Fatalf("append right after a compaction pruned %d more records", st.Pruned-first.Pruned)
	}
	if !os.SameFile(before, stat()) {
		t.Fatal("append right after a compaction rewrote the ledger file")
	}
	for {
		st := add()
		if st.Pruned == first.Pruned {
			continue
		}
		if d := st.Pruned - first.Pruned; d < 2 {
			t.Fatalf("second compaction pruned %d record(s), want a batch", d)
		}
		if st.Bytes > bound {
			t.Fatalf("ledger holds %d bytes, bound is %d", st.Bytes, bound)
		}
		break
	}
}

// A record line as an earlier build wrote it (before the tier split
// moved into the engine) loads without a skip and re-encodes to the
// same bytes: the record's wire format is unchanged.
func TestRecordWireFormatStable(t *testing.T) {
	const line = `{"version":1,"id":"20261017T141949-b1def5","kind":"run","experiment":"fig6","options_hash":"9b74ba9a129d21b25b1410aaea654fdc7f24e9aaaf878bd5a3caad433205cff0","doc_hash":"1d932debd14bfe83f89b6004c113dad73ef55ac389b96bcb09a0cc41ec9dcf1a","completed_at":"2026-10-17T14:19:49.097Z","wall_ms":26.059152,"shards":12,"workers":2,"sub_shards":36,"tiers":{"mem":0,"disk":0,"miss":12},"queue_wait":{"count":36,"total_ms":431.733917},"mem_lookup":{"count":0,"total_ms":0},"disk_lookup":{"count":0,"total_ms":0},"miss_lookup":{"count":48,"total_ms":0.006118}}`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := openT(t, dir, 0)
	if st := l.Stats(); st.Records != 1 || st.Skipped != 0 {
		t.Fatalf("loaded %d records, skipped %d; want 1 and 0", st.Records, st.Skipped)
	}
	b, err := json.Marshal(l.Records(Query{})[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != line {
		t.Fatalf("re-encoded record differs:\n got %s\nwant %s", b, line)
	}
}

func TestResolveSelectors(t *testing.T) {
	l := openT(t, t.TempDir(), 0)
	r0 := appendT(t, l, Record{Kind: KindRun, Experiment: "fig6", DocHash: "a"})
	r1 := appendT(t, l, Record{Kind: KindRun, Experiment: "fig6", DocHash: "b"})
	appendT(t, l, Record{Kind: KindRun, Experiment: "table3"})

	if got, err := l.Resolve(r0.ID); err != nil || got.DocHash != "a" {
		t.Fatalf("Resolve(id) = %+v, %v", got, err)
	}
	if got, err := l.Resolve("fig6"); err != nil || got.DocHash != "b" {
		t.Fatalf("Resolve(fig6) = %+v, %v; want newest", got, err)
	}
	if got, err := l.Resolve("fig6~1"); err != nil || got.DocHash != "a" {
		t.Fatalf("Resolve(fig6~1) = %+v, %v", got, err)
	}
	if _, err := l.Resolve("fig6~5"); err == nil {
		t.Fatal("Resolve(fig6~5) should fail: only 2 records")
	}
	if _, err := l.Resolve("nosuch"); err == nil {
		t.Fatal("Resolve(nosuch) should fail")
	}

	// Equal experiment selectors mean previous-vs-latest.
	a, b, err := l.ResolvePair("fig6", "fig6")
	if err != nil {
		t.Fatalf("ResolvePair(fig6, fig6): %v", err)
	}
	if a.ID != r0.ID || b.ID != r1.ID {
		t.Fatalf("ResolvePair = (%s, %s), want (%s, %s)", a.ID, b.ID, r0.ID, r1.ID)
	}
	// Equal record ids are a user error, not a self-comparison.
	if _, _, err := l.ResolvePair(r0.ID, r0.ID); err == nil {
		t.Fatal("ResolvePair(id, id) should fail")
	}
}

func TestCompareDeterminism(t *testing.T) {
	base := Record{ID: "a", Kind: KindRun, Experiment: "fig6", OptionsHash: "opts", DocHash: "doc1", WallMS: 100}

	same := base
	same.ID = "b"
	d := Compare(base, same, CompareOptions{})
	if !d.DeterminismChecked || d.DeterminismViolation {
		t.Fatalf("equal hashes: checked=%v violation=%v, want checked and clean", d.DeterminismChecked, d.DeterminismViolation)
	}

	diverged := same
	diverged.DocHash = "doc2"
	d = Compare(base, diverged, CompareOptions{})
	if !d.DeterminismChecked || !d.DeterminismViolation {
		t.Fatalf("diverged hashes: checked=%v violation=%v, want a violation", d.DeterminismChecked, d.DeterminismViolation)
	}
	if txt := report.Text(d.Doc); !strings.Contains(txt, "DETERMINISM VIOLATION") {
		t.Fatalf("violation missing from rendered findings:\n%s", txt)
	}

	other := same
	other.OptionsHash = "different"
	d = Compare(base, other, CompareOptions{})
	if d.DeterminismChecked || d.DeterminismViolation {
		t.Fatal("different options hashes must skip the determinism check")
	}
}

func TestCompareRegressionFlags(t *testing.T) {
	a := Record{ID: "a", Kind: KindRun, WallMS: 100}
	b := Record{ID: "b", Kind: KindRun, WallMS: 125}
	d := Compare(a, b, CompareOptions{Threshold: 0.10})
	if !d.Regression || d.Improvement {
		t.Fatalf("25%% slower at a 10%% threshold: regression=%v improvement=%v", d.Regression, d.Improvement)
	}
	d = Compare(a, b, CompareOptions{Threshold: 0.50})
	if d.Regression {
		t.Fatal("25% slower within a 50% threshold must not flag")
	}
	fast := Record{ID: "c", Kind: KindRun, WallMS: 40}
	d = Compare(a, fast, CompareOptions{Threshold: 0.10})
	if !d.Improvement || d.Regression {
		t.Fatalf("60%% faster: regression=%v improvement=%v", d.Regression, d.Improvement)
	}
}

func TestCompareTierShiftRendered(t *testing.T) {
	a := Record{ID: "cold", Kind: KindRun, Shards: 8, Tiers: engine.TierCounts{Miss: 8}, WallMS: 10}
	b := Record{ID: "warm", Kind: KindRun, Shards: 8, Tiers: engine.TierCounts{Mem: 6, Disk: 2}, WallMS: 10}
	d := Compare(a, b, CompareOptions{})
	txt := report.Text(d.Doc)
	if !strings.Contains(txt, "mem 0→6") || !strings.Contains(txt, "miss 8→0") {
		t.Fatalf("tier shift not rendered:\n%s", txt)
	}
}

func TestHistoryDocRendersAllFormats(t *testing.T) {
	l := openT(t, t.TempDir(), 0)
	appendT(t, l, Record{Kind: KindRun, Experiment: "fig6", DocHash: "abcdef0123456789",
		Shards: 4, Tiers: engine.TierCounts{Mem: 3, Miss: 1}})
	appendT(t, l, Record{Kind: KindSweep, Experiment: "fig6", Error: "1/4 points failed"})
	doc := HistoryDoc(l.Records(Query{}), l.Stats())
	txt := report.Text(doc)
	for _, want := range []string{"run history", "fig6", "abcdef012345", "1/4 points failed"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text rendering missing %q:\n%s", want, txt)
		}
	}
	if _, err := report.JSON(doc); err != nil {
		t.Fatalf("JSON rendering: %v", err)
	}
	if csv := report.CSV(doc); !strings.Contains(csv, "fig6") {
		t.Fatalf("CSV rendering missing data:\n%s", csv)
	}
}

func TestDocsHashMarksNilPoints(t *testing.T) {
	d1 := report.NewDoc(report.TableSection("t", []string{"c"}, [][]string{{"v"}}))
	if DocsHash([]*report.Doc{d1, nil}) == DocsHash([]*report.Doc{nil, d1}) {
		t.Fatal("failure position must change the sweep docs hash")
	}
	if DocsHash([]*report.Doc{d1}) != DocsHash([]*report.Doc{d1}) {
		t.Fatal("DocsHash must be deterministic")
	}
}

// A ledger opened without a directory keeps its records in memory:
// nothing is written anywhere, ids stay unique under concurrent
// appends, and Close has nothing to release.
func TestMemoryLedgerWritesNoFile(t *testing.T) {
	wd := t.TempDir()
	t.Chdir(wd)
	l, err := Open("", 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := l.Append(Record{Kind: KindRun, Experiment: "fig6"}); err != nil {
					t.Errorf("Append: %v", err)
				}
				l.Records(Query{Limit: 1})
			}
		}()
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, r := range l.Records(Query{}) {
		if r.ID == "" || seen[r.ID] || r.Version != RecordVersion {
			t.Fatalf("stamped %+v (duplicate id: %v)", r, seen[r.ID])
		}
		seen[r.ID] = true
	}
	if len(seen) != 100 {
		t.Fatalf("holds %d records, want 100", len(seen))
	}
	if ents, _ := os.ReadDir(wd); len(ents) != 0 || l.Path() != "" {
		t.Fatalf("memory ledger wrote %v (path %q)", ents, l.Path())
	}
	for i := 0; i < 2; i++ {
		if err := l.Close(); err != nil {
			t.Fatalf("Close %d: %v", i, err)
		}
	}
	appendT(t, l, Record{Kind: KindRun, Experiment: "after-close"})
	if st := l.Stats(); st.Records != 101 || st.Bytes != 0 {
		t.Fatalf("stats after Close: %+v", st)
	}
}

// Past MemoryRecords records the memory ledger prunes the oldest down
// to ¾ of the bound, which is still at least the 256 newest.
func TestMemoryLedgerPrunesToThreeQuarters(t *testing.T) {
	l, _ := Open("", 0)
	for i := 0; i <= MemoryRecords; i++ {
		appendT(t, l, Record{Kind: KindRun, Experiment: fmt.Sprintf("exp%03d", i)})
	}
	st := l.Stats()
	want := MemoryRecords - MemoryRecords/4
	if st.Records != want || st.Pruned != uint64(MemoryRecords+1-want) || want < 256 {
		t.Fatalf("after %d appends: %+v, want %d records", MemoryRecords+1, st, want)
	}
	recs := l.Records(Query{})
	for i, r := range recs {
		if w := fmt.Sprintf("exp%03d", MemoryRecords-i); r.Experiment != w {
			t.Fatalf("record %d is %s, want %s", i, r.Experiment, w)
		}
	}
}

// Only a line written to disk carries the hash of the record's
// documents; a memory record carries none, and neither keeps the
// documents themselves. A run's one document hashes to the SHA-256 of
// its canonical JSON, the doc_hash earlier records carry.
func TestDocsHashedOnlyOnDisk(t *testing.T) {
	docs := []*report.Doc{report.NewDoc(report.TableSection("t", []string{"c"}, [][]string{{"v"}}))}
	b, err := report.JSON(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); DocsHash(docs) != hex.EncodeToString(sum[:]) {
		t.Fatal("a single document's hash is not the SHA-256 of its JSON")
	}
	disk := appendT(t, openT(t, t.TempDir(), 0), Record{Kind: KindRun, Docs: docs})
	mem, _ := Open("", 0)
	inMem := appendT(t, mem, Record{Kind: KindRun, Docs: docs})
	if disk.DocHash != DocsHash(docs) || inMem.DocHash != "" || disk.Docs != nil || inMem.Docs != nil {
		t.Fatalf("disk %+v\nmemory %+v", disk, inMem)
	}
}
