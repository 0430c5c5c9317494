package ledger

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLedgerLoad writes arbitrary bytes as the ledger file and opens
// it. Open must not panic or fail; every line of the file must come
// back as either a record or a skip; and a record appended after the
// load must reload as the newest one, whatever garbage precedes it.
// Plain `go test` runs the seed corpus only.
func FuzzLedgerLoad(f *testing.F) {
	valid := `{"version":1,"id":"a","kind":"run","experiment":"fig6","options_hash":"oh","completed_at":"2026-01-02T03:04:05Z","wall_ms":1,"shards":2,"tiers":{"mem":1,"disk":0,"miss":1},"queue_wait":{"count":0,"total_ms":0},"mem_lookup":{"count":0,"total_ms":0},"disk_lookup":{"count":0,"total_ms":0},"miss_lookup":{"count":0,"total_ms":0}}`
	f.Add([]byte(valid + "\n"))
	f.Add([]byte(valid + "\n" + valid[:len(valid)/2]))
	f.Add([]byte(strings.Replace(valid, `"id":"a"`, `"id":"a","brand_new":true`, 1) + "\n" + valid + "\n"))
	f.Add([]byte(strings.Replace(valid, `"version":1`, `"version":2`, 1) + "\n"))
	f.Add([]byte(valid + "\n" + strings.Repeat("x", maxLine+10) + "\n" + valid + "\n"))
	f.Add([]byte(valid))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		lines := bytes.Count(data, []byte("\n"))
		if len(data) > 0 && data[len(data)-1] != '\n' {
			lines++
		}
		if st := l.Stats(); st.Records+st.Skipped != lines {
			t.Fatalf("%d records + %d skipped, want %d lines", st.Records, st.Skipped, lines)
		}
		r, err := l.Append(Record{Kind: KindRun, Experiment: "fuzz"})
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		l.Close()
		l2, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		got := l2.Records(Query{Limit: 1})
		if len(got) != 1 || got[0].ID != r.ID {
			t.Fatalf("newest record after reload is %+v, want id %s", got, r.ID)
		}
	})
}
