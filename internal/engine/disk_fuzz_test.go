package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzDiskCacheLoad writes arbitrary bytes as a store's index.json and
// as one payload file, then warm-starts on the directory and reads every
// key the index names plus the payload's own. OpenDiskCache and Get must
// not panic; each Get is a miss or exactly the value the payload bytes
// decode to; and the byte accounting never goes negative. Plain
// `go test` runs the seed corpus only.
func FuzzDiskCacheLoad(f *testing.F) {
	key := Key("exp", "fp", "x")
	var valid bytes.Buffer
	if err := EncodePayload(&valid, "payload"); err != nil {
		f.Fatal(err)
	}
	index := fmt.Sprintf(`{%q:{"size":%d,"seq":3}}`, key, valid.Len())
	f.Add([]byte("{not json"), valid.Bytes())           // mangled index
	f.Add([]byte(index), []byte("garbage"))             // corrupt payload
	f.Add([]byte(index), valid.Bytes()[:valid.Len()/2]) // truncated payload
	f.Add([]byte(index), valid.Bytes())
	f.Add([]byte(`{"../escape":{"size":-5,"seq":18446744073709551615}}`), valid.Bytes())
	f.Fuzz(func(t *testing.T, index, payload []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, diskIndexName), index, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".gob"), payload, 0o644); err != nil {
			t.Fatal(err)
		}
		dc, err := OpenDiskCache(dir, 0)
		if err != nil {
			t.Fatalf("OpenDiskCache: %v", err)
		}
		keys := []string{key}
		var saved map[string]json.RawMessage
		if json.Unmarshal(index, &saved) == nil {
			keys = append(keys, slices.Sorted(maps.Keys(saved))...)
		}
		for _, k := range keys {
			v, ok := dc.Get(k)
			if !ok {
				if v != nil {
					t.Fatalf("miss on %q returned %#v", k, v)
				}
				continue
			}
			want, err := DecodePayload(bytes.NewReader(payload))
			if k != key || err != nil {
				t.Fatalf("hit on %q (%#v) but the payload file does not decode: %v", k, v, err)
			}
			// %#v rather than DeepEqual: a decoded NaN is still the value.
			if fmt.Sprintf("%#v", v) != fmt.Sprintf("%#v", want) {
				t.Fatalf("hit on %q returned %#v, the payload decodes to %#v", k, v, want)
			}
		}
		if st := dc.Stats(); st.Bytes < 0 {
			t.Fatalf("negative byte accounting: %+v", st)
		}
	})
}
