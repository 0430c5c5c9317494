package sweep

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzSweepSpec decodes arbitrary bytes as a sweep spec the way the
// /v1/sweep handler does (strict JSON, unknown fields rejected) and
// expands it with Points. Either decoding or Points rejects the input,
// or the grid holds at most MaxPoints points, each with a scale in
// (0,1] and a normalized module set (trimmed, non-empty, unique ids:
// normalizing it again is a no-op). Nothing is executed. Plain
// `go test` runs the seed corpus only.
func FuzzSweepSpec(f *testing.F) {
	f.Add([]byte(`{"experiment":"fig7"}`))
	f.Add([]byte(`{"experiment":"fig7","scales":[0.05,0.1],"seeds":[1,2],"module_sets":[["S0"],[" S3 ",""]]}`))
	f.Add([]byte(`{"experiment":"fig7","scales":[0,1e-400,-0,1.0000000000000002]}`))
	f.Add([]byte(`{"experiment":"fig7","module_sets":[["S0","S0"]]}`))
	f.Add([]byte(`{"experiment":"fig7","module_sets":[[],[""],["\tS0\n"]]}`))
	f.Add([]byte(`{"experiment":"fig999"}`))
	f.Add([]byte(`{"experiment":"fig7","seeds":[18446744073709551615],"extra":1}`))
	f.Add([]byte(`{"experiment":"table1","scales":[1],"seeds":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		points, err := spec.Points()
		if err != nil {
			return
		}
		if len(points) > MaxPoints {
			t.Fatalf("%d points, over the %d-point limit", len(points), MaxPoints)
		}
		for i, p := range points {
			if !(p.Scale > 0 && p.Scale <= 1) {
				t.Fatalf("point %d: scale %v outside (0,1]", i, p.Scale)
			}
			for _, id := range p.Modules {
				if id == "" || id != strings.TrimSpace(id) {
					t.Fatalf("point %d: unnormalized module id %q", i, id)
				}
			}
			again, err := core.NormalizeModules(p.Modules)
			if err != nil || !slices.Equal(again, p.Modules) {
				t.Fatalf("point %d: modules %q normalize to %q (err %v)", i, p.Modules, again, err)
			}
		}
	})
}
