package serve

import (
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzParseOptions drives arbitrary scale/seed/modules query strings
// through parseOptions and core.PlanFor, the path every /v1/run and
// /v1/shard request takes. Either one of them rejects the input, or the
// plan carries options with 0 < Scale <= 1 and a normalized module list
// (trimmed, non-empty, unique ids: normalizing it again is a no-op).
// Plain `go test` runs the seed corpus only.
func FuzzParseOptions(f *testing.F) {
	f.Add("NaN", "1", "S0")
	f.Add("Inf", "", "")
	f.Add("-0", "", "")
	f.Add("1e-400", "", "")
	f.Add("0x1p-3", "1", "S0,S3")
	f.Add("0.05", "1", "S0,,S0")
	f.Add("0.05", "1", " S0")
	f.Fuzz(func(t *testing.T, scale, seed, modules string) {
		q := url.Values{"scale": {scale}, "seed": {seed}, "modules": {modules}}
		u := httptest.NewRequest("GET", "/v1/run/table1?"+q.Encode(), nil).URL
		o, err := parseOptions(u.Query())
		if err != nil {
			return
		}
		p, err := core.PlanFor("table1", o)
		if err != nil {
			return
		}
		got, ok := p.Remote.(core.Options)
		if !ok {
			t.Fatalf("plan metadata is %T, want core.Options", p.Remote)
		}
		if !(got.Scale > 0 && got.Scale <= 1) {
			t.Fatalf("scale=%q planned with Scale %v outside (0,1]", scale, got.Scale)
		}
		for _, id := range got.Modules {
			if id == "" || id != strings.TrimSpace(id) {
				t.Fatalf("modules=%q planned with unnormalized id %q", modules, id)
			}
		}
		again, err := core.NormalizeModules(got.Modules)
		if err != nil || !slices.Equal(again, got.Modules) {
			t.Fatalf("modules=%q planned with %q, which normalizes to %q (err %v)", modules, got.Modules, again, err)
		}
	})
}
