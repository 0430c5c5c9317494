package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bender"
	"repro/internal/characterize"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/simperf"
)

// payloadSamples holds one representative non-zero value per shard
// payload type the experiment plans carry. The fabric wire format and
// the disk tier share the same gob envelope (engine.EncodePayload/
// DecodePayload), so a type that fails this round-trip would break both
// remote serving and warm starts. Values deliberately populate every
// field — gob omits zero fields, and an asymmetry would hide behind
// zeros.
var payloadSamples = []any{
	[]string{"S0", "row", "3"},
	[][]string{{"a", "b"}, {"c"}},
	[][]characterize.SweepPoint{{{
		TAggON: 7500,
		Results: []characterize.RowResult{{
			Loc: 3, ACmin: 120, Found: true,
			Flips: []bender.Flip{{LogicalRow: 3, Byte: 7, Bit: 2, From: true}},
		}},
	}}},
	[][]characterize.RowResult{{{Loc: 1, ACmin: 64, Found: true}}},
	[][]characterize.TAggONminResult{{{Loc: 2, TAggONmin: 36000, Found: true}}},
	[]float64{0.25, 1.5, -3},
	simperf.MinOpenRowRow{Workload: "mix-a", NormalizedIPC: 0.97, ACTIncrease: 1.8},
	scenario.Result{
		Module: "S0", Scenario: "single-sided", Mitigation: "trr",
		Sites: 4, BudgetActs: 5000, TimeCapped: true,
		BitFlips: 9, SitesWithFlips: 2, PreventiveRefreshes: 17, RefreshOverhead: 0.4,
		MinActs: 1200, MinTime: 9_000_000, FlipFound: true,
	},
	scenario.SiteResult{
		AggActs: 5000, BitFlips: 3, PreventiveRefreshes: 5,
		TimeCapped: true, MinActs: 800, MinTime: 4_000_000,
	},
	report.DocSection{
		Title:    "t",
		Table:    &report.TableData{Headers: []string{"h"}, Rows: [][]string{{"v"}}},
		Notes:    []string{"n"},
		Findings: []string{"f"},
		Series:   &report.Series{XLabel: "x", YLabel: "y", Points: []report.SeriesPoint{{X: 1, Y: 2}}},
	},
	&report.Doc{
		Experiment: "fig6", Title: "T",
		Params:   []report.Param{{Key: "scale", Value: "0.1"}},
		Sections: []report.DocSection{{Title: "s", Findings: []string{"ok"}}},
	},
}

// TestPayloadRoundTrip pushes every sample payload type through the
// shared gob envelope and asserts byte-for-byte value equality after
// decode — the property the disk tier and the fabric /v1/shard response
// body both rely on. Payload types are registered by the plan builders,
// so every experiment's plan is built first, exactly as a process does
// before it touches a payload; a sample type no plan carries fails to
// encode.
func TestPayloadRoundTrip(t *testing.T) {
	for _, e := range List() {
		if _, err := PlanFor(e.ID, goldenOptions()); err != nil {
			t.Fatalf("plan %s: %v", e.ID, err)
		}
	}
	for _, v := range payloadSamples {
		name := fmt.Sprintf("%T", v)
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := engine.EncodePayload(&buf, v); err != nil {
				t.Fatalf("encode %s: %v", name, err)
			}
			got, err := engine.DecodePayload(&buf)
			if err != nil {
				t.Fatalf("decode %s: %v", name, err)
			}
			if !reflect.DeepEqual(got, v) {
				t.Fatalf("round trip changed the value:\n got %#v\nwant %#v", got, v)
			}
		})
	}
}
