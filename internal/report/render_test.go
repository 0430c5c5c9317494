package report

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fmt-built renderers the append renderers replaced, kept verbatim
// as the byte-for-byte reference of the differential tests below.

func refTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func refNum(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v != v: // NaN
		return "-"
	case abs(v) >= 1e5 || abs(v) < 1e-3:
		return fmt.Sprintf("%.2e", v)
	case abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	case abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func refSectionText(s DocSection) string {
	var b strings.Builder
	if s.Table != nil {
		b.WriteString(refTable(s.Table.Headers, s.Table.Rows))
	}
	for _, n := range s.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	for _, f := range s.Findings {
		b.WriteString(f)
		b.WriteByte('\n')
	}
	if s.Series != nil {
		for _, p := range s.Series.Points {
			fmt.Fprintf(&b, "%s %s\n", refNum(p.X), refNum(p.Y))
		}
	}
	return fmt.Sprintf("== %s ==\n%s", s.Title, b.String())
}

func refText(d *Doc) string {
	if d == nil {
		return ""
	}
	parts := make([]string, len(d.Sections))
	for i, s := range d.Sections {
		parts[i] = refSectionText(s)
	}
	return strings.Join(parts, "\n")
}

func refCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		b.WriteString(c)
	}
	b.WriteByte('\n')
}

func refCSV(d *Doc) string {
	if d == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# experiment: %s\n", d.Experiment)
	if d.Title != "" {
		fmt.Fprintf(&b, "# title: %s\n", d.Title)
	}
	for _, p := range d.Params {
		fmt.Fprintf(&b, "# param: %s=%s\n", p.Key, p.Value)
	}
	for i, s := range d.Sections {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "# section: %s\n", s.Title)
		if s.Table != nil {
			refCSVRow(&b, s.Table.Headers)
			for _, r := range s.Table.Rows {
				refCSVRow(&b, r)
			}
		}
		for _, n := range s.Notes {
			fmt.Fprintf(&b, "# note: %s\n", n)
		}
		for _, f := range s.Findings {
			fmt.Fprintf(&b, "# finding: %s\n", f)
		}
		if s.Series != nil {
			refCSVRow(&b, []string{s.Series.XLabel, s.Series.YLabel})
			for _, p := range s.Series.Points {
				fmt.Fprintf(&b, "%g,%g\n", p.X, p.Y)
			}
		}
	}
	return b.String()
}

// checkMatchesReference fails t unless every renderer agrees with its
// reference on d, appending after a non-empty prefix included.
func checkMatchesReference(t *testing.T, name string, d *Doc) {
	t.Helper()
	if got, want := Text(d), refText(d); got != want {
		t.Errorf("%s: Text differs from the reference\n--- got ---\n%q\n--- want ---\n%q", name, got, want)
	}
	if got, want := CSV(d), refCSV(d); got != want {
		t.Errorf("%s: CSV differs from the reference\n--- got ---\n%q\n--- want ---\n%q", name, got, want)
	}
	if got := string(AppendText([]byte("prefix\n"), d)); got != "prefix\n"+refText(d) {
		t.Errorf("%s: AppendText does not append after existing bytes", name)
	}
	if got := string(AppendCSV([]byte("prefix\n"), d)); got != "prefix\n"+refCSV(d) {
		t.Errorf("%s: AppendCSV does not append after existing bytes", name)
	}
}

// goldenDocs loads every experiment's golden document, which
// internal/core's renderer test pins to the experiment's cold run at
// the golden options, with the experiment's golden text report.
func goldenDocs(t *testing.T) (ids []string, docs []*Doc, texts []string) {
	t.Helper()
	dir := filepath.Join("..", "core", "testdata", "golden")
	reports, err := filepath.Glob(filepath.Join(dir, "*.golden"))
	if err != nil || len(reports) == 0 {
		t.Fatalf("no golden reports under %s (%v)", dir, err)
	}
	for _, path := range reports {
		id := strings.TrimSuffix(filepath.Base(path), ".golden")
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, id+".json"))
		if err != nil {
			t.Fatalf("%s: golden report has no golden document: %v", id, err)
		}
		var d Doc
		if err := json.Unmarshal(raw, &d); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		ids, docs, texts = append(ids, id), append(docs, &d), append(texts, string(text))
	}
	return ids, docs, texts
}

// TestRenderersMatchReferenceOnGoldenDocs: on every golden experiment's
// document, Text and CSV equal the fmt-built references byte for byte,
// and Text equals the golden report.
func TestRenderersMatchReferenceOnGoldenDocs(t *testing.T) {
	ids, docs, texts := goldenDocs(t)
	for i, d := range docs {
		checkMatchesReference(t, ids[i], d)
		if Text(d) != texts[i] {
			t.Errorf("%s: Text differs from the golden report", ids[i])
		}
	}
}

// TestRenderersMatchReferenceOnEdgeCases covers what the goldens do
// not: non-ASCII cells (padding counts runes, widths count bytes), rows
// longer and shorter than the headers, empty tables, CSV quoting, nil
// and empty documents, and NaN, ±Inf and -0 series points.
func TestRenderersMatchReferenceOnEdgeCases(t *testing.T) {
	series := &Series{XLabel: "x,\"label\"", YLabel: "µs", Points: []SeriesPoint{
		{X: math.NaN(), Y: math.Inf(1)}, {X: math.Inf(-1), Y: math.Copysign(0, -1)},
		{X: 1e-7, Y: -2.5e9}, {X: 123.456, Y: 0.000999}, {X: -0.5, Y: 99999.5},
		{X: math.SmallestNonzeroFloat64, Y: math.MaxFloat64},
	}}
	cases := map[string]*Doc{
		"nil":   nil,
		"empty": NewDoc(),
		"non-ascii": NewDoc(TableSection("Temperature °C", []string{"T", "tAggON", "ratio"}, [][]string{
			{"50°C", "7.8µs", "2×"}, {"80°C", "70.2µs", "×"}, {"°", "µ", "××××××"},
		}, "note: 30 µs × 2")),
		"long and short rows": NewDoc(TableSection("ragged", []string{"a", "bb"}, [][]string{
			{"1", "2", "extra", "more than the last width"}, {"only"}, {}, {"µµµµ", "°", "×"},
		})),
		"empty tables": NewDoc(
			TableSection("headers only", []string{"h1", "header two"}, nil),
			TableSection("nothing", nil, nil),
			TableSection("empty header", []string{""}, [][]string{{""}, {"x"}}),
		),
		"csv quoting": NewDoc(TableSection("q", []string{"a,b", `say "hi"`, "line\nbreak"}, [][]string{
			{`"`, `""`, ","}, {"\n", "plain", `a"b,c`},
		})),
		"prose and series": func() *Doc {
			d := NewDoc(FindingsSection("findings", "one", "", "three"), DocSection{Title: "s", Series: series})
			d.Experiment, d.Title = "edge", "Edge cases"
			d.Params = []Param{{Key: "k", Value: "v=w"}, {Key: "", Value: ""}}
			return d
		}(),
		"empty sections": NewDoc(DocSection{}, DocSection{Title: "t"}, DocSection{Series: &Series{}}),
	}
	for name, d := range cases {
		checkMatchesReference(t, name, d)
	}
	for _, p := range series.Points {
		for _, v := range []float64{p.X, p.Y} {
			if got, want := Num(v), refNum(v); got != want {
				t.Errorf("Num(%v) = %q, reference %q", v, got, want)
			}
		}
	}
}

// FuzzAppendTextMatchesReference renders a table of arbitrary cells
// (headers split on '|', rows on '\n', cells on '|') plus one series
// point, and requires Text, CSV and Num to equal their references.
// Plain `go test` runs the seed corpus only.
func FuzzAppendTextMatchesReference(f *testing.F) {
	f.Add("title", "a|bb|ccc", "1|2|3\n4444|5", 1.0, 2.0)
	f.Add("°C", "T|µs", "50°C|×\n|||extra", math.Inf(1), math.NaN())
	f.Add("", "", "\n\n", math.Copysign(0, -1), 1e-300)
	f.Add("q", `a,"b"`, "x\"y|,", 99999.99, 0.00099999)
	f.Add("bad utf8", "\xff\xfe|h", "\xc3|\xe2\x82", -1e5, 100.0)
	f.Fuzz(func(t *testing.T, title, headers, cells string, x, y float64) {
		var rows [][]string
		for _, line := range strings.Split(cells, "\n") {
			rows = append(rows, strings.Split(line, "|"))
		}
		d := NewDoc(
			TableSection(title, strings.Split(headers, "|"), rows, cells),
			DocSection{Title: title, Findings: []string{headers}, Series: &Series{
				XLabel: headers, YLabel: title, Points: []SeriesPoint{{X: x, Y: y}},
			}},
		)
		d.Experiment, d.Title = title, headers
		checkMatchesReference(t, "fuzz", d)
		for _, v := range []float64{x, y} {
			if got, want := Num(v), refNum(v); got != want {
				t.Fatalf("Num(%v) = %q, reference %q", v, got, want)
			}
		}
	})
}

// TestAppendTextAllocs: rendering a document without series into a
// buffer that already has room allocates nothing, in either format.
func TestAppendTextAllocs(t *testing.T) {
	_, docs, _ := goldenDocs(t)
	d := docs[0]
	for _, g := range docs {
		if len(g.Sections) > len(d.Sections) {
			d = g
		}
	}
	d.Add(NewDoc(TableSection("non-ascii", []string{"T °C", "µs"}, [][]string{{"50°C", "7.8µs", "×"}})).Sections...)
	buf := make([]byte, 0, 1<<16)
	if n := testing.AllocsPerRun(100, func() { buf = AppendText(buf[:0], d) }); n != 0 {
		t.Errorf("AppendText into a large enough buffer: %v allocs per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf = AppendCSV(buf[:0], d) }); n != 0 {
		t.Errorf("AppendCSV into a large enough buffer: %v allocs per run, want 0", n)
	}
}
