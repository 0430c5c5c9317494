package report

// This file is the typed result model. Experiments used to merge their
// shards straight into pre-rendered strings; they now build a Doc — an
// ordered list of typed sections (tables, free-form findings, numeric
// series) plus run metadata — and the renderers below produce every
// transport from it: Text reproduces the legacy operator-facing report
// byte-for-byte (pinned by the golden suite), JSON is the stable
// canonical encoding served by the daemon, and CSV is the
// spreadsheet/pandas view mirroring the RowPress artifact's
// machine-readable figure datasets.

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
)

// Param is one (key, value) pair of run metadata. Params are a slice,
// not a map, so the canonical encoding has a deterministic order.
type Param struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// TableData is a rendered-value table: rows of formatted cells under
// headers. Cells are strings (formatted with Num/Pct/Box) so every
// transport agrees on the exact values the text report shows.
type TableData struct {
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// SeriesPoint is one (x, y) sample of a Series.
type SeriesPoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Series is a numeric (x, y) sequence — the figure-shaped view of a
// sweep for clients that want to re-plot rather than re-read a table.
type Series struct {
	XLabel string        `json:"x_label"`
	YLabel string        `json:"y_label"`
	Points []SeriesPoint `json:"points"`
}

// DocSection is one titled block of a Doc. Bodies compose in a fixed
// order: the table (if any), then note lines appended under the table,
// then free-form finding lines, then the series. Every body kind is
// optional; a section with only Findings is a prose block.
type DocSection struct {
	Title    string     `json:"title"`
	Table    *TableData `json:"table,omitempty"`
	Notes    []string   `json:"notes,omitempty"`
	Findings []string   `json:"findings,omitempty"`
	Series   *Series    `json:"series,omitempty"`
}

// Doc is one experiment's structured result document. Experiment,
// Title, and Params are stamped by core.PlanFor after the merge runs;
// merges only build Sections.
type Doc struct {
	Experiment string       `json:"experiment,omitempty"`
	Title      string       `json:"title,omitempty"`
	Params     []Param      `json:"params,omitempty"`
	Sections   []DocSection `json:"sections"`
}

// NewDoc builds a Doc from sections in order.
func NewDoc(sections ...DocSection) *Doc {
	return &Doc{Sections: sections}
}

// TableSection builds a table-bodied section; notes render as trailing
// lines under the table.
func TableSection(title string, headers []string, rows [][]string, notes ...string) DocSection {
	return DocSection{Title: title, Table: &TableData{Headers: headers, Rows: rows}, Notes: notes}
}

// FindingsSection builds a prose section of one line per finding.
func FindingsSection(title string, lines ...string) DocSection {
	return DocSection{Title: title, Findings: lines}
}

// Add appends sections and returns the Doc for chaining.
func (d *Doc) Add(sections ...DocSection) *Doc {
	d.Sections = append(d.Sections, sections...)
	return d
}

// AppendText appends the operator-facing report to b — the exact bytes
// the pre-Doc merge path produced: each section is "== title ==" over
// its table, notes, findings and Num-formatted series points, sections
// joined with a single newline (which reads as a blank line because
// table bodies end in one). A nil doc appends nothing.
func AppendText(b []byte, d *Doc) []byte {
	if d == nil {
		return b
	}
	for i, s := range d.Sections {
		if i > 0 {
			b = append(b, '\n')
		}
		b = append(b, "== "...)
		b = append(b, s.Title...)
		b = append(b, " ==\n"...)
		if s.Table != nil {
			b = appendTable(b, s.Table.Headers, s.Table.Rows)
		}
		b = appendLines(b, "", s.Notes)
		b = appendLines(b, "", s.Findings)
		if s.Series != nil {
			for _, p := range s.Series.Points {
				b = appendNum(b, p.X)
				b = append(b, ' ')
				b = appendNum(b, p.Y)
				b = append(b, '\n')
			}
		}
	}
	return b
}

// appendLines appends each line under prefix, newline-terminated.
func appendLines(b []byte, prefix string, lines []string) []byte {
	for _, l := range lines {
		b = append(b, prefix...)
		b = append(b, l...)
		b = append(b, '\n')
	}
	return b
}

// Text renders the document as the operator-facing report (AppendText).
func Text(d *Doc) string { return string(AppendText(nil, d)) }

// JSON is the canonical encoding: compact, struct-field-ordered keys
// (encoding/json emits struct fields in declaration order, and the
// model holds no maps), trailing newline. Equal Docs encode to equal
// bytes, so the encoding is usable as a content address.
func JSON(d *Doc) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(d); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// CSVEscape quotes a cell when it contains a separator, quote, or
// newline (RFC 4180).
func CSVEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return string(appendCSVCell(nil, s))
}

// appendCSVCell appends CSVEscape(s) to b.
func appendCSVCell(b []byte, s string) []byte {
	if !strings.ContainsAny(s, ",\"\n") {
		return append(b, s...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		b = append(b, s[:i+1]...)
		b = append(b, '"')
		s = s[i+1:]
	}
	b = append(b, s...)
	return append(b, '"')
}

func appendCSVRow(b []byte, cells ...string) []byte {
	for i, c := range cells {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCSVCell(b, c)
	}
	return append(b, '\n')
}

// AppendCSV appends the spreadsheet/pandas rendering of the document to
// b: one CSV block per table or series section (header row then data
// rows), sections separated by a blank line, with document and section
// metadata on '#'-prefixed comment lines (pandas: comment='#'). Notes
// and findings become comment lines too, so no report content is lost.
// Series points are %g-formatted (strconv's shortest 'g' spelling). A
// nil doc appends nothing.
func AppendCSV(b []byte, d *Doc) []byte {
	if d == nil {
		return b
	}
	b = append(b, "# experiment: "...)
	b = append(b, d.Experiment...)
	b = append(b, '\n')
	if d.Title != "" {
		b = append(b, "# title: "...)
		b = append(b, d.Title...)
		b = append(b, '\n')
	}
	for _, p := range d.Params {
		b = append(b, "# param: "...)
		b = append(b, p.Key...)
		b = append(b, '=')
		b = append(b, p.Value...)
		b = append(b, '\n')
	}
	for i, s := range d.Sections {
		if i > 0 {
			b = append(b, '\n')
		}
		b = append(b, "# section: "...)
		b = append(b, s.Title...)
		b = append(b, '\n')
		if s.Table != nil {
			b = appendCSVRow(b, s.Table.Headers...)
			for _, r := range s.Table.Rows {
				b = appendCSVRow(b, r...)
			}
		}
		b = appendLines(b, "# note: ", s.Notes)
		b = appendLines(b, "# finding: ", s.Findings)
		if s.Series != nil {
			b = appendCSVRow(b, s.Series.XLabel, s.Series.YLabel)
			for _, p := range s.Series.Points {
				b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
				b = append(b, ',')
				b = strconv.AppendFloat(b, p.Y, 'g', -1, 64)
				b = append(b, '\n')
			}
		}
	}
	return b
}

// CSV renders the document as CSV (AppendCSV).
func CSV(d *Doc) string { return string(AppendCSV(nil, d)) }
