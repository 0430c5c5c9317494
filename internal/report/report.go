// Package report renders experiment results as aligned ASCII tables and
// series — the textual equivalent of the paper's figures. Every
// regenerator (bench, CLI, example) prints through this package so outputs
// are uniform and diffable.
package report

import (
	"fmt"
	"strconv"
	"unicode/utf8"

	"repro/internal/stats"
)

// Table renders rows under headers with aligned columns.
func Table(headers []string, rows [][]string) string { return string(appendTable(nil, headers, rows)) }

// appendTable appends Table's rendering to b. Every cell, the last
// column's included, is left-aligned and space-padded to its column's
// width; cells of a row longer than headers take the last column's
// width. Widths are byte lengths and padding counts runes, the way
// fmt's %-*s pads, so non-ASCII cells keep the legacy bytes.
func appendTable(b []byte, headers []string, rows [][]string) []byte {
	var stack [16]int // up to 16 column widths without allocating
	widths := stack[:0]
	for _, h := range headers {
		widths = append(widths, len(h))
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	b = appendRow(b, headers, widths)
	for i, w := range widths {
		if i > 0 {
			b = append(b, "  "...)
		}
		b = appendRepeat(b, '-', w)
	}
	b = append(b, '\n')
	for _, r := range rows {
		b = appendRow(b, r, widths)
	}
	return b
}

func appendRow(b []byte, cells []string, widths []int) []byte {
	for i, c := range cells {
		if i > 0 {
			b = append(b, "  "...)
		}
		b = append(b, c...)
		b = appendRepeat(b, ' ', widths[min(i, len(widths)-1)]-utf8.RuneCountInString(c))
	}
	return append(b, '\n')
}

// appendRepeat appends n copies of c (none when n <= 0).
func appendRepeat(b []byte, c byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, c)
	}
	return b
}

// Num formats a float compactly (3 significant-ish digits).
func Num(v float64) string { return string(appendNum(nil, v)) }

// appendNum appends Num(v) to b. strconv spells every value these
// verbs reach as fmt's %.Ne/%.Nf do, NaN excepted, which Num prints
// as "-".
func appendNum(b []byte, v float64) []byte {
	switch {
	case v == 0:
		return append(b, '0')
	case v != v: // NaN
		return append(b, '-')
	case abs(v) >= 1e5 || abs(v) < 1e-3:
		return strconv.AppendFloat(b, v, 'e', 2, 64)
	case abs(v) >= 100:
		return strconv.AppendFloat(b, v, 'f', 0, 64)
	case abs(v) >= 1:
		return strconv.AppendFloat(b, v, 'f', 2, 64)
	default:
		return strconv.AppendFloat(b, v, 'f', 4, 64)
	}
}

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// SignedPct formats a fractional delta with an explicit sign, the
// benchstat-style rendering of a relative change ("+3.1%", "-12.0%").
func SignedPct(v float64) string {
	if v != v { // NaN: no baseline to compare against
		return "~"
	}
	return fmt.Sprintf("%+.1f%%", 100*v)
}

// Box renders a five-number summary the way the paper's box-and-whiskers
// plots present distributions.
func Box(s stats.Summary) string {
	if s.N == 0 {
		return "no data"
	}
	return fmt.Sprintf("min=%s q1=%s med=%s q3=%s max=%s (n=%d)",
		Num(s.Min), Num(s.Q1), Num(s.Median), Num(s.Q3), Num(s.Max), s.N)
}

// Section renders a titled block.
func Section(title, body string) string { return "== " + title + " ==\n" + body }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
