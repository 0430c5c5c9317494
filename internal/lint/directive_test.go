package lint

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"
)

// IgnoreAnalyzer is the reserved analyzer name under which directive
// misuse (missing reason, unknown analyzer, staleness) is reported.
// Its diagnostics are not themselves suppressible: a suppression that
// needs suppressing is a process smell, not a finding to silence.
const IgnoreAnalyzer = "ignore"

// DirectivePrefix introduces a suppression comment:
//
//	//lint:ignore rowpressvet/<analyzer> <reason>
const DirectivePrefix = "//lint:ignore"

// namePrefix qualifies analyzer names in directives, so suppressions
// are unambiguous next to other tools' lint:ignore conventions.
const namePrefix = "rowpressvet/"

// directive is one parsed //lint:ignore comment.
type directive struct {
	analyzer string // analyzer name, without the rowpressvet/ prefix
	reason   string
	file     string
	line     int
	col      int
	// ownLine marks a directive standing alone on its line, which
	// covers the following line; a trailing directive covers its own.
	ownLine bool
	// used flips when the directive suppresses at least one
	// diagnostic; an unused directive is stale and itself a finding.
	used bool
	// bad marks a malformed directive (missing reason or unknown
	// analyzer); bad directives never suppress.
	bad bool
}

// target is the line the directive's suppression applies to.
func (d *directive) target() int {
	if d.ownLine {
		return d.line + 1
	}
	return d.line
}

// collectDirectives parses every //lint:ignore comment in the program.
// Only directives naming rowpressvet analyzers (rowpressvet/<name>)
// are collected; other tools' lint:ignore comments pass through
// untouched.
func collectDirectives(prog *Program, analyzers []*Analyzer, diags *[]Diagnostic) []*directive {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []*directive
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d := parseDirective(prog, pkg, c)
					if d == nil {
						continue
					}
					switch {
					case !strings.HasPrefix(d.analyzer, namePrefix):
						d.bad = true
						*diags = append(*diags, Diagnostic{
							Analyzer: IgnoreAnalyzer, File: d.file, Line: d.line, Col: d.col,
							Message: "suppression must name a qualified analyzer: //lint:ignore rowpressvet/<name> <reason>",
						})
					case !known[strings.TrimPrefix(d.analyzer, namePrefix)]:
						d.bad = true
						*diags = append(*diags, Diagnostic{
							Analyzer: IgnoreAnalyzer, File: d.file, Line: d.line, Col: d.col,
							Message: "suppression names unknown analyzer " + d.analyzer + " (see lint.Analyzers)",
						})
					case d.reason == "":
						d.bad = true
						*diags = append(*diags, Diagnostic{
							Analyzer: IgnoreAnalyzer, File: d.file, Line: d.line, Col: d.col,
							Message: "suppression requires a reason: //lint:ignore " + d.analyzer + " <why this is safe>",
						})
					default:
						d.analyzer = strings.TrimPrefix(d.analyzer, namePrefix)
					}
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// parseDirective recognizes one comment as a rowpressvet suppression
// directive, or returns nil.
func parseDirective(prog *Program, pkg *Package, c *ast.Comment) *directive {
	if !strings.HasPrefix(c.Text, DirectivePrefix) {
		return nil
	}
	rest := strings.TrimPrefix(c.Text, DirectivePrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil // e.g. //lint:ignoreXXX — not this directive
	}
	// A nested // ends the directive: the fixture harness appends
	// `// want ...` expectations to the same comment, and reasons never
	// legitimately contain a comment marker.
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	pos := prog.Fset.Position(c.Pos())
	d := &directive{
		file:    pos.Filename,
		line:    pos.Line,
		col:     pos.Column,
		ownLine: aloneOnLine(pkg.Src[pos.Filename], pos.Offset),
	}
	if len(fields) > 0 {
		d.analyzer = fields[0]
	}
	if len(fields) > 1 {
		d.reason = strings.Join(fields[1:], " ")
	}
	// Directives targeting other tools are skipped entirely only when
	// they clearly name a foreign check (contain a slash with a
	// different prefix); a bare name is still ours to reject so typos
	// don't silently disable suppression.
	if strings.Contains(d.analyzer, "/") && !strings.HasPrefix(d.analyzer, namePrefix) {
		return nil
	}
	return d
}

// aloneOnLine reports whether only whitespace precedes the byte at
// offset on its line.
func aloneOnLine(src []byte, offset int) bool {
	if src == nil || offset > len(src) {
		return false
	}
	for i := offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t':
			continue
		default:
			return false
		}
	}
	return true
}

// applySuppressions matches directives against diagnostics: a
// well-formed directive drops same-analyzer diagnostics on its target
// line, and every unmatched directive becomes a staleness finding.
// Directive-misuse diagnostics (the "ignore" analyzer) are never
// suppressed.
func applySuppressions(prog *Program, analyzers []*Analyzer, diags []Diagnostic) []Diagnostic {
	dirs := collectDirectives(prog, analyzers, &diags)
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, dir := range dirs {
			if d.Analyzer == IgnoreAnalyzer || dir.bad || dir.analyzer != d.Analyzer || dir.file != d.File || dir.target() != d.Line {
				continue
			}
			suppressed = true
			dir.used = true
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	diags = kept
	for _, dir := range dirs {
		if dir.bad || dir.used {
			continue
		}
		diags = append(diags, Diagnostic{
			Analyzer: IgnoreAnalyzer, File: dir.file, Line: dir.line, Col: dir.col,
			Message: "stale suppression: no rowpressvet/" + dir.analyzer + " finding on the covered line",
		})
	}
	return diags
}

const testFile = "test.go"

// parseText parses a single comment as if it opened a file, so the
// resulting directive (when recognized) is own-line.
func parseText(t *testing.T, text string) *directive {
	t.Helper()
	fset := token.NewFileSet()
	f := fset.AddFile(testFile, -1, len(text)+1)
	f.SetLinesForContent([]byte(text))
	prog := &Program{Fset: fset}
	pkg := &Package{Src: map[string][]byte{testFile: []byte(text)}}
	return parseDirective(prog, pkg, &ast.Comment{Slash: f.Pos(0), Text: text})
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text     string
		skip     bool // not recognized as ours at all
		analyzer string
		reason   string
	}{
		{text: "// a normal comment", skip: true},
		{text: "//lint:ignoreXXX not the directive", skip: true},
		// Foreign tools' qualified directives pass through untouched.
		{text: "//lint:ignore staticcheck/SA1019 deprecated on purpose", skip: true},
		{text: "//lint:ignore rowpressvet/maprange keys feed a set", analyzer: "rowpressvet/maprange", reason: "keys feed a set"},
		// A nested // (the fixture want marker) ends the directive.
		{text: "//lint:ignore rowpressvet/maprange // want \"x\"", analyzer: "rowpressvet/maprange", reason: ""},
		// Bare names are ours to reject, so typos don't silently
		// disable suppression — collected, flagged later as unqualified.
		{text: "//lint:ignore maprange reason here", analyzer: "maprange", reason: "reason here"},
	}
	for _, c := range cases {
		d := parseText(t, c.text)
		if c.skip {
			if d != nil {
				t.Errorf("%q: parsed %+v, want nil", c.text, d)
			}
			continue
		}
		if d == nil {
			t.Errorf("%q: not recognized as a directive", c.text)
			continue
		}
		if d.analyzer != c.analyzer || d.reason != c.reason {
			t.Errorf("%q: got analyzer=%q reason=%q, want analyzer=%q reason=%q",
				c.text, d.analyzer, d.reason, c.analyzer, c.reason)
		}
		if !d.ownLine {
			t.Errorf("%q: comment at file start should be own-line", c.text)
		}
	}
}

func TestAloneOnLine(t *testing.T) {
	src := []byte("x := 1 //lint:ignore a b\n\t//lint:ignore c d\n")
	trailing := 7 // offset of the first directive, after "x := 1 "
	ownLine := 26 // offset of the second, after the newline and tab
	if aloneOnLine(src, trailing) {
		t.Errorf("trailing directive classified as own-line")
	}
	if !aloneOnLine(src, ownLine) {
		t.Errorf("own-line directive classified as trailing")
	}
}
