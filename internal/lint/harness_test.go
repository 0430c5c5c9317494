package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// This file is the fixture-test harness: testdata packages annotate
// offending lines with analysistest-style expectation comments,
//
//	m := map[int]int{}           // no comment: no finding expected
//	for k := range m { use(k) }  // want "map iteration"
//
// and checkFixture runs the full pipeline (analyzers + suppression
// handling) over the package, failing on any unmatched expectation or
// unexpected finding. Each `// want` takes one or more Go-quoted
// regular expressions, each matched against "analyzer: message" of a
// distinct active diagnostic on that line.

// wantMarker introduces an expectation clause inside a comment.
const wantMarker = "// want "

// expectation is one parsed want clause.
type expectation struct {
	file     string
	line     int
	patterns []*regexp.Regexp
	matched  []bool
}

// fixtureDir resolves the conventional fixture location for a named
// case: testdata/<analyzer>/<case> under the lint package.
func fixtureDir(elem ...string) string {
	return filepath.Join(append([]string{"testdata"}, elem...)...)
}

// checkFixture loads the package rooted at dir, runs the given
// analyzers through the standard pipeline, and fails the test on any
// type error, unmatched `// want` expectation or unexpected finding.
// It returns the findings so callers can assert more about them.
func checkFixture(t *testing.T, dir string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(abs, []string{abs})
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	for _, pkg := range prog.Pkgs {
		for _, terr := range pkg.Errors {
			t.Errorf("type error: %v", terr)
		}
	}
	wants, err := collectWants(prog)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	diags := Run(prog, analyzers)

	for _, d := range diags {
		got := d.Analyzer + ": " + d.Message
		if !matchWant(wants, d, got) {
			t.Errorf("%s:%d: unexpected finding: %s", d.File, d.Line, got)
		}
	}
	for _, w := range wants {
		for i, re := range w.patterns {
			if !w.matched[i] {
				t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, re)
			}
		}
	}
	return diags
}

// matchWant consumes one unmatched pattern covering the diagnostic.
func matchWant(wants []*expectation, d Diagnostic, got string) bool {
	for _, w := range wants {
		if w.file != d.File || w.line != d.Line {
			continue
		}
		for i, re := range w.patterns {
			if !w.matched[i] && re.MatchString(got) {
				w.matched[i] = true
				return true
			}
		}
	}
	return false
}

// collectWants parses every `// want "re" ["re" ...]` comment.
func collectWants(prog *Program) ([]*expectation, error) {
	var out []*expectation
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// The marker may open the comment or trail other
					// text — suppression-directive fixtures annotate the
					// directive comment itself (`//lint:ignore ... // want ...`),
					// since a line comment swallows the rest of the line.
					idx := strings.Index(c.Text, wantMarker)
					if idx < 0 {
						continue
					}
					text := c.Text[idx+len(wantMarker):]
					pos := prog.Fset.Position(c.Pos())
					w := &expectation{file: pos.Filename, line: pos.Line}
					for rest := strings.TrimSpace(text); rest != ""; rest = strings.TrimSpace(rest) {
						if rest[0] != '"' {
							return nil, fmt.Errorf("%s:%d: want clause needs quoted regexps, got %q", pos.Filename, pos.Line, rest)
						}
						end := 1
						for end < len(rest) && (rest[end] != '"' || rest[end-1] == '\\') {
							end++
						}
						if end == len(rest) {
							return nil, fmt.Errorf("%s:%d: unterminated want pattern", pos.Filename, pos.Line)
						}
						lit, err := strconv.Unquote(rest[:end+1])
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, rest[:end+1], err)
						}
						re, err := regexp.Compile(lit)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
						}
						w.patterns = append(w.patterns, re)
						rest = rest[end+1:]
					}
					if len(w.patterns) == 0 {
						return nil, fmt.Errorf("%s:%d: empty want clause", pos.Filename, pos.Line)
					}
					w.matched = make([]bool, len(w.patterns))
					out = append(out, w)
				}
			}
		}
	}
	return out, nil
}
