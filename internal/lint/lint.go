// Package lint is rowpressvet's analysis framework: a stdlib-only
// (go/parser + go/ast + go/types) static-analysis suite encoding the
// repository's determinism and concurrency contracts. The repo's core
// invariant — every experiment report is byte-identical at any worker
// count, any cache state, any replay path — is enforced dynamically by
// the golden suite, but golden tests only catch hazards on inputs they
// run; the analyzers here catch whole bug classes (unsorted map
// iteration feeding reports, wall-clock reads in deterministic compute,
// unseeded randomness, mixed atomic/plain field access) at vet time.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis in
// miniature — Analyzer, Pass, Diagnostic, a testdata harness driven by
// `// want "regexp"` comments — but depends only on the standard
// library, because the module carries zero external dependencies and
// must stay that way.
//
// Findings are suppressed line by line with
//
//	//lint:ignore rowpressvet/<analyzer> <reason>
//
// either trailing the offending line or alone on the line above it.
// The reason is mandatory: a reason-less directive is itself a finding,
// as is a stale directive that no longer matches any diagnostic.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// An Analyzer is one named check, run once per loaded package.
type Analyzer struct {
	// Name is the analyzer's identifier as it appears in diagnostics
	// and suppression directives (rowpressvet/<Name>).
	Name string
	// Doc is a one-line description, shown by rowpressvet -list.
	Doc string
	// Run performs the analysis, reporting findings through the pass.
	Run func(*Pass)
}

// A Pass carries one analyzer invocation over one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed to its
// analyzer. Suppressed diagnostics are retained (rowpressvet -json
// emits them with "suppressed": true) so suppression density stays
// observable.
type Diagnostic struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	// Reason is the suppression's justification when Suppressed.
	Reason string `json:"reason,omitempty"`
}

// String renders the diagnostic in the canonical file:line: analyzer:
// message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.File, d.Line, d.Analyzer, d.Message)
}

// Analyzers returns the full rowpressvet suite, sorted by name.
func Analyzers() []*Analyzer {
	out := []*Analyzer{
		AtomicMix,
		MapRange,
		RNGSource,
		WallClock,
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run executes the analyzers over the loaded program, applies
// suppression directives, and returns every diagnostic — suppressed
// ones included — sorted by position then analyzer. Directive misuse
// (missing reason, unknown analyzer, stale suppression) surfaces as
// diagnostics from the reserved "ignore" analyzer, which cannot itself
// be suppressed.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Pkgs {
			a.Run(&Pass{Analyzer: a, Fset: prog.Fset, Pkg: pkg, diags: &diags})
		}
	}
	diags = applySuppressions(prog, analyzers, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// Active filters diags down to the findings that should fail a run:
// everything not suppressed by a reasoned directive.
func Active(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}
