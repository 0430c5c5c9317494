// Command rowpressvet runs the repository's custom static-analysis
// suite (internal/lint): project-specific analyzers enforcing the
// determinism and concurrency contracts that `go vet` cannot know
// about — unsorted map iteration feeding reports (maprange),
// wall-clock reads in deterministic compute (wallclock), randomness
// outside the seeded stats.RNG (rngsource), and mixed atomic/plain
// field access (atomicmix).
//
// Usage:
//
//	rowpressvet [-json] [-list] [packages ...]
//
// With no packages, ./... is analyzed. Directories (including testdata
// fixtures, which package patterns never match) may be named
// explicitly. The exit status is 0 when the tree is clean, 1 when any
// unsuppressed finding exists, and 2 on usage or load errors.
//
// Findings are suppressed per line with a mandatory reason:
//
//	//lint:ignore rowpressvet/<analyzer> <reason>
//
// trailing the offending line or alone on the line above it. A
// reason-less or stale directive is itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic per line (suppressed findings included)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rowpressvet [-json] [-list] [packages ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-10s %s\n", lint.IgnoreAnalyzer, "suppression-directive hygiene (missing reason, unknown analyzer, stale)")
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	prog, err := lint.Load(cwd, patterns)
	if err != nil {
		fatal(err)
	}
	for _, pkg := range prog.Pkgs {
		for _, terr := range pkg.Errors {
			fatal(fmt.Errorf("%s: %v", pkg.ImportPath, terr))
		}
	}

	diags := lint.Run(prog, lint.Analyzers())
	active := lint.Active(diags)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			d.File = relPath(cwd, d.File)
			if err := enc.Encode(d); err != nil {
				fatal(err)
			}
		}
	} else {
		for _, d := range active {
			d.File = relPath(cwd, d.File)
			fmt.Println(d.String())
		}
	}
	if len(active) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "rowpressvet: %d finding(s)\n", len(active))
		}
		os.Exit(1)
	}
}

// relPath shortens absolute file names to cwd-relative ones for
// readable, stable output.
func relPath(cwd, path string) string {
	if rel, err := filepath.Rel(cwd, path); err == nil && len(rel) < len(path) {
		return rel
	}
	return path
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rowpressvet: %v\n", err)
	os.Exit(2)
}
