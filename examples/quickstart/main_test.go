package main

import (
	"strings"
	"testing"
)

// TestQuickstartShowsRowPress: the front-door example must reach an
// aggressor whose single 30 ms activation flips a neighbour.
func TestQuickstartShowsRowPress(t *testing.T) {
	var out strings.Builder
	flips, err := run(&out)
	if err != nil {
		t.Fatal(err)
	}
	if flips == 0 || !strings.Contains(out.String(), "that is RowPress") {
		t.Fatalf("quickstart shows %d bitflips:\n%s", flips, out.String())
	}
}
