package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites testdata/quick.golden from the current tree. The
// committed file pins every figure and table of `experiments -quick -seed 1`
// byte for byte; regenerate it only for a change meant to move a result,
// and say which in the change's notes.
var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the current tree")

// TestQuickTablesGolden regenerates the tables `experiments -quick -seed 1`
// prints — every experiment, in cmd/experiments' catalogue order — and
// diffs them against testdata/quick.golden.
func TestQuickTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale sweep (~15 s)")
	}
	cfg := Quick()
	cfg.Seed = 1
	r := NewRunner(cfg)
	var got bytes.Buffer
	for _, run := range []func() []Table{
		r.Fig1,
		func() []Table { return []Table{r.Table1()} },
		r.Fig2, r.Fig3, r.Fig4, r.Fig6, r.Fig7, r.Stability,
	} {
		for _, tbl := range run() {
			tbl.Render(&got)
		}
	}
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("quick tables differ from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
