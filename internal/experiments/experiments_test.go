package experiments

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// quickRunner returns a Runner at test scale.
func quickRunner() *Runner {
	cfg := Quick()
	// Shrink further for unit tests: shapes survive, seconds matter.
	cfg.HHItems = 30_000
	cfg.MatRows = 2_000
	cfg.Sites = 5
	cfg.SiteList = []int{3, 6}
	return NewRunner(cfg)
}

// cellFloat parses a table cell as float64.
func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

// checkDeterministicBound asserts the paper's deterministic guarantee on an
// err-vs-ε table: P1 and P2 keep the covariance error within ε at every
// sweep point.
func checkDeterministicBound(t *testing.T, tbl *Table) {
	t.Helper()
	for _, proto := range []string{"P1", "P2"} {
		col := slices.Index(tbl.Columns, proto)
		if col < 0 {
			t.Fatalf("%s has no %s column (columns %v)", tbl.ID, proto, tbl.Columns)
		}
		for _, row := range tbl.Rows {
			eps := cellFloat(t, row[0])
			if v := cellFloat(t, row[col]); v > eps {
				t.Errorf("%s: %s err %v exceeds ε=%v", tbl.ID, proto, v, eps)
			}
		}
	}
}

func findTable(tables []Table, id string) *Table {
	for i := range tables {
		if tables[i].ID == id {
			return &tables[i]
		}
	}
	return nil
}

func TestFig1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	r := quickRunner()
	tables := r.Fig1()
	if len(tables) != 6 {
		t.Fatalf("Fig1 returned %d tables, want 6", len(tables))
	}

	// (a) recall must be 1.0 everywhere — the paper's headline.
	recall := findTable(tables, "Fig 1(a)")
	for _, row := range recall.Rows {
		for _, cell := range row[1:] {
			if v := cellFloat(t, cell); v < 1 {
				t.Fatalf("recall %v < 1 in row %v", v, row)
			}
		}
	}

	// (c) the measured error must outperform ε for the deterministic
	// protocols (columns: eps, P1, P2, P3, P4).
	errs := findTable(tables, "Fig 1(c)")
	for _, row := range errs.Rows {
		eps := cellFloat(t, row[0])
		for i, proto := range []string{"P1", "P2", "P3", "P4"} {
			v := cellFloat(t, row[1+i])
			slack := 1.0
			if proto == "P3" || proto == "P4" {
				slack = 3 // randomized, small-scale run
			}
			// err is relative to f_e ≥ φW, guarantee is ε·W: allow ε/φ.
			if v > slack*eps/0.05 {
				t.Fatalf("%s err %v at ε=%v breaks guarantee shape", proto, v, eps)
			}
		}
	}

	// (d) message counts shrink as ε grows for P2 (first vs last row).
	msgs := findTable(tables, "Fig 1(d)")
	first := cellFloat(t, msgs.Rows[0][2])
	last := cellFloat(t, msgs.Rows[len(msgs.Rows)-1][2])
	if last > first {
		t.Fatalf("P2 messages grew with ε: %v → %v", first, last)
	}

	// All protocols beat the naive N-message baseline at the largest ε.
	n := float64(r.cfg.HHItems)
	lastRow := msgs.Rows[len(msgs.Rows)-1]
	for _, cell := range lastRow[1:] {
		if cellFloat(t, cell) >= n {
			t.Fatalf("protocol sent ≥ N messages at largest ε: %v", lastRow)
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	r := quickRunner()
	tbl := r.Table1()
	if len(tbl.Rows) != 6 {
		t.Fatalf("Table 1 has %d rows, want 6", len(tbl.Rows))
	}
	get := func(method string) []string {
		for _, row := range tbl.Rows {
			if row[0] == method {
				return row
			}
		}
		t.Fatalf("method %s missing", method)
		return nil
	}
	// SVD (optimal rank-k) error must be ≤ every protocol's on each dataset;
	// on the low-rank dataset it must be tiny, on the high-rank one visible.
	svdPam := cellFloat(t, get("SVD")[1])
	svdMSD := cellFloat(t, get("SVD")[3])
	if svdPam > 1e-3 {
		t.Fatalf("PAMAP rank-30 SVD err %v not tiny (dataset should be low rank)", svdPam)
	}
	if svdMSD < 1e-3 {
		t.Fatalf("MSD rank-50 SVD err %v too small (dataset should be high rank)", svdMSD)
	}
	// P3wor must use fewer messages than P3wr (the paper's comparison).
	worMsg := cellFloat(t, get("P3wor")[2])
	wrMsg := cellFloat(t, get("P3wr")[2])
	if worMsg >= wrMsg {
		t.Fatalf("P3wor messages %v not below P3wr %v", worMsg, wrMsg)
	}
	// The deterministic protocols keep their error within ε=0.1 on both
	// datasets.
	for _, method := range []string{"P1", "P2"} {
		for _, col := range []int{1, 3} {
			if v := cellFloat(t, get(method)[col]); v > 0.1 {
				t.Errorf("%s %s %v exceeds ε=0.1", method, tbl.Columns[col], v)
			}
		}
	}
	// P1's error is far smaller than P2's but its message count is near the
	// naive baseline.
	p1Pam := cellFloat(t, get("P1")[1])
	p2Pam := cellFloat(t, get("P2")[1])
	if p1Pam > p2Pam {
		t.Fatalf("P1 err %v above P2 err %v on low-rank data", p1Pam, p2Pam)
	}
	// P2 saves at least 2x communication against P1 on this small run.
	p1Msg := cellFloat(t, get("P1")[2])
	p2Msg := cellFloat(t, get("P2")[2])
	if p2Msg*2 > p1Msg {
		t.Fatalf("P2 msgs %v not well below P1 msgs %v", p2Msg, p1Msg)
	}
}

func TestFig2Fig4Fig6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	r := quickRunner()
	f2 := r.Fig2()
	if len(f2) != 4 {
		t.Fatalf("Fig2 returned %d tables", len(f2))
	}
	// (a): P1 and P2 within ε everywhere; P2's error decreases (weakly) as
	// ε decreases.
	ta := findTable(f2, "Fig 2(a)")
	checkDeterministicBound(t, ta)
	smallest := cellFloat(t, ta.Rows[0][2])
	largest := cellFloat(t, ta.Rows[len(ta.Rows)-1][2])
	if smallest > largest+1e-9 {
		t.Fatalf("P2 err at smallest ε (%v) above largest ε (%v)", smallest, largest)
	}
	// (c): P2 messages grow with m.
	tc := findTable(f2, "Fig 2(c)")
	mFirst := cellFloat(t, tc.Rows[0][2])
	mLast := cellFloat(t, tc.Rows[len(tc.Rows)-1][2])
	if mLast <= mFirst {
		t.Fatalf("P2 messages did not grow with sites: %v → %v", mFirst, mLast)
	}

	// Fig 4 derives from the same sweep (memoized — must be instant).
	f4 := r.Fig4()
	if len(f4) != 2 || len(f4[0].Rows) == 0 {
		t.Fatal("Fig4 empty")
	}

	// Fig 6: P4's error at the smallest ε must exceed P2's substantially.
	f6 := r.Fig6()
	row := findTable(f6, "Fig 6(a)").Rows[0] // smallest ε
	p2err := cellFloat(t, row[2])
	p4err := cellFloat(t, row[4])
	if p4err < 5*p2err {
		t.Fatalf("P4 err %v not clearly worse than P2 err %v at small ε", p4err, p2err)
	}
}

func TestFig3Fig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	r := quickRunner()
	f3 := r.Fig3()
	if len(f3) != 4 {
		t.Fatalf("Fig3 returned %d tables", len(f3))
	}
	// High-rank dataset: P1 and P2 error still under each ε.
	checkDeterministicBound(t, findTable(f3, "Fig 3(a)"))
	// Fig 7 reuses the sweep; P4's error at smallest ε far above P2's.
	f7 := r.Fig7()
	row := findTable(f7, "Fig 7(a)").Rows[0]
	if p4, p2 := cellFloat(t, row[4]), cellFloat(t, row[2]); p4 < 5*p2 {
		t.Fatalf("MSD P4 err %v not clearly worse than P2 %v", p4, p2)
	}
}

func TestStabilityShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	r := quickRunner()
	tables := r.Stability()
	if len(tables) != 2 {
		t.Fatalf("Stability returned %d tables", len(tables))
	}
	// Deterministic protocols: every checkpoint's matrix error under ε=0.1
	// (columns: instant, P1, P2, P3).
	tm := tables[1]
	if len(tm.Rows) != 10 {
		t.Fatalf("stability rows = %d", len(tm.Rows))
	}
	for _, row := range tm.Rows {
		for col := 1; col <= 2; col++ { // P1, P2 deterministic
			if v := cellFloat(t, row[col]); v > 0.1 {
				t.Fatalf("instant %s: err %v exceeds ε", row[0], v)
			}
		}
	}
}

func TestChartFromTable(t *testing.T) {
	tbl := Table{
		ID: "X", Title: "sweep", Columns: []string{"eps", "P1"},
		Rows:      [][]string{{"0.01", "5"}, {"0.1", "2"}},
		Chartable: true, LogX: true, LogY: true,
	}
	c, err := tbl.Chart()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "P1") {
		t.Fatal("chart missing series label")
	}
	// Non-chartable and non-numeric cases.
	tbl.Chartable = false
	if _, err := tbl.Chart(); err == nil {
		t.Fatal("expected not-chartable error")
	}
	tbl.Chartable = true
	tbl.Rows[0][1] = "n/a"
	if _, err := tbl.Chart(); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestRenderTable(t *testing.T) {
	tbl := Table{
		ID:      "X",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   "note",
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== X: demo ==", "a    bb", "333  4", "-- note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestDatasetUnknownPanics(t *testing.T) {
	r := NewRunner(Quick())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.dataset("nope")
}

func TestConfigsSane(t *testing.T) {
	for _, cfg := range []Config{Default(), Quick()} {
		if cfg.HHItems <= 0 || cfg.MatRows <= 0 || cfg.Sites <= 0 {
			t.Fatalf("bad config %+v", cfg)
		}
		if len(cfg.HHEpsList) == 0 || len(cfg.MatEpsList) == 0 {
			t.Fatal("empty sweeps")
		}
	}
}
