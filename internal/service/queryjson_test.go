package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	distmat "repro"
	"repro/internal/gen"
	"repro/internal/matrix"
)

// oracleMatrixBody is the matrix branch of handleQuery as it stood before
// the append encoder replaced it — the map, the [][]float64 staging through
// Sym.At and encoding/json — kept as the specification of every byte.
func oracleMatrixBody(tb testing.TB, count int64, frob float64, g *matrix.Sym, withGram bool) []byte {
	resp := map[string]any{
		"kind":      KindMatrix,
		"count":     count,
		"frobenius": frob,
		"trace":     g.Trace(),
	}
	if withGram {
		d := g.Dim()
		gram := make([][]float64, d)
		for i := range gram {
			gram[i] = make([]float64, d)
			for j := range gram[i] {
				gram[i][j] = g.At(i, j)
			}
		}
		resp["gram"] = gram
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// oracleHHBody and oracleQuantileBody are handleQuery's item branches as
// they stood before the append encoders — the maps and encoding/json —
// kept as the specification of every byte.
func oracleHHBody(tb testing.TB, at ItemTotals, phi float64, hits []distmat.WeightedElement) []byte {
	type hit struct {
		Elem   uint64  `json:"elem"`
		Weight float64 `json:"weight"`
	}
	out := make([]hit, len(hits))
	for i, h := range hits {
		out[i] = hit{Elem: h.Elem, Weight: h.Weight}
	}
	return oracleEncode(tb, map[string]any{
		"kind": KindHH, "count": at.Count, "phi": phi,
		"total": at.Total, "heavy_hitters": out,
	})
}

func oracleQuantileBody(tb testing.TB, at ItemTotals, phis []float64, vals []uint64) []byte {
	type qv struct {
		Phi   float64 `json:"phi"`
		Value uint64  `json:"value"`
	}
	out := make([]qv, len(phis))
	for i, phi := range phis {
		out[i] = qv{Phi: phi, Value: vals[i]}
	}
	return oracleEncode(tb, map[string]any{
		"kind": KindQuantile, "count": at.Count,
		"total": at.Total, "quantiles": out,
	})
}

func oracleEncode(tb testing.TB, v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// pamapRows is n rows of the paper's PAMAP shape (d = 44, rank ≈ 10), column
// j times 10^(spread·(j mod 9 − 4)): spread 0 leaves the rows alone, spread
// 3 takes Gram entries from 1e-24 to 1e24, through both ends of
// encoding/json's 'f' range. (Scaling whole rows down does not: P2 assumes
// squared norms ≥ 1 and ships nothing below that, an all-zero Gram.)
func pamapRows(n, spread int) [][]float64 {
	rows := gen.LowRankMatrix(gen.PAMAPLike(n))
	for _, row := range rows {
		for j := range row {
			row[j] *= math.Pow(10, float64(spread*(j%9-4)))
		}
	}
	return rows
}

// newQueryTracker opens a manager holding one matrix tracker "m" fed rows
// in 64-row batches over its four sites.
func newQueryTracker(tb testing.TB, spec Spec, rows [][]float64) (*Manager, *Tracker) {
	tb.Helper()
	mgr, err := Open(Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { mgr.Close() })
	tr, err := mgr.Create("m", spec)
	if err != nil {
		tb.Fatal(err)
	}
	for i, site := 0, 0; i < len(rows); i, site = i+64, (site+1)%spec.Sites {
		if err := tr.IngestRows(context.Background(), site, rows[i:min(i+64, len(rows))]); err != nil {
			tb.Fatal(err)
		}
	}
	return mgr, tr
}

// newItemTracker opens a manager holding one item tracker "m" fed items
// in 256-item batches over its four sites.
func newItemTracker(tb testing.TB, spec Spec, items []distmat.WeightedItem) (*Manager, *Tracker) {
	tb.Helper()
	mgr, err := Open(Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { mgr.Close() })
	tr, err := mgr.Create("m", spec)
	if err != nil {
		tb.Fatal(err)
	}
	for i, site := 0, 0; i < len(items); i, site = i+256, (site+1)%spec.Sites {
		if err := tr.IngestItems(context.Background(), site, items[i:min(i+256, len(items))]); err != nil {
			tb.Fatal(err)
		}
	}
	return mgr, tr
}

func benchSpec(shards int) Spec {
	return Spec{Kind: KindMatrix, Protocol: "p2", Fast: true, Sites: 4, Epsilon: 0.1, Dim: 44, Shards: shards}
}

// ulpAsymmetric returns g with every third entry below the diagonal moved
// one ulp off its mirror, adopted verbatim as a checkpoint restore would.
func ulpAsymmetric(g *matrix.Sym) *matrix.Sym {
	d, raw := g.Dim(), g.RawData()
	for i := 0; i < d; i++ {
		for j := 0; j < i; j++ {
			if (i+j)%3 == 0 {
				raw[i*d+j] = math.Nextafter(raw[i*d+j], math.Inf(1))
			}
		}
	}
	return matrix.SymFromRaw(d, raw)
}

// TestQueryResponseBytes is the byte-identity proof behind the append
// encoder: over a real server the matrix answer — body and headers — is
// what the map-building oracle makes of the same snapshot, unsharded and
// on four shards, with and without ?gram=1, for an empty tracker, for
// 2.5 k PAMAP-like rows and for the same rows with their columns spread over
// 1e±12 (entries under 1e-6 and from 1e21 up take the 'e' format). The
// mirror copy is then held to "selected by
// nothing but the input": on a Gram that is asymmetric in the last ulp it
// must not fire, neither on a p3 tracker's own (AddOuter with w ≠ 1) nor on
// a restored SymFromRaw one. The item trackers' answers are held to their
// oracles the same way (itemResponseBytes).
func TestQueryResponseBytes(t *testing.T) {
	get := func(t *testing.T, tr *Tracker, url string, withGram bool) []byte {
		t.Helper()
		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return getOracle(t, url, oracleMatrixBody(t, snap.Count, snap.Frobenius, snap.Gram, withGram))
	}
	for _, shards := range []int{0, 4} {
		for _, c := range []struct {
			name  string
			rows  [][]float64
			wantE bool
		}{
			{"empty", nil, false},
			{"pamap", pamapRows(2500, 0), false},
			{"pamap-1e±12", pamapRows(2500, 3), true},
		} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, c.name), func(t *testing.T) {
				mgr, tr := newQueryTracker(t, benchSpec(shards), c.rows)
				srv := httptest.NewServer(mgr.Handler())
				defer srv.Close()
				get(t, tr, srv.URL+"/trackers/m/query", false)
				body := get(t, tr, srv.URL+"/trackers/m/query?gram=1", true)
				if e := bytes.Contains(body, []byte("e-")) && bytes.Contains(body, []byte("e+")); e != c.wantE {
					t.Errorf("'e'-format entries at both ends: %v, want %v", e, c.wantE)
				}
			})
		}
	}

	t.Run("p3-asymmetric", func(t *testing.T) {
		spec := benchSpec(0)
		spec.Protocol, spec.Fast = "p3", false
		mgr, tr := newQueryTracker(t, spec, pamapRows(600, 0))
		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if symmetricBits(snap.Gram) {
			t.Fatal("a p3 Gram is symmetric to the bit: this case no longer tests the mirror check")
		}
		srv := httptest.NewServer(mgr.Handler())
		defer srv.Close()
		get(t, tr, srv.URL+"/trackers/m/query?gram=1", true)
	})

	t.Run("items", itemResponseBytes)

	t.Run("restored-asymmetric", func(t *testing.T) {
		_, tr := newQueryTracker(t, benchSpec(4), pamapRows(2500, 0))
		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !symmetricBits(snap.Gram) {
			t.Fatal("a p2 Gram is not symmetric to the bit: the mirror copy never fires on the benchmark's data")
		}
		g := ulpAsymmetric(snap.Gram)
		var b replyBuf
		if err := b.encodeMatrix(snap.Count, snap.Frobenius, g, true); err != nil {
			t.Fatal(err)
		}
		if want := oracleMatrixBody(t, snap.Count, snap.Frobenius, g, true); !bytes.Equal(b.out, want) {
			t.Fatalf("ulp-asymmetric Gram: body differs from the oracle at byte %d: the mirror copy fired on unequal bits", firstDiff(b.out, want))
		}
	})
}

// getOracle GETs url and wants want back byte for byte, as a 200 of JSON
// sent with its Content-Length and no chunking.
func getOracle(t *testing.T, url string, want []byte) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("body differs from the encoding/json oracle (%d bytes against %d): first difference at %d", len(got), len(want), firstDiff(got, want))
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Errorf("status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(want)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %q for a %d-byte body, Transfer-Encoding %v: want the length and no chunking", cl, len(want), resp.TransferEncoding)
	}
	return got
}

// itemResponseBytes is TestQueryResponseBytes on the item trackers: over
// a real server the heavy-hitters and quantile answers — body and headers —
// are what the map-building oracles make of the same answer, unsharded and
// on four shards, for an empty tracker (an empty "heavy_hitters" list) and
// for 20 k Zipf items, with one φ and with three out of order.
func itemResponseBytes(t *testing.T) {
	items := gen.ZipfStream(gen.ZipfConfig{N: 20000, Skew: 1.3, Universe: 1 << 16, Beta: 1000, Seed: 5})
	for _, shards := range []int{0, 4} {
		for _, c := range []struct {
			name  string
			items []distmat.WeightedItem
		}{{"empty", nil}, {"zipf", items}} {
			t.Run(fmt.Sprintf("shards=%d/%s/hh", shards, c.name), func(t *testing.T) {
				mgr, tr := newItemTracker(t, Spec{Kind: KindHH, Protocol: "p2", Sites: 4, Epsilon: 0.01, Shards: shards}, c.items)
				srv := httptest.NewServer(mgr.Handler())
				defer srv.Close()
				for _, phi := range []float64{0.01, 0.3} {
					hits, at, err := tr.QueryHeavyHitters(phi)
					if err != nil {
						t.Fatal(err)
					}
					body := getOracle(t, srv.URL+"/trackers/m/query?phi="+strconv.FormatFloat(phi, 'g', -1, 64), oracleHHBody(t, at, phi, hits))
					if empty := bytes.Contains(body, []byte(`"heavy_hitters":[]`)); empty != (len(hits) == 0) {
						t.Errorf("φ = %v: %d hits, empty list in the body: %v", phi, len(hits), empty)
					}
					if c.items != nil && phi == 0.01 && len(hits) < 2 {
						t.Errorf("φ = %v: %d hits: the populated case lists fewer than two", phi, len(hits))
					}
				}
			})
			t.Run(fmt.Sprintf("shards=%d/%s/quantile", shards, c.name), func(t *testing.T) {
				mgr, tr := newItemTracker(t, Spec{Kind: KindQuantile, Protocol: "qdigest", Sites: 4, Epsilon: 0.01, Bits: 16, Shards: shards}, c.items)
				srv := httptest.NewServer(mgr.Handler())
				defer srv.Close()
				for _, q := range []struct {
					query string
					phis  []float64
				}{{"", []float64{0.5}}, {"?phi=0.99", []float64{0.99}}, {"?phi=0.9&phi=0.01&phi=0.5", []float64{0.9, 0.01, 0.5}}} {
					vals, at, err := tr.QueryQuantiles(q.phis)
					if err != nil {
						t.Fatal(err)
					}
					getOracle(t, srv.URL+"/trackers/m/query"+q.query, oracleQuantileBody(t, at, q.phis, vals))
				}
			})
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func symmetricBits(g *matrix.Sym) bool {
	for i := 0; i < g.Dim(); i++ {
		for j := 0; j < i; j++ {
			if math.Float64bits(g.At(i, j)) != math.Float64bits(g.At(j, i)) {
				return false
			}
		}
	}
	return true
}

// TestQueryNonFinite500 pins what a query answers once a tracker's state
// has left the finite floats (one accepted row of 1e200 does it): a 500
// naming the value, where encoding/json used to fail after the 200 status
// line had gone out and leave an empty body. The generic writeJSON keeps
// the same order for every other reply.
func TestQueryNonFinite500(t *testing.T) {
	mgr, _ := newQueryTracker(t, Spec{Kind: KindMatrix, Protocol: "p2", Sites: 2, Epsilon: 0.1, Dim: 3},
		[][]float64{{1e200, 1, 1}})
	for _, q := range []string{"", "?gram=1"} {
		rec := httptest.NewRecorder()
		mgr.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/trackers/m/query"+q, nil))
		var doc struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("query%s: body %q: %v", q, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || !strings.Contains(doc.Error, "is +Inf") {
			t.Errorf("query%s: %d %q, want a 500 naming the +Inf", q, rec.Code, doc.Error)
		}
	}

	// An entry alone: frobenius and trace finite.
	g := matrix.SymFromRaw(2, []float64{1, math.NaN(), math.NaN(), 1})
	var b replyBuf
	if err := b.encodeMatrix(2, 2, g, true); err == nil || !strings.Contains(err.Error(), "gram[0][1] is NaN") {
		t.Errorf("NaN entry: error %v, want one naming gram[0][1]", err)
	}
	if err := b.encodeMatrix(2, 2, g, false); err != nil {
		t.Errorf("the plain answer does not carry the entry: %v", err)
	}

	// The item answers: three posts of two items of weight 1e308 take Ŵ
	// past the largest float64.
	for _, c := range []struct{ kind, query string }{
		{KindHH, "?phi=0.5"}, {KindQuantile, ""}, {KindQuantile, "?phi=0.1&phi=0.9"},
	} {
		mgr, _ := newItemTracker(t, Spec{Kind: c.kind, Sites: 2, Epsilon: 0.1, Bits: 8},
			[]distmat.WeightedItem{{Elem: 1, Weight: 1e308}, {Elem: 2, Weight: 1e308}})
		for range 2 {
			rec := httptest.NewRecorder()
			mgr.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/trackers/m/items",
				strings.NewReader(`{"items":[{"elem":1,"weight":1e308},{"elem":2,"weight":1e308}]}`)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: post: %d %q", c.kind, rec.Code, rec.Body)
			}
		}
		rec := httptest.NewRecorder()
		mgr.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/trackers/m/query"+c.query, nil))
		var doc struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s query%s: body %q: %v", c.kind, c.query, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || !strings.Contains(doc.Error, c.kind+" answer is not finite") ||
			!strings.Contains(doc.Error, "is +Inf") {
			t.Errorf("%s query%s: %d %q, want a 500 naming the +Inf", c.kind, c.query, rec.Code, doc.Error)
		}
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"weight": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value") ||
		rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("writeJSON of +Inf: %d %q (Content-Length %q), want a 500 with the encoder's message", rec.Code, rec.Body, rec.Header().Get("Content-Length"))
	}
}

// discardWriter is a ResponseWriter that keeps nothing: the handler's own
// cost, without a recorder's copy.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// queryLap returns one in-process GET of path against the tracker behind
// mgr, through the real handler.
func queryLap(mgr *Manager, path string) func() {
	h, w := mgr.Handler(), &discardWriter{h: http.Header{}}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	return func() { h.ServeHTTP(w, req) }
}

func benchQuery(b *testing.B, shards int, path string) {
	mgr, _ := newQueryTracker(b, benchSpec(shards), pamapRows(2500, 0))
	lap := queryLap(mgr, path)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lap()
	}
}

// The README's handler table: go test -run '^$' -bench 'BenchmarkQuery' -benchmem ./internal/service
func BenchmarkQueryPlainSharded(b *testing.B)  { benchQuery(b, 4, "/trackers/m/query") }
func BenchmarkQueryGramSharded(b *testing.B)   { benchQuery(b, 4, "/trackers/m/query?gram=1") }
func BenchmarkQueryGramUnsharded(b *testing.B) { benchQuery(b, 0, "/trackers/m/query?gram=1") }

// TestQueryEncodeGuard keeps the append encoder worth having (medians of 21
// laps, old and new taking turns so that a noisy spell falls on both, a
// reading under the floor taken again twice at most, as TestEigSymGuard
// does): over a d = 44 P2 Gram appendJSONFloat is at least 1.4× strconv
// under encoding/json's rule, the ?gram=1 handler at least 1.6× the handler
// it replaced, and encoding into a warm buffer allocates nothing.
func TestQueryEncodeGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	mgr, tr := newQueryTracker(t, benchSpec(0), pamapRows(2500, 0))
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g, d := snap.Gram, snap.Gram.Dim()
	b := &replyBuf{out: make([]byte, 0, 64<<10)}
	encode := func() {
		if err := b.encodeMatrix(snap.Count, snap.Frobenius, g, true); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if allocs := testing.AllocsPerRun(20, encode); allocs != 0 {
		t.Errorf("encodeMatrix: %v allocs per call on a warm buffer, want 0", allocs)
	}

	buf := make([]byte, 0, 64<<10)
	specFloats := func() {
		buf = buf[:0]
		for i := 0; i < d; i++ {
			for _, v := range g.Row(i) {
				buf = specAppendJSONFloat(buf, v)
			}
		}
	}
	newFloats := func() {
		buf = buf[:0]
		for i := 0; i < d; i++ {
			for _, v := range g.Row(i) {
				buf = appendJSONFloat(buf, v)
			}
		}
	}
	w := &discardWriter{h: http.Header{}}
	oldHandler := func() { // handleQuery's matrix branch before the encoder
		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.Gram = snap.Gram.Clone() // Session.Snapshot's second copy
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(oracleMatrixBody(t, snap.Count, snap.Frobenius, snap.Gram, true))
	}
	for _, c := range []struct {
		name     string
		old, new func()
		calls    int
		floor    float64
	}{
		{"appendJSONFloat over a 44×44 Gram against strconv", specFloats, newFloats, 4, 1.4},
		{"?gram=1 handler against the map-building one", oldHandler, queryLap(mgr, "/trackers/m/query?gram=1"), 4, 1.6},
	} {
		lap := func(f func()) time.Duration {
			start := time.Now()
			for k := 0; k < c.calls; k++ {
				f()
			}
			return time.Since(start) / time.Duration(c.calls)
		}
		ratio := 0.0
		for attempt := 0; attempt < 3 && ratio < c.floor; attempt++ {
			var to, tn [21]time.Duration
			for i := range to {
				to[i], tn[i] = lap(c.old), lap(c.new)
			}
			slices.Sort(to[:])
			slices.Sort(tn[:])
			ratio = float64(to[len(to)/2]) / float64(tn[len(tn)/2])
			t.Logf("%s: %v → %v: %.2fx", c.name, to[len(to)/2], tn[len(tn)/2], ratio)
		}
		if ratio < c.floor {
			t.Errorf("%s: only %.2fx, want ≥ %gx", c.name, ratio, c.floor)
		}
	}
}
