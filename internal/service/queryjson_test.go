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
	"sync"
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
// 1e±12 (entries under 1e-6 and from 1e21 up take the 'e' format). Every
// ?gram=1 answer is asked twice (getTwice): the repeat must be a hit on
// the memo and still the oracle's bytes. The mirror copy is then held to
// "selected by nothing but the input": on a Gram that is asymmetric in the
// last ulp it must not fire, neither on a p3 tracker's own (AddOuter with
// w ≠ 1) nor on a restored SymFromRaw one, first answer or repeat. The item
// trackers' answers are held to their oracles the same way
// (itemResponseBytes).
func TestQueryResponseBytes(t *testing.T) {
	getPlain := func(t *testing.T, tr *Tracker, url string) {
		t.Helper()
		snap, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		getOracle(t, url, oracleMatrixBody(t, snap.Count, snap.Frobenius, snap.Gram, false))
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
				getPlain(t, tr, srv.URL+"/trackers/m/query")
				body := getTwice(t, tr, srv.URL+"/trackers/m/query?gram=1")
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
		getTwice(t, tr, srv.URL+"/trackers/m/query?gram=1")
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
		var memo gramMemo
		want := oracleMatrixBody(t, snap.Count, snap.Frobenius, g, true)
		for _, pass := range []string{"first", "repeated"} {
			if err := b.encodeMatrix(snap.Count, snap.Frobenius, g.Clone(), true, &memo); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b.out, want) {
				t.Fatalf("ulp-asymmetric Gram, %s answer: body differs from the oracle at byte %d: the mirror copy fired on unequal bits", pass, firstDiff(b.out, want))
			}
		}
	})
}

// keptGram returns the Gram t's memo keeps, nil when it keeps none.
func keptGram(t *Tracker) *matrix.Sym {
	t.memo.mu.Lock()
	defer t.memo.mu.Unlock()
	return t.memo.gram
}

// forgetGram makes t's memo forget the Gram it keeps, and so miss on the
// next ?gram=1 answer, keeping its byte buffer as a steady-state miss does.
func forgetGram(t *Tracker) {
	t.memo.mu.Lock()
	t.memo.gram = nil
	t.memo.mu.Unlock()
}

// getTwice GETs the ?gram=1 answer at url twice from an idle tracker and
// wants the oracle's bytes both times. The first answer must be kept and
// the second must be a hit — the memo still keeping the first snapshot's
// Gram, not the second's bit-equal copy — and byte-identical to the first.
func getTwice(t *testing.T, tr *Tracker, url string) []byte {
	t.Helper()
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := oracleMatrixBody(t, snap.Count, snap.Frobenius, snap.Gram, true)
	first := getOracle(t, url, want)
	kept := keptGram(tr)
	if kept == nil || !kept.BitsEqual(snap.Gram) {
		t.Fatal("the first ?gram=1 answer was not kept")
	}
	again := getOracle(t, url, want)
	if keptGram(tr) != kept {
		t.Fatal("the repeated ?gram=1 answer on an unchanged Gram was encoded again: a miss")
	}
	if !bytes.Equal(again, first) {
		t.Fatalf("the repeated answer differs from the first at byte %d", firstDiff(again, first))
	}
	return first
}

// TestGramMemoMisses holds the memo to "the same bits, or no hit": with
// one Gram kept, a Gram one ulp away in one entry (both triangles), one
// with a −0 where the kept one has +0, and one whose triangles differ in
// the last ulp where the kept one's agree must each be encoded afresh —
// the oracle's bytes, and kept in the old one's place. A Gram whose answer
// is over maxPooledReply is not kept at all.
func TestGramMemoMisses(t *testing.T) {
	_, tr := newQueryTracker(t, benchSpec(0), pamapRows(2500, 0))
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	base := snap.Gram
	if !symmetricBits(base) {
		t.Fatal("a p2 Gram is not symmetric to the bit: the triangle case tests nothing")
	}
	ulp := base.Clone()
	ulp.Set(3, 7, math.Nextafter(ulp.At(3, 7), math.Inf(1)))
	zero := matrix.NewSym(base.Dim())
	negZero := zero.Clone()
	negZero.Set(0, 5, math.Copysign(0, -1))
	for _, c := range []struct {
		name       string
		kept, next *matrix.Sym
	}{
		{"one ulp", base, ulp},
		{"+0 against −0", zero, negZero},
		{"−0 against +0", negZero, zero},
		{"triangles one ulp apart", base, ulpAsymmetric(base)},
	} {
		var b replyBuf
		var memo gramMemo
		if err := b.encodeMatrix(snap.Count, snap.Frobenius, c.kept, true, &memo); err != nil {
			t.Fatal(err)
		}
		if err := b.encodeMatrix(snap.Count, snap.Frobenius, c.next, true, &memo); err != nil {
			t.Fatal(err)
		}
		if want := oracleMatrixBody(t, snap.Count, snap.Frobenius, c.next, true); !bytes.Equal(b.out, want) {
			t.Errorf("%s: body differs from the oracle at byte %d: the kept answer was re-sent", c.name, firstDiff(b.out, want))
		}
		if memo.gram != c.next {
			t.Errorf("%s: the memo did not keep the new Gram: the second answer was not a miss", c.name)
		}
	}

	big := matrix.NewSym(256)
	for i := 0; i < big.Dim(); i++ {
		for j := i; j < big.Dim(); j++ {
			big.Set(i, j, math.Sqrt(float64(i*j+2)))
		}
	}
	var b replyBuf
	memo := gramMemo{gram: base, body: []byte("[[1]]")}
	if err := b.encodeMatrix(1, 1, big, true, &memo); err != nil {
		t.Fatal(err)
	}
	if len(b.out) <= maxPooledReply {
		t.Fatalf("a %d-byte answer does not test the cap", len(b.out))
	}
	if memo.gram != nil || memo.body != nil {
		t.Errorf("a %d-byte answer left the memo keeping %d bytes, want none", len(b.out), len(memo.body))
	}
}

// TestGramMemoFollowsSession: hibernating a tracker drops its memo, and a
// query that snapshotted before cannot refill it while the tracker is a
// stub; the fault-in a query causes lets the memo keep again; deleting
// the tracker drops it for good.
func TestGramMemoFollowsSession(t *testing.T) {
	mgr, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	tr, err := mgr.Create("m", Spec{Kind: KindMatrix, Protocol: "p2", Sites: 2, Epsilon: 0.1, Dim: 6})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = []float64{float64(i%7) + 1, 2, float64(i % 3), 1, 0.5, float64(i)}
	}
	if err := tr.IngestRows(context.Background(), 0, rows); err != nil {
		t.Fatal(err)
	}
	lap := queryLap(mgr, "/trackers/m/query?gram=1")
	lap()
	if keptGram(tr) == nil {
		t.Fatal("a ?gram=1 answer was not kept")
	}
	early, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !mgr.hibernate(tr) {
		t.Fatal("an idle tracker did not hibernate")
	}
	if keptGram(tr) != nil {
		t.Fatal("hibernation kept the memo")
	}
	var b replyBuf
	if err := b.encodeMatrix(early.Count, early.Frobenius, early.Gram, true, &tr.memo); err != nil {
		t.Fatal(err)
	}
	if keptGram(tr) != nil {
		t.Fatal("a query that snapshotted before hibernation refilled the stub's memo")
	}
	lap() // faults the session in
	if !tr.resident() || keptGram(tr) == nil {
		t.Fatalf("after the fault-in: resident %v, memo kept %v; want both", tr.resident(), keptGram(tr) != nil)
	}
	if err := mgr.Delete("m"); err != nil {
		t.Fatal(err)
	}
	if keptGram(tr) != nil {
		t.Fatal("Delete kept the memo")
	}
}

// TestGramMemoConcurrent runs ?gram=1 queries on two goroutines beside an
// ingesting one and one that hibernates the tracker over and over, so
// queries race batches, misses race hits and fault-ins race evictions (run
// it under -race). Every answer must be internally consistent — its
// "trace", formatted from the snapshot each time, is the sum of the
// diagonal of its "gram", whether encoded or re-sent — and once the
// writers stop a repeated answer is a hit and the oracle's bytes.
func TestGramMemoConcurrent(t *testing.T) {
	mgr, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	const d = 8
	tr, err := mgr.Create("m", Spec{Kind: KindMatrix, Protocol: "p2", Sites: 3, Epsilon: 0.2, Dim: d, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	writers.Add(2)
	go func() { // ingest
		defer writers.Done()
		rows := make([][]float64, 16)
		for b := 0; b < 150; b++ {
			for i := range rows {
				rows[i] = make([]float64, d)
				for j := range rows[i] {
					rows[i][j] = float64((b+1)*(i+2)%11+j) / 4
				}
			}
			if err := tr.IngestRows(context.Background(), b%3, rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // hibernate and let the queries fault it back in
		defer writers.Done()
		for i := 0; i < 40; i++ {
			mgr.hibernate(tr)
			time.Sleep(time.Millisecond)
		}
	}()
	h := mgr.Handler()
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/trackers/m/query?gram=1", nil))
				var doc struct {
					Trace float64
					Gram  [][]float64
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || rec.Code != http.StatusOK {
					t.Errorf("%d %q: %v", rec.Code, rec.Body, err)
					return
				}
				var trace float64
				for i, row := range doc.Gram {
					trace += row[i]
				}
				if math.Float64bits(trace) != math.Float64bits(doc.Trace) {
					t.Errorf("an answer's trace is %v, its gram's diagonal sums to %v: the gram is another snapshot's", doc.Trace, trace)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if ev, fa := mgr.evictions.Load(), mgr.faults.Load(); ev == 0 || fa == 0 {
		t.Errorf("%d evictions and %d fault-ins: the queries raced no hibernation", ev, fa)
	}
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()
	getTwice(t, tr, srv.URL+"/trackers/m/query?gram=1")
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
	if err := b.encodeMatrix(2, 2, g, true, nil); err == nil || !strings.Contains(err.Error(), "gram[0][1] is NaN") {
		t.Errorf("NaN entry: error %v, want one naming gram[0][1]", err)
	}
	if err := b.encodeMatrix(2, 2, g, false, nil); err != nil {
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

// benchQuery times GET path on an idle tracker, where every repeated
// ?gram=1 answer is a memo hit; miss makes the memo forget its Gram before
// each call, so every answer is encoded.
func benchQuery(b *testing.B, shards int, path string, miss bool) {
	mgr, tr := newQueryTracker(b, benchSpec(shards), pamapRows(2500, 0))
	lap := queryLap(mgr, path)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if miss {
			forgetGram(tr)
		}
		lap()
	}
}

// The README's handler table: go test -run '^$' -bench 'BenchmarkQuery' -benchmem ./internal/service
func BenchmarkQueryPlainSharded(b *testing.B)  { benchQuery(b, 4, "/trackers/m/query", false) }
func BenchmarkQueryGramSharded(b *testing.B)   { benchQuery(b, 4, "/trackers/m/query?gram=1", false) }
func BenchmarkQueryGramUnsharded(b *testing.B) { benchQuery(b, 0, "/trackers/m/query?gram=1", false) }
func BenchmarkQueryGramShardedMiss(b *testing.B) {
	benchQuery(b, 4, "/trackers/m/query?gram=1", true)
}
func BenchmarkQueryGramUnshardedMiss(b *testing.B) {
	benchQuery(b, 0, "/trackers/m/query?gram=1", true)
}

// TestQueryEncodeGuard keeps the append encoder worth having (medians of 21
// laps, old and new taking turns so that a noisy spell falls on both, a
// reading under the floor taken again twice at most, as TestEigSymGuard
// does): over a d = 44 P2 Gram appendJSONFloat is at least 1.4× strconv
// under encoding/json's rule, the ?gram=1 handler at least 1.6× the handler
// it replaced, and encoding into a warm buffer allocates nothing. Those
// rows time the encoder itself: the handler's memo forgets its Gram before
// every lap, so each answer is a miss. The last row keeps the memo worth
// having: a repeated ?gram=1 on an unchanged Gram, a hit, is at least 3×
// a miss, and a hit allocates nothing either.
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
		if err := b.encodeMatrix(snap.Count, snap.Frobenius, g, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if allocs := testing.AllocsPerRun(20, encode); allocs != 0 {
		t.Errorf("encodeMatrix: %v allocs per call on a warm buffer, want 0", allocs)
	}
	var memo gramMemo
	hit := func() {
		if err := b.encodeMatrix(snap.Count, snap.Frobenius, g, true, &memo); err != nil {
			t.Fatal(err)
		}
	}
	hit()
	if allocs := testing.AllocsPerRun(20, hit); allocs != 0 {
		t.Errorf("encodeMatrix: %v allocs per memo hit on a warm buffer, want 0", allocs)
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
	handler := queryLap(mgr, "/trackers/m/query?gram=1")
	miss := func() {
		forgetGram(tr)
		handler()
	}
	for _, c := range []struct {
		name     string
		old, new func()
		calls    int
		floor    float64
	}{
		{"appendJSONFloat over a 44×44 Gram against strconv", specFloats, newFloats, 4, 1.4},
		{"?gram=1 handler against the map-building one", oldHandler, miss, 4, 1.6},
		{"repeated ?gram=1 (a memo hit) against a miss", miss, handler, 4, 3},
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
