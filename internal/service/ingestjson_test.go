package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	distmat "repro"
)

// The oracle: the encoding/json request structs and the handler loops the
// ingest routes ran before ingestjson.go, kept verbatim as the reference
// FuzzIngestJSON and TestIngestJSONGuard compare the decoder against.

type rowsRequest struct {
	Site *int        `json:"site"`
	Rows [][]float64 `json:"rows"`
}

type itemJSON struct {
	Elem   *uint64  `json:"elem"`
	Value  *uint64  `json:"value"`
	Weight *float64 `json:"weight"`
}

type itemsRequest struct {
	Site  *int       `json:"site"`
	Items []itemJSON `json:"items"`
}

func siteOf(site *int) (int, error) {
	if site == nil {
		return AssignSite, nil
	}
	if *site < 0 {
		return 0, fmt.Errorf("%w: site %d", distmat.ErrInvalidSite, *site)
	}
	return *site, nil
}

// batch is what either decoder hands the tracker.
type batch struct {
	site  int
	rows  [][]float64
	items []distmat.WeightedItem
}

func oracleDecode(body []byte, items bool) (batch, error) {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	w := httptest.NewRecorder()
	if !items {
		var req rowsRequest
		if err := decodeBody(w, r, &req); err != nil {
			return batch{}, err
		}
		if len(req.Rows) == 0 {
			return batch{}, badRequestf("empty rows batch")
		}
		site, err := siteOf(req.Site)
		return batch{site: site, rows: req.Rows}, err
	}
	var req itemsRequest
	if err := decodeBody(w, r, &req); err != nil {
		return batch{}, err
	}
	if len(req.Items) == 0 {
		return batch{}, badRequestf("empty items batch")
	}
	out := make([]distmat.WeightedItem, len(req.Items))
	for i, it := range req.Items {
		switch {
		case it.Elem != nil && it.Value != nil:
			return batch{}, badRequestf("item %d sets both elem and value", i)
		case it.Elem != nil:
			out[i].Elem = *it.Elem
		case it.Value != nil:
			out[i].Elem = *it.Value
		default:
			return batch{}, badRequestf("item %d has neither elem nor value", i)
		}
		out[i].Weight = 1
		if it.Weight != nil {
			out[i].Weight = *it.Weight
		}
	}
	site, err := siteOf(req.Site)
	return batch{site: site, items: out}, err
}

// replayBody is a request whose body can be rewound without allocating.
type replayBody struct {
	rd  bytes.Reader
	req http.Request
}

func newReplayBody(body []byte) *replayBody {
	p := &replayBody{}
	p.req.Body = io.NopCloser(&p.rd)
	p.rewind(body)
	return p
}

func (p *replayBody) rewind(body []byte) {
	p.rd.Reset(body)
	p.req.ContentLength = int64(len(body))
}

// newDecode runs the ingest route's decode over body into b.
func newDecode(b *ingestBuf, p *replayBody, body []byte, items bool) (batch, error) {
	p.rewind(body)
	site, err := b.decode(&p.req, items)
	return batch{site: site, rows: b.rows, items: b.items}, err
}

// stricter reports whether body — which the oracle accepted as got — is in
// the documented set the decoder rejects on purpose: a null row, row entry,
// elem or value; a member name not spelled byte for byte (case-folded or
// escaped); a repeated name; ragged or empty rows.
func stricter(body []byte, got batch) bool {
	if bytes.IndexByte(body, '\\') >= 0 {
		return true // the oracle takes no string values, so this is an escaped name
	}
	for _, row := range got.rows {
		if len(row) == 0 || len(row) != len(got.rows[0]) {
			return true // null, empty or ragged row
		}
	}
	type frame struct {
		object bool
		key    string
		seen   map[string]bool
	}
	var stack []frame
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		top := len(stack) - 1
		if top >= 0 && stack[top].object && stack[top].key == "" {
			if key, ok := tok.(string); ok {
				switch key {
				case "site", "rows", "items", "elem", "value", "weight":
				default:
					return true // a name the oracle could only have matched by folding
				}
				if stack[top].seen[key] {
					return true
				}
				stack[top].seen[key] = true
				stack[top].key = key
				continue
			}
		}
		key := ""
		if top >= 0 {
			key, stack[top].key = stack[top].key, ""
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{object: true, seen: map[string]bool{}})
		case json.Delim('['):
			stack = append(stack, frame{})
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:top]
		case nil:
			if key != "site" && key != "weight" {
				return true
			}
		}
	}
}

func sameBatch(a, b batch) bool {
	if a.site != b.site || len(a.rows) != len(b.rows) || len(a.items) != len(b.items) {
		return false
	}
	for i := range a.rows {
		if len(a.rows[i]) != len(b.rows[i]) {
			return false
		}
		for j := range a.rows[i] {
			if math.Float64bits(a.rows[i][j]) != math.Float64bits(b.rows[i][j]) {
				return false
			}
		}
	}
	for i := range a.items {
		if a.items[i].Elem != b.items[i].Elem ||
			math.Float64bits(a.items[i].Weight) != math.Float64bits(b.items[i].Weight) {
			return false
		}
	}
	return true
}

// benchRowsBody and benchItemsBody are shaped like the bodies the
// repository's benchmark posts — n rows of 44 17-digit floats, n weighted
// items — where n = benchBatch. longRowsBody spells the same rows with 25
// significant digits a token: more than the single-pass scan converts, so
// every one of them falls back to strconv.ParseFloat.
const benchBatch = 256

func benchRowsBody(n int) []byte { return rowsBody(n, 'g', -1) }
func longRowsBody(n int) []byte  { return rowsBody(n, 'e', 24) }

func rowsBody(n int, format byte, prec int) []byte {
	buf := []byte(`{"site":3,"rows":[`)
	for r := 0; r < n; r++ {
		if r > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for c := 0; c < 44; c++ {
			if c > 0 {
				buf = append(buf, ',')
			}
			v := math.Sin(float64(r*44+c)) * math.Pow(10, float64((r+c)%7-3))
			buf = strconv.AppendFloat(buf, v, format, prec, 64)
		}
		buf = append(buf, ']')
	}
	return append(buf, "]}"...)
}

func benchItemsBody(n int) []byte {
	buf := []byte(`{"site":3,"items":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"elem":`...)
		buf = strconv.AppendUint(buf, uint64(i*i*7919)%100003, 10)
		buf = append(buf, `,"weight":`...)
		buf = strconv.AppendFloat(buf, 1+math.Abs(math.Sin(float64(i))), 'g', -1, 64)
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// ingestCase is one decoder table entry: ok is the decoder's verdict, and
// oracleOK the oracle's where the two are meant to differ.
type ingestCase struct {
	body     string
	items    bool
	ok       bool
	oracleOK bool
}

var ingestCases = []ingestCase{
	// Accepted by both.
	{body: `{"site":0,"rows":[[1,2,3],[4,5,6]]}`, ok: true, oracleOK: true},
	{body: ` { "rows" : [ [ 1e-07 , -0.0 , 2.5E+3 ] ] , "site" : null } ` + "\n\t\r ", ok: true, oracleOK: true},
	{body: `{"rows":[[1]]}`, ok: true, oracleOK: true},
	{body: `{"site":-0,"rows":[[0.1,1e-999,123456789012345678901234567890]]}`, ok: true, oracleOK: true},
	{body: `{"site":7,"items":[{"elem":1},{"value":2,"weight":0.5},{"weight":null,"elem":18446744073709551615}]}`, items: true, ok: true, oracleOK: true},
	{body: `{"items":[{"elem":0,"weight":1e-07}],"site":null}`, items: true, ok: true, oracleOK: true},
	// scanFloatVectors' tokens, through the whole decoder and the oracle.
	{body: `{"rows":[[-0,-0.0e5,0e99999999999999999999,1e-99999999999999999999,1e-400,4.9e-324,2.4703282292062327e-324,2.4703282292062328e-324]]}`, ok: true, oracleOK: true},
	{body: `{"rows":[[1.7976931348623157e308,9007199254740993,9007199254740992.5,9007199254740995,1e22,1e23,1234567890123456789,12345678901234567890]]}`, ok: true, oracleOK: true},
	{body: `{"rows":[[0.` + strings.Repeat("0", 45) + `1234567890123456789,123456789012345678901234567890,1` + strings.Repeat("0", 29) + `e-30]]}`, ok: true, oracleOK: true},
	{body: `{"items":[{"value":18446744073709551615,"weight":9007199254740993},{"elem":7,"weight":-0.0e5}]}`, items: true, ok: true, oracleOK: true},
	{body: `{"rows":[[0.` + manyZeros + `1e100000,1` + manyZeros + `e-100000]]}`, ok: true, oracleOK: true},
	{body: `{"site":2147483647,"rows":[[1]]}`, ok: true, oracleOK: true},

	// The documented stricter set: the oracle took these.
	{body: `{"site":0,"rows":[[1,null,3]]}`, oracleOK: true},
	{body: `{"rows":[[1,2],null]}`, oracleOK: true},
	{body: `{"items":[{"elem":null,"value":3}]}`, items: true, oracleOK: true},
	{body: `{"site":0,"ROWS":[[1]]}`, oracleOK: true},
	{body: `{"Site":0,"rows":[[1]]}`, oracleOK: true},
	{body: `{"items":[{"Elem":1}]}`, items: true, oracleOK: true},
	{body: `{"rows":[[9]],"rows":[[1]]}`, oracleOK: true},
	{body: `{"site":1,"site":2,"rows":[[1]]}`, oracleOK: true},
	{body: `{"items":[{"elem":1,"elem":2}]}`, items: true, oracleOK: true},
	{body: `{"rows":[[1,2,3],[4,5,6],[7,8]]}`, oracleOK: true},
	{body: `{"rows":[[1],[]]}`, oracleOK: true},
	{body: `{"rows":[[]]}`, oracleOK: true},

	// Rejected by both: null where a batch is wanted, JSON-forbidden number
	// spellings strconv would take, what encoding/json refuses to convert,
	// and malformed documents.
	{body: `{"rows":null}`},
	{body: `{"items":null}`, items: true},
	{body: `{"items":[null]}`, items: true},
	{body: `{"items":[{"elem":null}]}`, items: true},
	{body: `null`},
	{body: `{"rows":[[+1]]}`},
	{body: `{"rows":[[01]]}`},
	{body: `{"rows":[[.5]]}`},
	{body: `{"rows":[[1.]]}`},
	{body: `{"rows":[[0x1p-3]]}`},
	{body: `{"rows":[[Inf]]}`},
	{body: `{"rows":[[NaN]]}`},
	{body: `{"rows":[[1_0]]}`},
	{body: `{"rows":[[-]]}`},
	{body: `{"rows":[[1e]]}`},
	{body: `{"rows":[[1e+]]}`},
	{body: `{"rows":[[1e999]]}`},
	{body: `{"rows":[[1e99999999999999999999]]}`},
	{body: `{"rows":[[1.7976931348623159e308]]}`},
	{body: `{"rows":[["1"]]}`},
	{body: `{"rows":[[true]]}`},
	{body: `{"rows":[[[1]]]}`},
	{body: `{"rows":[1]}`},
	{body: `{"rows":[[1]]} trailing`},
	{body: `{"rows":[[1]]}{"rows":[[1]]}`},
	{body: `{"rows":[[1]]}]`},
	{body: "{\"rows\":[[1]]}\x00"},
	{body: "{\"rows\":[[1]\x00]}"},
	{body: `{"rows":[[1]],"extra":1}`},
	{body: `{"rows":[[1]],"items":[{"elem":1}]}`},
	{body: `{"rows":[[1]],}`},
	{body: `{"rows":[[1,]]}`},
	{body: `{"rows":[[1],]}`},
	{body: `{"rows":[[1]]`},
	{body: `{"rows":[[1`},
	{body: `{"rows`},
	{body: `{"rows":[]}`},
	{body: `{}`},
	{body: ``},
	{body: `[[1]]`},
	{body: `{"site":-1,"rows":[[1]]}`},
	{body: `{"site":1.0,"rows":[[1]]}`},
	{body: `{"site":1e2,"rows":[[1]]}`},
	{body: `{"site":"1","rows":[[1]]}`},
	{body: `{"site":99999999999999999999,"rows":[[1]]}`},
	{body: `{"site":9223372036854775808,"rows":[[1]]}`},
	{body: `{"items":[{"elem":1.5}]}`, items: true},
	{body: `{"items":[{"elem":1.0}]}`, items: true},
	{body: `{"items":[{"elem":1e2}]}`, items: true},
	{body: `{"items":[{"elem":-0}]}`, items: true},
	{body: `{"items":[{"elem":-1}]}`, items: true},
	{body: `{"items":[{"elem":18446744073709551616}]}`, items: true},
	{body: `{"items":[{"value":18446744073709551616}]}`, items: true},
	{body: `{"items":[{"elem":1234567890123456789012345}]}`, items: true},
	{body: `{"items":[{"elem":1,"value":1}]}`, items: true},
	{body: `{"items":[{"weight":2}]}`, items: true},
	{body: `{"items":[{}]}`, items: true},
	{body: `{"items":[{"elem":1,"bogus":1}]}`, items: true},
	{body: `{"items":[{"elem":1,"weight":1e999}]}`, items: true},
	{body: `{"items":[[1]]}`, items: true},
	{body: `{"items":[]}`, items: true},
	{body: `{"items":[{"elem":1}],"rows":[[1]]}`, items: true},
}

// TestIngestJSONCases pins both decoders' verdict on every table entry and,
// where both accept, bit-identical results.
func TestIngestJSONCases(t *testing.T) {
	b, p := new(ingestBuf), newReplayBody(nil)
	for _, c := range ingestCases {
		want, oerr := oracleDecode([]byte(c.body), c.items)
		got, err := newDecode(b, p, []byte(c.body), c.items)
		if (oerr == nil) != c.oracleOK {
			t.Errorf("%q: oracle error %v, want accepted = %v", c.body, oerr, c.oracleOK)
		}
		if (err == nil) != c.ok {
			t.Errorf("%q: decoder error %v, want accepted = %v", c.body, err, c.ok)
		}
		if err == nil && oerr == nil && !sameBatch(got, want) {
			t.Errorf("%q: decoder %+v, oracle %+v", c.body, got, want)
		}
		if err != nil && !errors.Is(err, errBadRequest) && !errors.Is(err, distmat.ErrInvalidSite) {
			t.Errorf("%q: error %v maps to no 400", c.body, err)
		}
	}
}

// FuzzIngestJSON is the differential harness behind "replace, not fork":
// on every input the decoder either returns exactly what the encoding/json
// oracle returns, or rejects an input the oracle also rejects, or rejects
// one from the documented stricter set. It never accepts what the oracle
// rejects, and never panics.
func FuzzIngestJSON(f *testing.F) {
	// Bench-shaped but short: the engine minimizes every interesting
	// mutation byte by byte, and a 221 KB seed stalls it for minutes.
	f.Add(benchRowsBody(3), false)
	f.Add(benchItemsBody(3), true)
	// The spellings the soaks' json.Marshal produces: sorted keys, 1e-07.
	for _, v := range []any{
		map[string]any{"site": 1, "rows": [][]float64{{1e-7, -2.5, 3e21}, {0, 1, 2}}},
		map[string]any{"rows": [][]float64{{0.1}}},
		map[string]any{"site": 0, "items": []map[string]any{{"elem": 3, "weight": 1e-7}, {"value": 9}}},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, false)
		f.Add(body, true)
		f.Add(append([]byte(" \n\t"), append(body, " \r\n"...)...), false)
	}
	for _, c := range ingestCases {
		if len(c.body) < 1000 { // see above: not the 200 KB saturation case
			f.Add([]byte(c.body), c.items)
		}
	}
	b, p := new(ingestBuf), newReplayBody(nil)
	f.Fuzz(func(t *testing.T, body []byte, items bool) {
		want, oerr := oracleDecode(body, items)
		got, err := newDecode(b, p, body, items)
		switch {
		case err == nil && oerr != nil:
			t.Fatalf("decoder accepted what the oracle rejects (%v): %q", oerr, body)
		case err == nil && !sameBatch(got, want):
			t.Fatalf("decoder %+v, oracle %+v: %q", got, want, body)
		case err != nil && oerr == nil && !stricter(body, want):
			t.Fatalf("decoder rejected (%v) an input outside the stricter set: %q", err, body)
		}
	})
}

// TestStricterClassifier keeps the fuzz harness's own judge honest: a body
// both decoders should accept is not in the stricter set, and ſ (U+017F,
// which encoding/json folds onto s) is.
func TestStricterClassifier(t *testing.T) {
	for _, c := range ingestCases {
		if !c.ok {
			continue
		}
		want, err := oracleDecode([]byte(c.body), c.items)
		if err != nil || stricter([]byte(c.body), want) {
			t.Errorf("%q classified stricter (oracle error %v)", c.body, err)
		}
	}
	body := []byte(`{"` + string(unicode.SimpleFold('s')) + `ite":0,"rows":[[1]]}`)
	if unicode.SimpleFold('s') != 'ſ' {
		t.Fatalf("SimpleFold('s') = %q", unicode.SimpleFold('s'))
	}
	want, err := oracleDecode(body, false)
	if err != nil || !stricter(body, want) {
		t.Errorf("%q: oracle error %v, stricter %v", body, err, err == nil && stricter(body, want))
	}
}

var benchSink batch

func benchmarkIngestJSON(b *testing.B, body []byte, items bool, decode func([]byte, bool) (batch, error)) {
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		got, err := decode(body, items)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = got
	}
}

// pooledDecode is one request's decode as the handler runs it: get a
// buffer, read, decode, recycle.
func pooledDecode(p *replayBody) func([]byte, bool) (batch, error) {
	return func(body []byte, items bool) (batch, error) {
		b := ingestBufs.Get().(*ingestBuf)
		got, err := newDecode(b, p, body, items)
		ingestBufs.Put(b)
		return got, err
	}
}

func BenchmarkIngestJSONRows(b *testing.B) {
	benchmarkIngestJSON(b, benchRowsBody(benchBatch), false, pooledDecode(newReplayBody(nil)))
}

func BenchmarkIngestJSONItems(b *testing.B) {
	benchmarkIngestJSON(b, benchItemsBody(benchBatch), true, pooledDecode(newReplayBody(nil)))
}

func BenchmarkIngestJSONRowsOracle(b *testing.B) {
	benchmarkIngestJSON(b, benchRowsBody(benchBatch), false, oracleDecode)
}

func BenchmarkIngestJSONItemsOracle(b *testing.B) {
	benchmarkIngestJSON(b, benchItemsBody(benchBatch), true, oracleDecode)
}

// TestIngestJSONGuard keeps the ingest decode fixed: at least four times the
// encoding/json oracle's throughput on the benchmark's rows body, still at
// least twice on a body whose every token takes the strconv fallback (what
// the validate-then-reparse decoder held on any body: a client cannot pick
// digits that make this one slower than the one it replaced), and no
// allocation for decode + recycle in steady state on either route.
func TestIngestJSONGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock guard skipped in -short mode")
	}
	rows, items := benchRowsBody(benchBatch), benchItemsBody(benchBatch)
	decode := pooledDecode(newReplayBody(nil))
	for _, c := range []struct {
		name  string
		body  []byte
		items bool
	}{{"rows", rows, false}, {"items", items, true}} {
		// A buffer of the test's own stands in for the pooled one: sync.Pool
		// drops Puts at random under -race, and all of them across two GCs.
		b, p := new(ingestBuf), newReplayBody(nil)
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := newDecode(b, p, c.body, c.items); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs per steady-state decode, want 0", c.name, allocs)
		}
	}
	// Best of five 20-decode laps each: ~0.6 s, and the minimum sheds
	// whatever else the machine was doing.
	best := func(body []byte, decode func([]byte, bool) (batch, error)) float64 {
		best := math.Inf(1)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < 20; i++ {
				if _, err := decode(body, false); err != nil {
					t.Fatal(err)
				}
			}
			best = math.Min(best, float64(time.Since(start).Nanoseconds())/20)
		}
		return best
	}
	for _, c := range []struct {
		name  string
		body  []byte
		floor float64
	}{{"rows", rows, 4}, {"25-digit rows", longRowsBody(benchBatch), 2}} {
		oracleNs, newNs := best(c.body, oracleDecode), best(c.body, decode)
		t.Logf("%s body (%d bytes): oracle %.0f µs, decoder %.0f µs: %.2fx", c.name, len(c.body), oracleNs/1e3, newNs/1e3, oracleNs/newNs)
		if oracleNs < c.floor*newNs {
			t.Errorf("decoder only %.2fx the encoding/json oracle on the %s body, want ≥ %gx", oracleNs/newNs, c.name, c.floor)
		}
	}
}
