package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"
	"unsafe"

	distmat "repro"
	"repro/internal/gen"
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

func benchRowsBody(n int) []byte { return rowsBody(n, sinRow, 'g', -1) }
func longRowsBody(n int) []byte  { return rowsBody(n, sinRow, 'e', 24) }

// pamapRowsBody is the body the benchmark's http-json workload posts: n
// gen.PAMAPLike rows in shortest 'g' form, almost every token a sign, 0.,
// 0–2 zeros and 15–18 digits.
func pamapRowsBody(n int) []byte {
	rows := gen.LowRankMatrix(gen.PAMAPLike(n))
	return rowsBody(n, func(r, c int) float64 { return rows[r][c] }, 'g', -1)
}

func sinRow(r, c int) float64 { return math.Sin(float64(r*44+c)) * math.Pow(10, float64((r+c)%7-3)) }

// rowsBody spells n rows of 44 values, value(r, c), in strconv's format.
func rowsBody(n int, value func(r, c int) float64, format byte, prec int) []byte {
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
			buf = strconv.AppendFloat(buf, value(r, c), format, prec, 64)
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

// ingestCase is one decoder table entry: ok is the decoder's verdict,
// oracleOK the oracle's where the two are meant to differ, and msg, where
// set, the end of the decoder's error: what went wrong and at which offset.
type ingestCase struct {
	body     string
	items    bool
	ok       bool
	oracleOK bool
	msg      string
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
	{body: `{"rows":[[1,]]}`, msg: "want a number at offset 12"},
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

	// A row's separators: a ',' before a byte above ' ' is stepped over in
	// place, anything else goes through the scanner. The messages and
	// offsets are the ones the per-token loop gave. An item's weight ends at
	// the same shapes.
	{body: "{\"rows\":[[1,\t2]]}", ok: true, oracleOK: true},
	{body: `{"rows":[[1, 2]]}`, ok: true, oracleOK: true},
	{body: `{"rows":[[1 ,2]]}`, ok: true, oracleOK: true},
	{body: "{\"rows\":[[1,\x012]]}", msg: "want a number at offset 12"},
	{body: `{"rows":[[1,,2]]}`, msg: "want a number at offset 12"},
	{body: `{"rows":[[1,-,2]]}`, msg: "want a number at offset 12"},
	{body: `{"rows":[[1,1e400,2]]}`, msg: "number out of float64 range at offset 17"},
	{body: `{"rows":[[1,`, msg: "want a number at offset 12"},
	{body: "{\"items\":[{\"weight\":1,\t\"elem\":2}]}", items: true, ok: true, oracleOK: true},
	{body: `{"items":[{"weight":1, "elem":2}]}`, items: true, ok: true, oracleOK: true},
	{body: `{"items":[{"weight":1 ,"elem":2}]}`, items: true, ok: true, oracleOK: true},
	{body: "{\"items\":[{\"weight\":1,\x01\"elem\":2}]}", items: true, msg: "want a member name at offset 22"},
	{body: `{"items":[{"elem":2,"weight":1,}]}`, items: true, msg: "want a member name at offset 31"},
	{body: `{"items":[{"weight":1,,"elem":2}]}`, items: true, msg: "want a member name at offset 22"},
	{body: `{"items":[{"weight":-,"elem":2}]}`, items: true, msg: "want a number at offset 20"},
	{body: `{"items":[{"weight":1e400,"elem":2}]}`, items: true, msg: "number out of float64 range at offset 25"},
	{body: `{"items":[{"elem":2,"weight":1,`, items: true, msg: "want a member name at offset 31"},

	// Items the one-walk read of {"elem":N,"weight":F} declines, read again
	// from their first byte by the member loop: the verdicts, messages and
	// offsets are the member loop's alone.
	{body: `{"items":[{"value":3,"weight":2}]}`, items: true, ok: true, oracleOK: true},
	{body: `{"items":[{"weight":2,"elem":3}]}`, items: true, ok: true, oracleOK: true},
	{body: `{"items":[{"elem": 3,"weight":2}]}`, items: true, ok: true, oracleOK: true},
	{body: `{"items":[{ "elem":3,"weight":2 }]}`, items: true, ok: true, oracleOK: true},
	{body: `{"items":[{"elem":3,"weight":null}]}`, items: true, ok: true, oracleOK: true},
	{body: `{"items":[{"elem":3},{"elem":4,"weight":2}]}`, items: true, ok: true, oracleOK: true},
	{body: `{"items":[{"elem":18446744073709551615,"weight":2}]}`, items: true, ok: true, oracleOK: true},
	{body: `{"items":[{"elem":18446744073709551616,"weight":2}]}`, items: true, msg: "elem/value wants an unsigned 64-bit integer at offset 38"},
	{body: `{"items":[{"elem":01,"weight":2}]}`, items: true, msg: "want a number at offset 18"},
	{body: `{"items":[{"elem":-0,"weight":2}]}`, items: true, msg: "elem/value wants an unsigned 64-bit integer at offset 20"},
	{body: `{"items":[{"elem":3,"weight":1e400}]}`, items: true, msg: "number out of float64 range at offset 34"},
	{body: `{"items":[{"elem":3,"elem":4,"weight":2}]}`, items: true, oracleOK: true, msg: "unknown or repeated item field at offset 27"},
	{body: `{"items":[{"elem":3,"weight":2,"elem":4}]}`, items: true, oracleOK: true, msg: "unknown or repeated item field at offset 38"},
	{body: `{"items":[{"elem":3,"weight":2,"extra":1}]}`, items: true, msg: "unknown or repeated item field at offset 39"},
	// Canonical items around them: the walk hands over mid-array, and takes
	// the ',' before a '{' in place, any other separator through the scanner.
	{body: `{"items":[{"elem":1,"weight":2},{"elem":01,"weight":2}]}`, items: true, msg: "want a number at offset 40"},
	{body: `{"items":[{"elem":1,"weight":2}, {"elem":2,"weight":3},{"elem":4,"weight":0.5}]}`, items: true, ok: true, oracleOK: true},
	{body: `{"items":[{"elem":1,"weight":2.5e-3},{"elem":1234567890123456789,"weight":-0.0}]}`, items: true, ok: true, oracleOK: true},
	{body: `{"items":[{"elem":1,"weight":2}`, items: true, msg: "want ',' or the closing bracket at offset 31"},
	{body: `{"items":[{"elem":1,"weight":2},{"elem":2,"weight":3}`, items: true, msg: "want ',' or the closing bracket at offset 53"},
	{body: `{"items":[{"elem":1,"weight":`, items: true, msg: "want a number at offset 29"},
	{body: `{"items":[{"elem":1,"weight":2,}]}`, items: true, msg: "want a member name at offset 31"},
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
		if c.msg != "" && (err == nil || !strings.HasSuffix(err.Error(), c.msg)) {
			t.Errorf("%q: decoder error %v, want one ending %q", c.body, err, c.msg)
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

func BenchmarkIngestJSONRowsPAMAP(b *testing.B) {
	benchmarkIngestJSON(b, pamapRowsBody(benchBatch), false, pooledDecode(newReplayBody(nil)))
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

// prevFloat, prevDecimalToFloat and prevScanRows are the number scan,
// converter and row loop floatAt replaced — scanner.float, decimalToFloat
// and ingestBuf.scanRows as they were — kept verbatim but for their names:
// the cursor goes through s.i on every token, every separator through
// s.next, the sign is a branch and a long 0.000…'s zeros are counted with
// bytes.TrimLeft. TestIngestJSONGuard times them; they are no
// specification (specFloat is).
func (s *scanner) prevFloat() float64 {
	d := s.d
	first := s.i + int((uint64(d[s.i]^'-')-1)>>63) // past a '-', without a branch
	man, i := digitRun(d, first, 0)
	nd, exp10 := i-first, 0                      // nd counts the digits walked
	ok := nd > 0 && (d[first] != '0' || nd == 1) // some digits, no leading zero
	if ok && d[i] == '.' {
		frac := i + 1
		man, i = digitRun(d, frac, man)
		ok = i > frac
		nd, exp10 = nd+i-frac, frac-i
	}
	if ok && d[i]|0x20 == 'e' {
		i++
		eneg := d[i] == '-'
		if eneg || d[i] == '+' {
			i++
		}
		e, efirst := 0, i
		for c := d[i] - '0'; c <= 9; c = d[i] - '0' {
			if e < 10000 { // saturate where strconv does, so exp10 is its dp − nd on every token
				e = e*10 + int(c)
			}
			i++
		}
		ok = i > efirst
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if !ok {
		s.fail("want a number")
		return 0
	}
	tok := unsafe.String(&d[s.i], i-s.i)
	s.i = i
	// man wraps past 19 significant digits. A 0.000…'s 0 and the zeros after
	// its point were walked but are not significant: count them off.
	if nd > 19 && d[first] == '0' {
		nd -= i - first - len(bytes.TrimLeft(d[first:i], "0.")) - 1
	}
	if nd <= 19 {
		if v, ok := prevDecimalToFloat(man, exp10, tok[0] == '-'); ok {
			return v
		}
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		s.fail("number out of float64 range")
	}
	return v
}

func prevDecimalToFloat(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man>>53 == 0 {
		if f = float64(man); neg {
			f = -f
		}
		switch {
		case man == 0:
			return f, true // ±0 whatever the exponent
		case 0 <= exp10 && exp10 <= 22:
			return f * exactPow10[exp10], true
		case -22 <= exp10 && exp10 < 0:
			return f / exactPow10[-exp10], true
		}
	}
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}
	pow := &pow10Tab[exp10-pow10Min]

	// Normalize, and estimate the binary exponent: 217706/65536 ≈ log2(10).
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// The 64 × 64 product decides unless its low 9 bits are all ones and the
	// dropped part of the power could carry into them; then widen to 128.
	hi, lo := bits.Mul64(man, pow[1])
	if hi&0x1FF == 0x1FF && lo+man < man {
		yhi, ylo := bits.Mul64(man, pow[0])
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && ylo+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}

	// Shift to 54 bits; a product that is exactly half-way is not decided
	// here (the truncated power may have hidden the tie-break).
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}

	// Round 54 to 53 bits. A zero or wrapped exp2 is subnormal, 0x7FF or
	// above overflows: both are ParseFloat's to answer.
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

func (b *ingestBuf) prevScanRows(s *scanner) {
	flat := b.flat[:0]
	n, dim := 0, 0
	for more := s.open('[', ']'); more; more = s.next(']') {
		start := len(flat)
		for more := s.open('[', ']'); more; more = s.next(']') {
			flat = append(flat, s.prevFloat()) //distlint:alloc-ok first growth to the high-water batch size
		}
		if n == 0 {
			dim = len(flat) - start
		}
		if len(flat)-start != dim || dim == 0 {
			s.fail("row is empty or not as wide as row 0")
		}
		n++
	}
	b.flat = flat
	if s.err != nil {
		return
	}
	if cap(b.rows) < n {
		b.rows = make([][]float64, n) //distlint:alloc-ok first growth to the high-water row count
	}
	b.rows = b.rows[:n]
	for r := range b.rows {
		b.rows[r] = flat[r*dim : (r+1)*dim : (r+1)*dim]
	}
}

// prevScanItems is the items loop scanItems replaced, kept verbatim but
// for its name: every item through the member loop, every name matched as
// a string after bytes.IndexByte found its closing quote, whitespace
// skipped around every token. TestIngestJSONGuard times it; it is no
// specification (the oracle is).
func (b *ingestBuf) prevScanItems(s *scanner) {
	const elem, value, weight = 1, 2, 4
	items := b.items[:0]
	for more := s.open('[', ']'); more; more = s.next(']') {
		it, seen := distmat.WeightedItem{Weight: 1}, 0
		for more := s.open('{', '}'); more; more = s.next('}') {
			name := 0
			switch s.key() {
			case "elem":
				name = elem
			case "value":
				name = value
			case "weight":
				name = weight
			}
			switch {
			case name == 0 || seen&name != 0:
				s.fail("unknown or repeated item field")
			case name == weight && !s.null():
				var bad string
				if it.Weight, s.i, bad = floatAt(s.d, s.i); bad != "" {
					s.fail(bad)
				}
			case name != weight:
				neg, v, ok := s.number()
				if neg || !ok {
					s.fail("elem/value wants an unsigned 64-bit integer")
				}
				it.Elem = v
			}
			seen |= name
		}
		if id := seen &^ weight; id != elem && id != value {
			s.fail("item wants exactly one of elem and value")
		}
		items = append(items, it) //distlint:alloc-ok first growth to the high-water batch size
	}
	b.items = items
}

// pamapNumbers is the numbers of pamapRowsBody(n) alone, each followed by
// a comma, then the body's NUL: what scanLap walks.
func pamapNumbers(n int) []byte {
	var buf []byte
	for _, row := range gen.LowRankMatrix(gen.PAMAPLike(n)) {
		for _, v := range row {
			buf = append(strconv.AppendFloat(buf, v, 'g', -1, 64), ',')
		}
	}
	return append(buf, 0)
}

var scanSink float64

// scanLap scans every number of nums with floatAt, keeping the cursor in a
// local as a row walk does and stepping over the commas; prevScanLap does
// so with prevFloat, whose cursor is the scanner's.
func scanLap(t *testing.T, nums []byte) {
	for i := 0; nums[i] != 0; i++ {
		v, next, bad := floatAt(nums, i)
		if bad != "" {
			t.Fatal(bad)
		}
		scanSink, i = scanSink+v, next
	}
}

func prevScanLap(t *testing.T, nums []byte) {
	s := scanner{d: nums}
	for s.d[s.i] != 0 {
		scanSink += s.prevFloat()
		s.i++
	}
	if s.err != nil {
		t.Fatal(s.err)
	}
}

// lapNs times one call of lap in ns.
func lapNs(lap func()) float64 {
	start := time.Now()
	lap()
	return float64(time.Since(start).Nanoseconds())
}

// TestIngestJSONGuard keeps the ingest decode fixed: at least four times the
// encoding/json oracle's throughput on the benchmark's rows body, still at
// least twice on a body whose every token takes the strconv fallback (what
// the validate-then-reparse decoder held on any body: a client cannot pick
// digits that make this one slower than the one it replaced), and no
// allocation for decode + recycle in steady state on either route. Against
// the code floatAt replaced, on the benchmark's own gen.PAMAPLike numbers,
// the scan is at least 1.25× prevFloat's and the rows array's walk at least
// 1.15× the per-token loop over it (prevScanRows), and on the benchmark's
// items body the items walk is at least 1.4× the member loop it replaced
// (prevScanItems); where the CPU has AVX2, the row walk's AVX2 body, which
// indexes a row before it reads and rounds the tokens it takes itself,
// scans the bench's rows array at least 2× as fast as its portable body. Those four are logged, not held,
// under -race. Every
// pair is timed in interleaved laps, and a reading under its floor is
// taken again, twice at most.
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
	// hold times the previous code's lap against the current one's, taking
	// turns so a quiet stretch of the host serves both minima alike, and
	// wants the current one floor× as fast. A reading under the floor is
	// taken again, twice at most (as TestEigSymGuard does): a busy spell of
	// a shared host can cover one reading, a real loss covers all three.
	hold := func(what string, floor float64, enforce bool, laps int, prevLap, curLap func()) {
		t.Helper()
		ratio := 0.0
		for read := 0; read < 3 && ratio < floor; read++ {
			prevNs, curNs := math.Inf(1), math.Inf(1)
			for range laps {
				prevNs = math.Min(prevNs, lapNs(prevLap))
				curNs = math.Min(curNs, lapNs(curLap))
			}
			ratio = prevNs / curNs
			t.Logf("%s: %.0f µs, then %.0f µs a lap: %.2fx", what, prevNs/1e3, curNs/1e3, ratio)
		}
		if ratio < floor && enforce {
			t.Errorf("%s: only %.2fx, want ≥ %gx", what, ratio, floor)
		}
	}
	// Five laps of 20 decodes each side: ≈ 0.6 s a body and reading.
	for _, c := range []struct {
		name  string
		body  []byte
		floor float64
	}{{"rows", rows, 4}, {"25-digit rows", longRowsBody(benchBatch), 2}} {
		lap := func(decode func([]byte, bool) (batch, error)) func() {
			return func() {
				for i := 0; i < 20; i++ {
					if _, err := decode(c.body, false); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		hold(fmt.Sprintf("the encoding/json oracle, then the decoder, on the %s body (%d bytes)", c.name, len(c.body)),
			c.floor, true, 5, lap(oracleDecode), lap(decode))
	}
	// A hundred laps of each: ≈ 0.1 s a pair and reading.
	nums := pamapNumbers(benchBatch)
	hold(fmt.Sprintf("prevFloat, then floatAt, on the bench-shaped numbers (%d bytes)", len(nums)),
		1.25, !raceEnabled, 100, func() { prevScanLap(t, nums) }, func() { scanLap(t, nums) })
	b := new(ingestBuf)
	// walk scans the array in body (NUL-terminated here) with scan.
	walk := func(body []byte, scan func(*ingestBuf, *scanner)) func() {
		at := bytes.IndexByte(body, '[')
		return func() {
			s := scanner{d: body, i: at}
			if scan(b, &s); s.err != nil {
				t.Fatal(s.err)
			}
		}
	}
	body := append(pamapRowsBody(benchBatch), 0)
	hold(fmt.Sprintf("prevScanRows, then scanRows, on the bench's rows array (%d bytes)", len(body)-bytes.IndexByte(body, '[')),
		1.15, !raceEnabled, 100, walk(body, (*ingestBuf).prevScanRows), walk(body, (*ingestBuf).scanRows))
	if len(rowBodies) < 2 {
		t.Log("SKIPPED: no AVX2 on this CPU (or the purego tag): the row walk's two bodies cannot be compared here")
	} else {
		under := func(rb rowBody) func(*ingestBuf, *scanner) {
			return func(b *ingestBuf, s *scanner) {
				defer rb.use()()
				b.scanRows(s)
			}
		}
		hold(fmt.Sprintf("the portable body, then the AVX2 body, of scanRows on the bench's rows array (%d bytes)", len(body)-bytes.IndexByte(body, '[')),
			2, !raceEnabled, 100, walk(body, under(rowBodies[0])), walk(body, under(rowBodies[1])))
	}
	body = append(benchItemsBody(benchBatch), 0)
	hold(fmt.Sprintf("prevScanItems, then scanItems, on the bench's items array (%d bytes)", len(body)-bytes.IndexByte(body, '[')),
		1.4, !raceEnabled, 100, walk(body, (*ingestBuf).prevScanItems), walk(body, (*ingestBuf).scanItems))
}
