package service

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unsafe"

	distmat "repro"
)

// ingestBuf is the pooled scratch one POST rows/items request is read and
// decoded into: the raw body, and either the row-major floats with row
// views over them (the shape wire.Decoder hands IngestBlock) or the items.
//
// The handler owns it for the whole request: Tracker.ingest applies the
// batch on the handler's goroutine and keeps no reference past its return.
type ingestBuf struct {
	body  []byte
	flat  []float64
	rows  [][]float64
	items []distmat.WeightedItem
}

var ingestBufs = sync.Pool{New: func() any { return new(ingestBuf) }}

// read slurps the request body, capped by maxBodyBytes (413), and ends it
// with a NUL so the scanner needs no end-of-input checks: NUL is no JSON
// token, and one before the end is a syntax error.
//
//distlint:hotpath
func (b *ingestBuf) read(r *http.Request) error {
	// A Content-Length alone buys at most 1 MiB; past that the buffer grows
	// as the bytes arrive.
	if n := int(min(r.ContentLength, 1<<20)) + 1; cap(b.body) < n {
		b.body = make([]byte, 0, n) //distlint:alloc-ok first growth to the high-water body size
	}
	buf := b.body[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)] //distlint:alloc-ok growth for chunked or > 1 MiB bodies
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		// A declared length over the cap fails here on the first pass.
		if max(r.ContentLength, int64(len(buf))) > maxBodyBytes {
			return fmt.Errorf("%w: body exceeds %d bytes", errTooLarge, maxBodyBytes) //distlint:alloc-ok rejection path
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return badRequestf("reading body: %v", err) //distlint:alloc-ok transport error path
		}
	}
	b.body = append(buf, 0) //distlint:alloc-ok the loop leaves a spare byte unless the last read filled the buffer
	return nil
}

// scanner walks a NUL-terminated body. The first failure is kept and the
// cursor parked on the NUL, where every later match fails and every loop
// ends, so callers check err once, after the walk.
type scanner struct {
	d   []byte
	i   int
	err error
}

// fail records what was wrong and the offset the scan stopped at.
func (s *scanner) fail(what string) {
	if s.err == nil {
		s.err = badRequestf("decoding body: %s at offset %d", what, s.i)
	}
	s.i = len(s.d) - 1
}

// ws skips whitespace and returns the byte under the cursor.
//
//distlint:hotpath
func (s *scanner) ws() byte {
	for c := s.d[s.i]; c == ' ' || c == '\n' || c == '\t' || c == '\r'; c = s.d[s.i] {
		s.i++
	}
	return s.d[s.i]
}

// open enters the array or object under the cursor and reports whether it
// has a first element; next, called after an element, whether another
// follows. Together they drive one loop per container:
//
//	for more := s.open('[', ']'); more; more = s.next(']') { … }
//
//distlint:hotpath
func (s *scanner) open(opener, closer byte) bool {
	if s.d[s.i] != opener {
		s.fail("want an opening bracket")
		return false
	}
	s.i++
	if s.ws() == closer {
		s.i++
		return false
	}
	return true
}

//distlint:hotpath
func (s *scanner) next(closer byte) bool {
	switch s.ws() {
	case ',':
		s.i++
		s.ws()
		return true
	case closer:
		s.i++
		return false
	}
	s.fail("want ',' or the closing bracket")
	return false
}

// key returns the member name under the cursor as a view into the body and
// steps past its ':'. Callers match names byte for byte, so an escaped,
// case-folded or otherwise respelled name is an unknown field and escapes
// need no decoding.
//
//distlint:hotpath
func (s *scanner) key() string {
	n := -1
	if s.d[s.i] == '"' {
		n = bytes.IndexByte(s.d[s.i+1:], '"')
	}
	if n < 0 {
		s.fail("want a member name")
		return ""
	}
	key := unsafe.String(&s.d[s.i+1], n)
	s.i += n + 2
	if s.ws() != ':' {
		s.fail("want ':'")
		return ""
	}
	s.i++
	s.ws()
	return key
}

var nullLit = []byte("null")

// null steps past a null under the cursor and reports whether there was one.
//
//distlint:hotpath
func (s *scanner) null() bool {
	if !bytes.HasPrefix(s.d[s.i:], nullLit) {
		return false
	}
	s.i += len(nullLit)
	return true
}

// number matches the integer subset of the RFC 8259 number grammar under
// the cursor, -?(0|[1-9][0-9]*), steps past it and returns its sign and
// magnitude; ok is false, with the cursor still past the digits, when the
// magnitude overflows uint64. A token that is no integer (+1, 01, a bare
// '-') fails the scan; a fraction or exponent is left under the cursor,
// where it fails the scan next, as encoding/json fails 1.0 and 1e2 for
// integer fields.
//
//distlint:hotpath
func (s *scanner) number() (neg bool, v uint64, ok bool) {
	d, i := s.d, s.i
	if neg = d[i] == '-'; neg {
		i++
	}
	first, ok := i, true
	for c := uint64(d[i] - '0'); c <= 9; c = uint64(d[i] - '0') {
		if v > (math.MaxUint64-c)/10 {
			ok = false
		}
		v = v*10 + c
		i++
	}
	if i == first || (d[first] == '0' && i > first+1) { // no digits, or a leading zero
		s.fail("want a number")
		return neg, 0, false
	}
	s.i = i
	return neg, v, ok
}

// digitRun folds the digits at d[i:] into man two a step, man·100 + 10·c0 +
// c1 (modulo 2⁶⁴ two man·10 + c steps), and returns the index past them. It
// reads unchecked: d ends in a NUL (read), so a digit at d[i] puts d[i+1] in
// d. checkptr does not instrument unsafe.Add; the one uintptr conversion at
// the end has -race check, once a run, that the byte it stopped on is in d.
//
//distlint:spec specDigitRun FuzzDigitRun
//distlint:hotpath
func digitRun(d []byte, i int, man uint64) (uint64, int) {
	p := unsafe.Pointer(unsafe.SliceData(d))
	for ; ; i += 2 {
		c0 := *(*byte)(unsafe.Add(p, i)) - '0'
		if c0 > 9 {
			break
		}
		c1 := *(*byte)(unsafe.Add(p, i+1)) - '0'
		if c1 > 9 {
			man, i = man*10+uint64(c0), i+1
			break
		}
		man = man*100 + uint64(c0*10+c1)
	}
	_ = unsafe.Pointer(uintptr(p) + uintptr(i)) // free outside -race
	return man, i
}

// floatAt reads the RFC 8259 number at d[start:] in one walk: the same pass
// that enforces the grammar — keeping out the spellings strconv takes but
// JSON forbids (+1, 01, .5, 1., 0x1p-3, Inf, NaN, 1_0) — gathers the
// decimal mantissa and exponent, which decimalToFloat then rounds. The
// result is bit-identical to strconv.ParseFloat over the literal, which is
// what encoding/json returns: every token the fast conversion declines
// (more than 19 significant digits, an undecidable rounding, a subnormal or
// out-of-range value) goes to ParseFloat itself, which so stays the
// specification and the only source of the range error.
//
// next is where the scan goes on, or, with a failure in bad, the offset
// it reports: the token's start for a syntax error, past the token for a
// range error. It is a pure function of d and start, so a caller walking a
// row keeps its cursor in a register rather than in a scanner.
//
//distlint:spec specFloat FuzzScanFloat
//distlint:hotpath
func floatAt(d []byte, start int) (v float64, next int, bad string) {
	neg := (uint64(d[start]^'-') - 1) >> 63 // 1 at a '-', else 0, without a branch
	first := start + int(neg)
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
		return 0, start, "want a number"
	}
	// man wraps past 19 significant digits. A 0.000…'s 0 and the zeros after
	// its point were walked but are not significant: count them off.
	if nd > 19 && d[first] == '0' {
		z := first + 2 // past the "0."
		for z < i && d[z] == '0' {
			z++
		}
		nd -= z - first - 1
	}
	if nd <= 19 {
		if v, ok := decimalToFloat(man, exp10, neg<<63); ok {
			return v, i, ""
		}
	}
	v, err := strconv.ParseFloat(unsafe.String(&d[start], i-start), 64)
	if err != nil {
		return v, i, "number out of float64 range"
	}
	return v, i, ""
}

// decode reads r's body into b and parses it as the one document a POST
// rows (items false) or POST items request may carry:
//
//	{"site": int|null, "rows":  [[number, …], …]}
//	{"site": int|null, "items": [{"elem"|"value": uint64, "weight": number|null}, …]}
//
// members in any order, each at most once, names spelled exactly, nothing
// but whitespace around the document. It returns the origin site
// (AssignSite when absent or null; an explicit negative site is rejected
// rather than mapped onto that sentinel) and leaves the batch in b.rows or
// b.items; an absent or empty batch is an error.
//
//distlint:hotpath
func (b *ingestBuf) decode(r *http.Request, items bool) (site int, err error) {
	b.rows, b.items = b.rows[:0], b.items[:0]
	if err := b.read(r); err != nil {
		return 0, err
	}
	s := scanner{d: b.body}
	site = AssignSite
	batchKey := "rows"
	if items {
		batchKey = "items"
	}
	var seenSite, seenBatch bool
	s.ws()
	for more := s.open('{', '}'); more; more = s.next('}') {
		switch key := s.key(); {
		case key == "site" && !seenSite:
			seenSite = true
			if !s.null() {
				neg, v, ok := s.number()
				if !ok || v > math.MaxInt || neg && v != 0 {
					s.fail("site wants a non-negative integer")
				}
				site = int(v)
			}
		case key == batchKey && !seenBatch:
			seenBatch = true
			if items {
				b.scanItems(&s)
			} else {
				b.scanRows(&s)
			}
		default:
			s.fail("unknown or repeated field")
		}
	}
	if s.ws(); s.err == nil && s.i != len(s.d)-1 {
		s.fail("trailing data after the document")
	}
	if s.err == nil && len(b.rows)+len(b.items) == 0 {
		s.err = badRequestf("empty %s batch", batchKey) //distlint:alloc-ok rejection path
	}
	return site, s.err
}

// scanRows reads the "rows" array into b.flat and points b.rows at it. The
// first row fixes the width; an empty row or one of another width fails
// the whole batch before anything is applied or logged.
//
//distlint:hotpath
func (b *ingestBuf) scanRows(s *scanner) {
	flat := b.flat[:0]
	n, dim := 0, 0
	for more := s.open('[', ']'); more; more = s.next(']') {
		start := len(flat)
		for more := s.open('[', ']'); more; more = s.next(']') {
			// The cursor stays in i across each ',' that a byte above ' '
			// follows (a ',' is not the closing NUL, so d[i+1] is in the
			// body); any other separator goes back through s.next.
			d, i, bad := s.d, s.i, ""
			for {
				var v float64
				v, i, bad = floatAt(d, i)
				flat = append(flat, v) //distlint:alloc-ok first growth to the high-water batch size
				if bad != "" || d[i] != ',' || d[i+1] <= ' ' {
					break
				}
				i++
			}
			if s.i = i; bad != "" {
				s.fail(bad)
			}
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

// scanItems reads the "items" array into b.items: itemAt's one walk per
// item, the cursor in a local across each ',' a '{' follows, and the
// member loop (item) for any item itemAt declines, from its first byte.
//
//distlint:hotpath
func (b *ingestBuf) scanItems(s *scanner) {
	items := b.items[:0]
	for more := s.open('[', ']'); more; more = s.next(']') {
		d, i := s.d, s.i
		it, next, ok := itemAt(d, i)
		for ok && d[next] == ',' && d[next+1] == '{' {
			items = append(items, it) //distlint:alloc-ok first growth to the high-water batch size
			i = next + 1
			it, next, ok = itemAt(d, i)
		}
		if s.i = next; !ok {
			s.i = i
			it = s.item()
		}
		items = append(items, it) //distlint:alloc-ok first growth to the high-water batch size
	}
	b.items = items
}

// itemAt reads the item {"elem":N,"weight":F} at d[i:] in one walk — N
// 1–19 digits, no leading zero, so no uint64 overflows — and returns it
// with the index past its '}'. ok is false for any other spelling.
//
//distlint:hotpath
func itemAt(d []byte, i int) (it distmat.WeightedItem, next int, ok bool) {
	if len(d)-i <= 8 || string(d[i:i+8]) != `{"elem":` { //distlint:alloc-ok a comparison: compared in place, not copied
		return it, i, false
	}
	elem, j := digitRun(d, i+8, 0)
	if n := j - i - 8; n == 0 || n > 19 || (d[i+8] == '0' && n > 1) ||
		len(d)-j <= 10 || string(d[j:j+10]) != `,"weight":` { //distlint:alloc-ok as above
		return it, i, false
	}
	w, k, bad := floatAt(d, j+10)
	if bad != "" || d[k] != '}' {
		return it, i, false
	}
	return distmat.WeightedItem{Elem: elem, Weight: w}, k + 1, true
}

// item reads one item object member by member, the only source of item
// errors. "elem" and "value" are aliases (the quantile kind's value, the
// heavy-hitters kind's element label), exactly one set; weight defaults to 1.
//
//distlint:hotpath
func (s *scanner) item() distmat.WeightedItem {
	const elem, value, weight = 1, 2, 4
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
	return it
}

// writeAck writes the ingest reply, byte for byte what encoding/json made
// of map[string]any{"ingested": n, "count": count}.
//
//distlint:hotpath
func writeAck(w http.ResponseWriter, n int, count int64) {
	var arr [64]byte                       // holds two int64s and the 24 fixed bytes: the appends never grow it
	buf := append(arr[:0], `{"count":`...) //distlint:alloc-ok stack buffer
	buf = strconv.AppendInt(buf, count, 10)
	buf = append(buf, `,"ingested":`...) //distlint:alloc-ok stack buffer
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, '}', '\n') //distlint:alloc-ok stack buffer
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf) // a failed reply write has no one left to report to
}
