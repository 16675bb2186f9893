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

// digitRun folds the run of decimal digits at d[i:] into man, wrapping
// past 64 bits, and returns it with the index past the run.
func digitRun(d []byte, i int, man uint64) (uint64, int) {
	for c := d[i] - '0'; c <= 9; c = d[i] - '0' {
		man = man*10 + uint64(c)
		i++
	}
	return man, i
}

// float reads the RFC 8259 number under the cursor in one walk: the same
// pass that enforces the grammar — keeping out the spellings strconv takes
// but JSON forbids (+1, 01, .5, 1., 0x1p-3, Inf, NaN, 1_0) — gathers the
// decimal mantissa and exponent, which decimalToFloat then rounds. The
// result is bit-identical to strconv.ParseFloat over the literal, which is
// what encoding/json returns: every token the fast conversion declines
// (more than 19 significant digits, an undecidable rounding, a subnormal or
// out-of-range value) goes to ParseFloat itself, which so stays the
// specification and the only source of the range error.
//
//distlint:hotpath
func (s *scanner) float() float64 {
	d, i := s.d, s.i
	neg := d[i] == '-'
	if neg {
		i++
	}
	// man wraps past 19 significant digits; sig below sends those tokens to
	// the fallback before man is looked at.
	first := i
	man, i := digitRun(d, i, 0)
	sig, exp10 := i-first, 0
	ok := sig > 0 && (d[first] != '0' || sig == 1) // some digits, no leading zero
	if ok && d[i] == '.' {
		frac := i + 1
		if i = frac; man == 0 { // 0.000…: walked, not significant
			for sig = 0; d[i] == '0'; i++ {
			}
		}
		nz := i
		man, i = digitRun(d, i, man)
		ok = i > frac
		sig, exp10 = sig+i-nz, frac-i
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
	if sig <= 19 {
		if v, ok := decimalToFloat(man, exp10, neg); ok {
			return v
		}
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		s.fail("number out of float64 range")
	}
	return v
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
			flat = append(flat, s.float()) //distlint:alloc-ok first growth to the high-water batch size
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

// scanItems reads the "items" array into b.items. "elem" and "value" are
// aliases (the quantile kind reads the value universe, the heavy-hitters
// kind an element label) and exactly one must be set; weight defaults to 1.
//
//distlint:hotpath
func (b *ingestBuf) scanItems(s *scanner) {
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
				it.Weight = s.float()
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
