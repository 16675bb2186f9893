package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/matrix"
)

// replyBuf is the pooled buffer a JSON reply is built in before any of it
// is sent, so a reply that cannot be encoded is still a clean 500 and one
// that can goes out with its Content-Length in a single Write. off is the
// matrix encoder's scratch: where each Gram entry's bytes start.
type replyBuf struct {
	out []byte
	off []int
}

var replyBufs = sync.Pool{New: func() any { return &replyBuf{out: make([]byte, 0, 64<<10)} }}

// maxPooledReply is the largest body buffer that goes back to replyBufs:
// one big Gram answer must not pin its megabytes for good.
const maxPooledReply = 1 << 20

// Write implements io.Writer for encoding/json's Encoder.
func (b *replyBuf) Write(p []byte) (int, error) {
	b.out = append(b.out, p...)
	return len(p), nil
}

// send writes the built body as the whole response and recycles b.
func (b *replyBuf) send(w http.ResponseWriter, status int) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b.out)))
	w.WriteHeader(status)
	_, _ = w.Write(b.out) // a failed reply write has no one left to report to
	if cap(b.out) <= maxPooledReply {
		replyBufs.Put(b)
	}
}

// writeJSON writes v with the given status. v is encoded before the status
// line goes out: a value encoding/json refuses (a NaN or ±Inf float) is a
// 500 carrying the encoder's message, not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b := replyBufs.Get().(*replyBuf)
	b.out = b.out[:0]
	if err := json.NewEncoder(b).Encode(v); err != nil {
		status, b.out = http.StatusInternalServerError, b.out[:0]
		_ = json.NewEncoder(b).Encode(map[string]string{"error": "service: encoding reply: " + err.Error()}) // a string map always encodes
	}
	b.send(w, status)
}

// errNonFinite reports the first value of a matrix answer JSON has no
// number for.
func errNonFinite(what string, v float64) error {
	return fmt.Errorf("service: matrix answer is not finite: %s is %v", what, v)
}

// encodeMatrix builds the matrix query answer in b.out, byte for byte what
// encoding/json made of
//
//	map[string]any{"kind": "matrix", "count": count, "frobenius": frob,
//		"trace": g.Trace(), "gram": [][]float64{…}}   // "gram" iff withGram
//
// (keys sorted, floats by appendJSONFloat, a closing newline), or reports
// the first non-finite value and leaves b.out unusable.
// TestQueryResponseBytes keeps the map-building body as the oracle.
//
// An entry below the diagonal whose bits equal its mirror's re-uses the
// bytes already written for the mirror; a Gram that is asymmetric in the
// last ulp (AddOuter with w ≠ 1, SymFromRaw) formats both.
//
//distlint:hotpath
func (b *replyBuf) encodeMatrix(count int64, frob float64, g *matrix.Sym, withGram bool) error {
	trace := g.Trace()
	if frob-frob != 0 {
		return errNonFinite("frobenius", frob)
	}
	if trace-trace != 0 {
		return errNonFinite("trace", trace)
	}
	out := append(b.out[:0], `{"count":`...) //distlint:alloc-ok pooled buffer
	out = strconv.AppendInt(out, count, 10)
	out = append(out, `,"frobenius":`...) //distlint:alloc-ok pooled buffer
	out = appendJSONFloat(out, frob)
	if withGram {
		d := g.Dim()
		// off[i·w+j] is where entry (i, j) starts and off[i·w+d] one past
		// row i's "]": an entry ends one byte before the next slot begins.
		w := d + 1
		if cap(b.off) < d*w {
			b.off = make([]int, d*w) //distlint:alloc-ok pooled scratch grows to the largest d seen
		}
		off := b.off[:d*w]
		out = append(out, `,"gram":[`...) //distlint:alloc-ok pooled buffer
		for i := 0; i < d; i++ {
			if i > 0 {
				out = append(out, ',') //distlint:alloc-ok pooled buffer
			}
			out = append(out, '[') //distlint:alloc-ok pooled buffer
			for j, v := range g.Row(i) {
				if j > 0 {
					out = append(out, ',') //distlint:alloc-ok pooled buffer
				}
				off[i*w+j] = len(out)
				if m := j*w + i; j < i && math.Float64bits(v) == math.Float64bits(g.Row(j)[i]) {
					out = append(out, out[off[m]:off[m+1]-1]...) //distlint:alloc-ok pooled buffer
					continue
				}
				if v-v != 0 {
					return errNonFinite("gram["+strconv.Itoa(i)+"]["+strconv.Itoa(j)+"]", v)
				}
				out = appendJSONFloat(out, v)
			}
			out = append(out, ']') //distlint:alloc-ok pooled buffer
			off[i*w+d] = len(out)
		}
		out = append(out, ']') //distlint:alloc-ok pooled buffer
	}
	out = append(out, `,"kind":"matrix","trace":`...) //distlint:alloc-ok pooled buffer
	out = appendJSONFloat(out, trace)
	b.out = append(out, '}', '\n') //distlint:alloc-ok pooled buffer
	return nil
}
