package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"
)

// The two formats in use: wire's and wal's.
var (
	wd = Format{Magic: 0x5744, Version: 2}
	wl = Format{Magic: 0x4C57, Version: 1}
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sealed builds one frame of f around payload.
func sealed(f Format, kind uint8, payload []byte) []byte {
	fr := append(make([]byte, HeaderSize), payload...)
	f.Seal(kind, fr)
	return fr
}

// readFrames reads frames until the first error and returns each frame's
// kind and payload, the offsets after each, and the error.
func readFrames(r *Reader) (kinds []uint8, payloads [][]byte, offsets []int64, err error) {
	for {
		var k uint8
		if k, err = r.Header(); err != nil {
			return
		}
		var p []byte
		if p, err = r.Payload(); err != nil {
			return
		}
		kinds = append(kinds, k)
		payloads = append(payloads, append([]byte(nil), p...))
		offsets = append(offsets, r.Offset())
	}
}

// TestReaderRoundTrip: frames of either format read back whole, one byte
// at a time or in one piece, with Offset after each; a stream ends with
// io.EOF between frames and io.ErrUnexpectedEOF inside one.
func TestReaderRoundTrip(t *testing.T) {
	for _, f := range []Format{wd, wl} {
		sizes := []int{0, 1, 12, 300, readAhead + 5, 7}
		var stream []byte
		var ends []int64
		for i, n := range sizes {
			stream = append(stream, sealed(f, uint8(i+1), bytes.Repeat([]byte{byte(i)}, n))...)
			ends = append(ends, int64(len(stream)))
		}
		for _, oneByte := range []bool{false, true} {
			src := io.Reader(bytes.NewReader(stream))
			if oneByte {
				src = iotest.OneByteReader(src)
			}
			kinds, payloads, offsets, err := readFrames(NewReader(f, src))
			if err != io.EOF || len(kinds) != len(ends) {
				t.Fatalf("%+v oneByte=%v: %d frames, then %v", f, oneByte, len(kinds), err)
			}
			for i := range kinds {
				if kinds[i] != uint8(i+1) || offsets[i] != ends[i] || !bytes.Equal(payloads[i], bytes.Repeat([]byte{byte(i)}, sizes[i])) {
					t.Fatalf("%+v oneByte=%v frame %d: kind %d, offset %d, %d bytes", f, oneByte, i, kinds[i], offsets[i], len(payloads[i]))
				}
			}
		}
		for _, cut := range []int{1, HeaderSize - 1, HeaderSize, HeaderSize + 1, len(stream) - 1} {
			r := NewReader(f, bytes.NewReader(stream[:cut]))
			if _, _, _, err := readFrames(r); !errors.Is(err, io.ErrUnexpectedEOF) && !(err == io.EOF && cut == HeaderSize) {
				t.Fatalf("%+v cut at %d: %v", f, cut, err)
			}
		}
	}
}

// TestReaderRefuses: the other format's frames, another version, a flipped
// bit in the header past the magic or in the payload, and a claim above
// the payload bound are each refused with their error.
func TestReaderRefuses(t *testing.T) {
	good := sealed(wd, 4, []byte("payload"))
	check := func(what string, f Format, frame []byte, limit uint32, want error) {
		t.Helper()
		r := NewReader(f, bytes.NewReader(frame))
		r.SetMaxPayload(limit)
		if _, _, _, err := readFrames(r); !errors.Is(err, want) {
			t.Fatalf("%s: %v, want %v", what, err, want)
		}
		if r.Offset() != 0 {
			t.Fatalf("%s: offset %d after a refused first frame", what, r.Offset())
		}
	}
	check("other format", wl, good, MaxPayload, ErrBadMagic)
	check("other version", Format{Magic: wd.Magic, Version: 1}, good, MaxPayload, ErrVersion)
	for _, off := range []int{3, 4, HeaderSize + 2} { // kind, length, payload
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x01
		if off == 4 {
			bad = append(bad, 0) // the longer claim is fully present
		}
		check(fmt.Sprintf("bit flipped at %d", off), wd, bad, MaxPayload, ErrChecksum)
	}
	check("claim above the bound", wd, good, uint32(len(good)-HeaderSize-1), ErrFrameTooLarge)
}

// chunkReader delivers a byte stream in pieces of seeded random size.
type chunkReader struct {
	data []byte
	rng  *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(1+c.rng.Intn(8192), len(p))], c.data)
	c.data = c.data[n:]
	return n, nil
}

// boundedReader delivers a stream in seeded pieces and, before each piece,
// holds the reader to its growth rule: the buffer is never larger than
// readAhead or twice what has arrived of the frame being read.
type boundedReader struct {
	t *testing.T
	chunkReader
	r         *Reader
	delivered int
}

func (b *boundedReader) Read(p []byte) (int, error) {
	if limit := max(readAhead, 2*b.delivered); len(b.r.buf) > limit {
		b.t.Fatalf("buffer of %d bytes with %d delivered (limit %d)", len(b.r.buf), b.delivered, limit)
	}
	n, err := b.chunkReader.Read(p)
	b.delivered += n
	return n, err
}

// TestReaderBufferFollowsBytes: a 12-byte header is a claim, not a
// payload. The buffer follows the bytes that arrive — a 64 MiB claim with
// 300 KB behind it reserves no more than twice that — and a genuinely
// large frame that starts mid-buffer still reads whole.
func TestReaderBufferFollowsBytes(t *testing.T) {
	claim := make([]byte, HeaderSize)
	wd.Seal(3, claim)
	binary.LittleEndian.PutUint32(claim[4:8], MaxPayload)
	stalled := append(claim, make([]byte, 300<<10)...)
	b := &boundedReader{t: t, chunkReader: chunkReader{data: stalled, rng: rand.New(rand.NewSource(1))}}
	b.r = NewReader(wd, b)
	if _, err := b.r.Header(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.r.Payload(); err != io.ErrUnexpectedEOF {
		t.Fatalf("a claim cut short: %v", err)
	}
	if len(b.r.buf) > 2*len(stalled) {
		t.Fatalf("%d bytes buffered for %d received", len(b.r.buf), len(stalled))
	}

	small := sealed(wd, 3, make([]byte, 40))
	large := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(large)
	stream := append(append([]byte(nil), small...), sealed(wd, 3, large)...)
	b = &boundedReader{t: t, chunkReader: chunkReader{data: stream, rng: rand.New(rand.NewSource(3))}}
	b.r = NewReader(wd, b)
	if _, err := b.r.Header(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.r.Payload(); err != nil {
		t.Fatal(err)
	}
	b.delivered -= len(small) // the rule counts the frame being read
	if _, err := b.r.Header(); err != nil {
		t.Fatal(err)
	}
	p, err := b.r.Payload()
	if err != nil || !bytes.Equal(p, large) {
		t.Fatalf("the 1 MiB frame: %v", err)
	}
}

// TestFloatsBothBodies: the bulk bodies of PutFloats and GetFloats move
// exactly the bits the portable loops do — NaN payloads, signed zeros and
// subnormals included — at every length around the empty and single cases,
// and whichever body this host selects.
func TestFloatsBothBodies(t *testing.T) {
	pool := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Pi, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN, smallest payload
		math.Float64frombits(0xfff8dead0000beef), // negative quiet NaN with a payload
		math.Float64frombits(0x7ff4000000000000),
		math.Float64frombits(0x0102030405060708), // every byte distinct: catches a swapped order
	}
	host := hostLittleEndian
	defer func() { hostLittleEndian = host }()
	for _, bulk := range []bool{false, true} {
		if bulk && !host {
			t.Log("big-endian host: the bulk bodies are never selected here")
			continue
		}
		hostLittleEndian = bulk
		for n := 0; n <= 9; n++ {
			for start := range pool {
				src := make([]float64, n)
				for i := range src {
					src[i] = pool[(start+i)%len(pool)]
				}
				want := bytes.Repeat([]byte{0xEE}, n*8+3)
				got := append([]byte(nil), want...)
				putFloatsGo(want, src)
				PutFloats(got, src)
				if !bytes.Equal(got, want) {
					t.Fatalf("bulk=%v n=%d start=%d: PutFloats wrote % x, portable % x", bulk, n, start, got, want)
				}
				back, backGo := make([]float64, n), make([]float64, n)
				GetFloats(back, got)
				getFloatsGo(backGo, got)
				if !sameBits(back, backGo) || !sameBits(back, src) {
					t.Fatalf("bulk=%v n=%d start=%d: GetFloats %x, portable %x, source %x", bulk, n, start, back, backGo, src)
				}
			}
		}
	}
}

// FuzzFrameReader reads arbitrary bytes as either format's stream, whole
// and one byte per Read. It must never panic; both deliveries must give
// the same frames and stop with the same error; and every frame accepted
// must re-seal to exactly the bytes it was read from.
func FuzzFrameReader(f *testing.F) {
	var clean []byte
	for i, p := range []string{"", "a", "hello, coordinator", string(make([]byte, 100))} {
		clean = append(clean, sealed(wd, uint8(i), []byte(p))...)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-1])
	f.Add(sealed(wl, 3, []byte("rows")))
	f.Add(append(sealed(wl, 1, nil), sealed(wd, 1, nil)...))
	flipped := append([]byte(nil), clean...)
	flipped[HeaderSize+3] ^= 0x80 // the second frame's kind
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []Format{wd, wl} {
			kinds, payloads, offsets, err := readFrames(NewReader(format, bytes.NewReader(data)))
			k1, p1, o1, err1 := readFrames(NewReader(format, iotest.OneByteReader(bytes.NewReader(data))))
			if fmt.Sprint(err) != fmt.Sprint(err1) || len(kinds) != len(k1) {
				t.Fatalf("%+v: whole reads %d frames then %v; one byte at a time %d then %v", format, len(kinds), err, len(k1), err1)
			}
			start := int64(0)
			for i := range kinds {
				if kinds[i] != k1[i] || !bytes.Equal(payloads[i], p1[i]) || offsets[i] != o1[i] {
					t.Fatalf("%+v frame %d: the two deliveries differ", format, i)
				}
				if got := sealed(format, kinds[i], payloads[i]); !bytes.Equal(got, data[start:offsets[i]]) {
					t.Fatalf("%+v frame %d re-seals to % x, read from % x", format, i, got, data[start:offsets[i]])
				}
				start = offsets[i]
			}
		}
	})
}
