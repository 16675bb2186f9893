package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"testing"
)

// oracleDecoder is the decoder this package had before Decoder read ahead:
// io.ReadFull for the header, io.ReadFull for the payload into a buffer of
// its own, one float at a time out of it. It is kept here, as it was, as
// the specification FuzzWireDecoder and TestWireStreamGuard hold Decoder
// to. Two lines differ from what was replaced: the row-block shape check
// divides where the original multiplied (see decodeRowBlock), because the
// original's make panicked on a 32-byte frame announcing 2³¹ × 2³⁰ rows;
// and the CRC covers version, kind and length before the payload, the rule
// of protocol version 2 (internal/frame's).
type oracleDecoder struct {
	r       io.Reader
	hdr     [HeaderSize]byte
	payload []byte
	floats  []float64
	rowHdrs [][]float64
	msgs    []Msg
	frame   Frame
	stats   *Stats
}

func (d *oracleDecoder) Next() (*Frame, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint16(d.hdr[0:2]) != Magic {
		return nil, ErrBadMagic
	}
	if d.hdr[2] != Version {
		return nil, fmt.Errorf("%w: got %d, speak %d", ErrVersion, d.hdr[2], Version)
	}
	kind := Kind(d.hdr[3])
	n := binary.LittleEndian.Uint32(d.hdr[4:8])
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: %d-byte payload", ErrFrameTooLarge, n)
	}
	if cap(d.payload) < int(n) {
		d.payload = make([]byte, n)
	}
	p := d.payload[:n]
	if _, err := io.ReadFull(d.r, p); err != nil {
		return nil, fmt.Errorf("wire: reading %v payload: %w", kind, err)
	}
	if crc32.Update(crc32.ChecksumIEEE(d.hdr[2:8]), crc32.IEEETable, p) != binary.LittleEndian.Uint32(d.hdr[8:12]) {
		return nil, fmt.Errorf("%w: %v frame", ErrChecksum, kind)
	}
	if d.stats != nil {
		d.stats.FramesIn.Add(1)
		d.stats.BytesIn.Add(int64(HeaderSize + len(p)))
	}

	d.frame = Frame{Kind: kind}
	switch kind {
	case KindHello:
		if len(p) < 10 {
			return nil, malformedf("hello payload of %d bytes", len(p))
		}
		nameLen := int(binary.LittleEndian.Uint16(p[8:10]))
		if len(p) != 10+nameLen {
			return nil, malformedf("hello name length %d in %d-byte payload", nameLen, len(p))
		}
		d.frame.Hello = Hello{
			Site:    int(binary.LittleEndian.Uint32(p[0:4])),
			Flags:   binary.LittleEndian.Uint32(p[4:8]),
			Tracker: string(p[10:]),
		}
	case KindHelloAck, KindAck:
		if len(p) != ackSize {
			return nil, malformedf("%v payload of %d bytes", kind, len(p))
		}
		applied := binary.LittleEndian.Uint64(p[0:8])
		durable := binary.LittleEndian.Uint64(p[8:16])
		if kind == KindHelloAck {
			d.frame.HelloAck = HelloAck{Applied: applied, Durable: durable}
		} else {
			d.frame.Ack = Ack{Applied: applied, Durable: durable}
		}
	case KindRowBlock:
		if err := d.decodeRowBlock(p); err != nil {
			return nil, err
		}
	case KindMsgBlock:
		if err := d.decodeMsgBlock(p); err != nil {
			return nil, err
		}
	case KindError:
		if len(p) < 2 {
			return nil, malformedf("error payload of %d bytes", len(p))
		}
		msgLen := int(binary.LittleEndian.Uint16(p[0:2]))
		if len(p) != 2+msgLen {
			return nil, malformedf("error message length %d in %d-byte payload", msgLen, len(p))
		}
		d.frame.ErrMsg = string(p[2:])
	default:
		return nil, malformedf("unknown frame kind %d", uint8(kind))
	}
	return &d.frame, nil
}

func (d *oracleDecoder) decodeRowBlock(p []byte) error {
	if len(p) < rowBlockHeadSize {
		return malformedf("row-block payload of %d bytes", len(p))
	}
	seq := binary.LittleEndian.Uint64(p[0:8])
	site := int(binary.LittleEndian.Uint32(p[8:12]))
	rows := int(binary.LittleEndian.Uint32(p[12:16]))
	dim := int(binary.LittleEndian.Uint32(p[16:20]))
	// Was: len(p) != rowBlockHeadSize+rows*dim*8, which wraps.
	body := len(p) - rowBlockHeadSize
	if rows < 0 || dim <= 0 || body%(dim*8) != 0 || body/(dim*8) != rows {
		return malformedf("row-block %d×%d in %d-byte payload", rows, dim, len(p))
	}
	total := rows * dim
	if cap(d.floats) < total {
		d.floats = make([]float64, total)
	}
	if cap(d.rowHdrs) < rows {
		d.rowHdrs = make([][]float64, rows)
	}
	flat := d.floats[:total]
	off := rowBlockHeadSize
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[off : off+8]))
		off += 8
	}
	hdrs := d.rowHdrs[:rows]
	for i := range hdrs {
		hdrs[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	d.frame.Block = RowBlock{Seq: seq, Site: site, Dim: dim, Rows: hdrs}
	return nil
}

func (d *oracleDecoder) decodeMsgBlock(p []byte) error {
	if len(p) < msgBlockHeadSize {
		return malformedf("msg-block payload of %d bytes", len(p))
	}
	count := int(binary.LittleEndian.Uint32(p[8:12]))
	if count < 0 || count > (len(p)-msgBlockHeadSize)/msgHeadSize {
		return malformedf("msg-block count %d in %d-byte payload", count, len(p))
	}
	if cap(d.msgs) < count {
		d.msgs = make([]Msg, count)
	}
	off := msgBlockHeadSize
	totalVec := 0
	for i := 0; i < count; i++ {
		if off+msgHeadSize > len(p) {
			return malformedf("msg-block truncated at record %d", i)
		}
		vecLen := int(binary.LittleEndian.Uint32(p[off+21 : off+25]))
		if vecLen < 0 || off+msgHeadSize+vecLen*8 > len(p) {
			return malformedf("msg-block record %d vector length %d", i, vecLen)
		}
		totalVec += vecLen
		off += msgHeadSize + vecLen*8
	}
	if off != len(p) {
		return malformedf("msg-block has %d trailing bytes", len(p)-off)
	}
	if cap(d.floats) < totalVec {
		d.floats = make([]float64, totalVec)
	}
	flat := d.floats[:totalVec]
	msgs := d.msgs[:count]
	off = msgBlockHeadSize
	vecOff := 0
	for i := range msgs {
		vecLen := int(binary.LittleEndian.Uint32(p[off+21 : off+25]))
		msgs[i] = Msg{
			Kind:  p[off],
			Site:  int(binary.LittleEndian.Uint32(p[off+1 : off+5])),
			Elem:  binary.LittleEndian.Uint64(p[off+5 : off+13]),
			Value: math.Float64frombits(binary.LittleEndian.Uint64(p[off+13 : off+21])),
		}
		off += msgHeadSize
		if vecLen > 0 {
			vec := flat[vecOff : vecOff+vecLen : vecOff+vecLen]
			for j := range vec {
				vec[j] = math.Float64frombits(binary.LittleEndian.Uint64(p[off : off+8]))
				off += 8
			}
			msgs[i].Vec = vec
			vecOff += vecLen
		}
	}
	d.frame.Seq = binary.LittleEndian.Uint64(p[0:8])
	d.frame.Msgs = msgs
	return nil
}

// chunkReader delivers a byte stream in pieces of seeded random size, from
// a single byte to everything asked for: the ways a socket can cut a frame.
type chunkReader struct {
	data []byte
	rng  *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	switch c.rng.Intn(4) {
	case 0:
		n = 1
	case 1:
		n = 1 + c.rng.Intn(16)
	case 2:
		n = 1 + c.rng.Intn(4096)
	}
	n = copy(p[:min(n, len(p))], c.data)
	c.data = c.data[n:]
	return n, nil
}

// errClass names what callers match an error against.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case err == io.EOF:
		return "clean EOF"
	case errors.Is(err, io.EOF):
		return "EOF behind a header"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected EOF"
	}
	for _, sentinel := range []error{ErrBadMagic, ErrVersion, ErrFrameTooLarge, ErrChecksum, ErrMalformed} {
		if errors.Is(err, sentinel) {
			return sentinel.Error()
		}
	}
	return "other: " + err.Error()
}

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

// sameFrame compares two decoded frames field by field, floats by bits.
func sameFrame(a, b *Frame) bool {
	if a.Kind != b.Kind || a.Hello != b.Hello || a.HelloAck != b.HelloAck || a.Ack != b.Ack || a.ErrMsg != b.ErrMsg ||
		a.Block.Seq != b.Block.Seq || a.Block.Site != b.Block.Site || a.Block.Dim != b.Block.Dim || a.Seq != b.Seq ||
		len(a.Block.Rows) != len(b.Block.Rows) || len(a.Msgs) != len(b.Msgs) {
		return false
	}
	for i := range a.Block.Rows {
		if !sameBits(a.Block.Rows[i], b.Block.Rows[i]) {
			return false
		}
	}
	for i := range a.Msgs {
		x, y := a.Msgs[i], b.Msgs[i]
		if x.Kind != y.Kind || x.Site != y.Site || x.Elem != y.Elem ||
			math.Float64bits(x.Value) != math.Float64bits(y.Value) || !sameBits(x.Vec, y.Vec) {
			return false
		}
	}
	return true
}

// fillerFrame is a well-formed dim-1 row block of k rows (32 + 8k bytes):
// what the fuzz harness puts in front of the fuzzed bytes so that they land
// anywhere relative to the end of the decoder's buffer, or behind a frame
// that outgrew it, without the corpus having to store that frame.
func fillerFrame(k int) []byte {
	if k == 0 {
		return nil
	}
	flat := make([]float64, k)
	rows := make([][]float64, k)
	for i := range rows {
		flat[i] = float64(i) + 0.5
		rows[i] = flat[i : i+1]
	}
	frame, err := rowBlockFrame(nil, uint64(k), 0, 1, rows)
	if err != nil {
		panic(err)
	}
	return frame
}

// readAhead is the size of frame.Reader's buffer, which the fuzz harness
// places its input against.
const readAhead = 256 << 10

// fillerRows is how many rows make a filler exactly fill the buffer.
const fillerRows = (readAhead - HeaderSize - rowBlockHeadSize) / 8

// diffDecoders runs stream through Decoder (cut up by chunkSeed) and
// through the oracle and reports the first disagreement: a frame, where and
// how decoding stopped, or the traffic counters.
func diffDecoders(stream []byte, chunkSeed int64) error {
	var gotStats, wantStats Stats
	got := NewDecoder(&chunkReader{data: stream, rng: rand.New(rand.NewSource(chunkSeed))}, &gotStats)
	want := &oracleDecoder{r: bytes.NewReader(stream), stats: &wantStats}
	for i := 0; ; i++ {
		gf, gerr := got.Next()
		wf, werr := want.Next()
		if errClass(gerr) != errClass(werr) || (gerr != nil && gerr.Error() != werr.Error()) {
			return fmt.Errorf("frame %d: decoder stops with %q (%v), oracle with %q (%v)", i, errClass(gerr), gerr, errClass(werr), werr)
		}
		if gerr != nil {
			break
		}
		if !sameFrame(gf, wf) {
			return fmt.Errorf("frame %d: decoder %+v, oracle %+v", i, gf, wf)
		}
	}
	if g, w := gotStats.Snapshot(), wantStats.Snapshot(); g != w {
		return fmt.Errorf("counters: decoder %+v, oracle %+v", g, w)
	}
	return nil
}

// FuzzWireDecoder holds Decoder to the decoder it replaced on arbitrary
// bytes behind an arbitrary amount of well-formed stream, delivered in
// arbitrary pieces: the same frames, the same stop, the same counters.
func FuzzWireDecoder(f *testing.F) {
	var stream bytes.Buffer
	enc := NewEncoder(&stream, nil)
	rng := rand.New(rand.NewSource(5))
	enc.Hello(Hello{Site: 3, Tracker: "sensor-grid"})
	afterHello := stream.Len()
	enc.RowBlock(1, 3, 5, randRows(rng, 7, 5))
	afterBlock := stream.Len()
	enc.MsgBlock(2, []Msg{{Kind: 1, Site: 2, Elem: 9, Value: -0.5}, {Kind: 2, Vec: []float64{}}, {Kind: 2, Site: 1, Vec: []float64{1, math.Inf(-1)}}, {}})
	enc.Ack(Ack{Applied: 8, Durable: 3})
	enc.Error("tracker not found")
	clean := append([]byte(nil), stream.Bytes()...)

	f.Add(clean, int64(1), uint32(0))
	f.Add([]byte{}, int64(2), uint32(0))
	// The fuzzed stream begins 0, 8 and 32 bytes short of the buffer's
	// end (a straddling header, a straddling payload), exactly at it, and
	// behind a frame larger than the buffer.
	for _, lead := range []uint32{fillerRows, fillerRows - 1, fillerRows - 4, fillerRows + 1, 39999} {
		f.Add(clean, int64(lead), lead)
	}
	// A corrupt byte at every header offset of the second frame.
	for off := 0; off < HeaderSize; off++ {
		bad := append([]byte(nil), clean...)
		bad[afterHello+off] ^= 0x21
		f.Add(bad, int64(off), uint32(0))
		f.Add(bad, int64(off), uint32(fillerRows-1))
	}
	// A stream cut at every boundary of its first two frames and inside
	// each part.
	for _, cut := range []int{1, HeaderSize - 1, HeaderSize, HeaderSize + 1, afterHello - 1, afterHello,
		afterHello + 1, afterHello + HeaderSize, afterHello + HeaderSize + 1, afterBlock - 1, afterBlock} {
		f.Add(clean[:cut], int64(cut), uint32(0))
		f.Add(clean[:cut], int64(cut), uint32(fillerRows-2))
	}
	// The shape that wrapped the multiplying length check.
	wrap := fillerFrame(1)[:HeaderSize+rowBlockHeadSize]
	binary.LittleEndian.PutUint32(wrap[4:8], rowBlockHeadSize)
	binary.LittleEndian.PutUint32(wrap[HeaderSize+12:], 1<<31)
	binary.LittleEndian.PutUint32(wrap[HeaderSize+16:], 1<<30)
	reCRC(wrap)
	f.Add(wrap, int64(3), uint32(0))
	f.Add(oversizedMsgCount(4096), int64(4), uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, chunkSeed int64, lead uint32) {
		stream := append(fillerFrame(int(lead%40000)), data...)
		if err := diffDecoders(stream, chunkSeed); err != nil {
			t.Fatal(err)
		}
	})
}
