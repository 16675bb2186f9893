package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Encoder writes frames to one stream. Each frame is staged — header and
// payload — in a single pooled buffer and written with one Write call, so
// a frame is never interleaved with another writer's bytes as long as one
// goroutine at a time writes to the stream: a CoordListener connection's
// serving goroutine owns its encoder, a SiteConn's handshake encoder is
// done before its writer goroutine starts, and internal/node guards its
// encoders with a mutex. Not safe for concurrent use.
type Encoder struct {
	w     io.Writer
	buf   []byte // staging: header + payload
	stats *Stats
}

// NewEncoder builds an encoder over w, counting traffic into stats
// (which may be nil).
func NewEncoder(w io.Writer, stats *Stats) *Encoder {
	return &Encoder{w: w, stats: stats}
}

// stage returns a staging buffer with room for an n-byte payload; the
// payload area is buf[HeaderSize : HeaderSize+n].
func (e *Encoder) stage(n int) []byte {
	total := HeaderSize + n
	if cap(e.buf) < total {
		e.buf = make([]byte, total)
	}
	return e.buf[:total]
}

// seal fills in the header of a staged frame — magic, version, kind, and
// the length and CRC of the payload behind it.
func seal(kind Kind, frame []byte) {
	payload := frame[HeaderSize:]
	binary.LittleEndian.PutUint16(frame[0:2], Magic)
	frame[2] = Version
	frame[3] = uint8(kind)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(payload))
}

// finish seals the staged frame and writes it with a single Write.
func (e *Encoder) finish(kind Kind, buf []byte) error {
	seal(kind, buf)
	if _, err := e.w.Write(buf); err != nil {
		return fmt.Errorf("wire: writing %v frame: %w", kind, err)
	}
	if e.stats != nil {
		e.stats.FramesOut.Add(1)
		e.stats.BytesOut.Add(int64(len(buf)))
	}
	return nil
}

// Hello writes the registration frame.
func (e *Encoder) Hello(h Hello) error {
	if h.Site < 0 || h.Site > math.MaxUint32 {
		return malformedf("site %d outside uint32", h.Site)
	}
	if len(h.Tracker) > math.MaxUint16 {
		return malformedf("tracker name of %d bytes", len(h.Tracker))
	}
	buf := e.stage(4 + 4 + 2 + len(h.Tracker))
	p := buf[HeaderSize:]
	binary.LittleEndian.PutUint32(p[0:4], uint32(h.Site))
	binary.LittleEndian.PutUint32(p[4:8], h.Flags)
	binary.LittleEndian.PutUint16(p[8:10], uint16(len(h.Tracker)))
	copy(p[10:], h.Tracker)
	return e.finish(KindHello, buf)
}

// HelloAck writes the handshake watermark reply.
func (e *Encoder) HelloAck(a HelloAck) error {
	buf := e.stage(ackSize)
	p := buf[HeaderSize:]
	binary.LittleEndian.PutUint64(p[0:8], a.Applied)
	binary.LittleEndian.PutUint64(p[8:16], a.Durable)
	return e.finish(KindHelloAck, buf)
}

// Ack writes a cumulative block acknowledgement.
func (e *Encoder) Ack(a Ack) error {
	buf := e.stage(ackSize)
	p := buf[HeaderSize:]
	binary.LittleEndian.PutUint64(p[0:8], a.Applied)
	binary.LittleEndian.PutUint64(p[8:16], a.Durable)
	return e.finish(KindAck, buf)
}

// Error writes a terminal error frame.
func (e *Encoder) Error(msg string) error {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	buf := e.stage(2 + len(msg))
	p := buf[HeaderSize:]
	binary.LittleEndian.PutUint16(p[0:2], uint16(len(msg)))
	copy(p[2:], msg)
	return e.finish(KindError, buf)
}

// RowBlock writes a numbered row block. Every row must have dim entries;
// the caller guarantees it.
//
//distlint:hotpath
func (e *Encoder) RowBlock(seq uint64, site int, dim int, rows [][]float64) error {
	buf, err := rowBlockFrame(e.buf, seq, site, dim, rows)
	if err != nil {
		return err
	}
	e.buf = buf
	return e.finish(KindRowBlock, buf)
}

// rowBlockFrame builds the sealed frame of one row block in buf's storage,
// reallocating when that is too small, and returns it. It is the one
// writer of the row-block layout: Encoder.RowBlock stages through it and
// SiteConn.SendBlock retains what it returns. Every row must have dim
// entries (SendBlock validates).
//
//distlint:hotpath
func rowBlockFrame(buf []byte, seq uint64, site int, dim int, rows [][]float64) ([]byte, error) {
	n := len(rows)
	payload := rowBlockHeadSize + n*dim*8
	if payload > MaxPayload {
		return buf, fmt.Errorf("%w: %d rows × dim %d", ErrFrameTooLarge, n, dim) //distlint:alloc-ok oversize-frame error path
	}
	if cap(buf) < HeaderSize+payload {
		buf = make([]byte, HeaderSize+payload) //distlint:alloc-ok growth stops at the high-water block size
	}
	buf = buf[:HeaderSize+payload]
	p := buf[HeaderSize:]
	binary.LittleEndian.PutUint64(p[0:8], seq)
	binary.LittleEndian.PutUint32(p[8:12], uint32(site))
	binary.LittleEndian.PutUint32(p[12:16], uint32(n))
	binary.LittleEndian.PutUint32(p[16:20], uint32(dim))
	off := rowBlockHeadSize
	for _, row := range rows {
		putFloats(p[off:], row)
		off += len(row) * 8
	}
	seal(KindRowBlock, buf)
	return buf, nil
}

// MsgBlock writes a batch of node-runtime messages as one frame.
func (e *Encoder) MsgBlock(ms []Msg) error {
	payload := 4
	for _, m := range ms {
		payload += msgHeadSize + len(m.Vec)*8
	}
	if payload > MaxPayload {
		return fmt.Errorf("%w: %d messages, %d bytes", ErrFrameTooLarge, len(ms), payload)
	}
	buf := e.stage(payload)
	p := buf[HeaderSize:]
	binary.LittleEndian.PutUint32(p[0:4], uint32(len(ms)))
	off := 4
	for _, m := range ms {
		if m.Site < 0 || m.Site > math.MaxUint32 {
			return malformedf("message site %d outside uint32", m.Site)
		}
		p[off] = m.Kind
		binary.LittleEndian.PutUint32(p[off+1:off+5], uint32(m.Site))
		binary.LittleEndian.PutUint64(p[off+5:off+13], m.Elem)
		binary.LittleEndian.PutUint64(p[off+13:off+21], math.Float64bits(m.Value))
		binary.LittleEndian.PutUint32(p[off+21:off+25], uint32(len(m.Vec)))
		off += msgHeadSize
		putFloats(p[off:], m.Vec)
		off += len(m.Vec) * 8
	}
	return e.finish(KindMsgBlock, buf)
}

// readAhead is the size of a Decoder's buffer unless a frame outgrows it:
// one Read takes in whatever whole frames the socket has, up to this.
const readAhead = 256 << 10

// Decoder reads frames from one stream through its own read-ahead buffer:
// one Read takes in as many frames as the stream has ready, and headers
// and CRCs are checked where the bytes landed. Decoded values never alias
// that buffer — rows and vectors are copied into pooled storage — and the
// Frame returned by Next, views included, is valid until the following
// Next call. Not safe for concurrent use.
type Decoder struct {
	r          io.Reader
	buf        []byte // buf[rd:wr] is read but not yet decoded
	rd, wr     int
	maxPayload uint32 // largest payload accepted: MaxPayload, less before a listener's handshake
	floats     []float64
	rowHdrs    [][]float64
	msgs       []Msg
	frame      Frame
	stats      *Stats
}

// NewDecoder builds a decoder over r, counting traffic into stats (which
// may be nil). It buffers for itself; hand it the raw net.Conn.
func NewDecoder(r io.Reader, stats *Stats) *Decoder {
	return &Decoder{r: r, maxPayload: MaxPayload, stats: stats}
}

// fill reads until need bytes are buffered from rd on, and returns the
// reader's error as it came when the stream ends or fails short of that.
// A partial frame is first moved to the front. The buffer grows only for
// a frame larger than it, and only as that frame's bytes arrive — doubling
// when full, never past the frame — so a header reserves nothing until
// the payload it promises is on the wire.
//
//distlint:hotpath
func (d *Decoder) fill(need int) error {
	if d.wr-d.rd >= need {
		return nil
	}
	if d.rd > 0 {
		d.wr = copy(d.buf, d.buf[d.rd:d.wr])
		d.rd = 0
	}
	for d.wr < need {
		if d.wr == len(d.buf) {
			grown := make([]byte, max(readAhead, min(need, 2*len(d.buf)))) //distlint:alloc-ok growth stops at the high-water frame size
			copy(grown, d.buf)
			d.buf = grown
		}
		n, err := d.r.Read(d.buf[d.wr:])
		d.wr += n
		if err != nil && d.wr < need {
			return err
		}
	}
	return nil
}

// Next reads, verifies, and decodes the next frame. The returned pointer
// aliases the decoder's single frame slot: it is overwritten by the next
// call.
func (d *Decoder) Next() (*Frame, error) {
	if err := d.fill(HeaderSize); err != nil {
		// io.EOF between frames is the clean-close signal.
		if err == io.EOF && d.wr > d.rd {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	hdr := d.buf[d.rd : d.rd+HeaderSize]
	if binary.LittleEndian.Uint16(hdr[0:2]) != Magic {
		return nil, ErrBadMagic
	}
	if hdr[2] != Version {
		return nil, fmt.Errorf("%w: got %d, speak %d", ErrVersion, hdr[2], Version)
	}
	kind := Kind(hdr[3])
	n := binary.LittleEndian.Uint32(hdr[4:8])
	crc := binary.LittleEndian.Uint32(hdr[8:12])
	if n > d.maxPayload {
		return nil, fmt.Errorf("%w: %d-byte payload", ErrFrameTooLarge, n)
	}
	total := HeaderSize + int(n)
	if err := d.fill(total); err != nil { // may move the buffer: hdr is dead
		// As io.ReadFull said it: EOF right behind the header, cut short
		// inside the payload.
		if err == io.EOF && d.wr-d.rd > HeaderSize {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: reading %v payload: %w", kind, err)
	}
	p := d.buf[d.rd+HeaderSize : d.rd+total]
	d.rd += total
	if crc32.ChecksumIEEE(p) != crc {
		return nil, fmt.Errorf("%w: %v frame", ErrChecksum, kind)
	}
	if d.stats != nil {
		d.stats.FramesIn.Add(1)
		d.stats.BytesIn.Add(int64(total))
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

// decodeRowBlock unpacks a row-block payload into the pooled float and
// row-header buffers; the resulting Rows alias them until the next call.
//
//distlint:hotpath
func (d *Decoder) decodeRowBlock(p []byte) error {
	if len(p) < rowBlockHeadSize {
		return malformedf("row-block payload of %d bytes", len(p)) //distlint:alloc-ok malformed-frame error path
	}
	seq := binary.LittleEndian.Uint64(p[0:8])
	site := int(binary.LittleEndian.Uint32(p[8:12]))
	rows := int(binary.LittleEndian.Uint32(p[12:16]))
	dim := int(binary.LittleEndian.Uint32(p[16:20]))
	// Divide, never multiply: rows × dim × 8 of two wire uint32s can wrap
	// to the payload's length.
	body := len(p) - rowBlockHeadSize
	if rows < 0 || dim <= 0 || body%(dim*8) != 0 || body/(dim*8) != rows {
		return malformedf("row-block %d×%d in %d-byte payload", rows, dim, len(p)) //distlint:alloc-ok malformed-frame error path
	}
	total := rows * dim
	if cap(d.floats) < total {
		d.floats = make([]float64, total) //distlint:alloc-ok pool growth to the high-water block size
	}
	if cap(d.rowHdrs) < rows {
		d.rowHdrs = make([][]float64, rows) //distlint:alloc-ok pool growth to the high-water row count
	}
	flat := d.floats[:total]
	getFloats(flat, p[rowBlockHeadSize:])
	hdrs := d.rowHdrs[:rows]
	for i := range hdrs {
		hdrs[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	d.frame.Block = RowBlock{Seq: seq, Site: site, Dim: dim, Rows: hdrs}
	return nil
}

// decodeMsgBlock unpacks a msg-block payload; vectors alias the pooled
// float buffer until the next call.
func (d *Decoder) decodeMsgBlock(p []byte) error {
	if len(p) < 4 {
		return malformedf("msg-block payload of %d bytes", len(p))
	}
	count := int(binary.LittleEndian.Uint32(p[0:4]))
	if count < 0 || count > len(p) { // each record is ≥ 1 byte; cheap sanity bound
		return malformedf("msg-block count %d in %d-byte payload", count, len(p))
	}
	if cap(d.msgs) < count {
		d.msgs = make([]Msg, count)
	}
	// First pass sizes the float pool so vector views never reallocate
	// mid-decode (a growth would dangle the earlier views).
	off := 4
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
	off = 4
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
			getFloats(vec, p[off:])
			off += vecLen * 8
			msgs[i].Vec = vec
			vecOff += vecLen
		}
	}
	d.frame.Msgs = msgs
	return nil
}
