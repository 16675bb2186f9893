package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/frame"
)

var format = frame.Format{Magic: Magic, Version: Version}

// Encoder writes frames to one stream. Each frame is staged — header and
// payload — in a single pooled buffer and written with one Write call, so
// a frame is never interleaved with another writer's bytes as long as one
// goroutine at a time writes to the stream: a CoordListener connection's
// acks and broadcasts share its encoder under the connection's write lock,
// and a SiteConn's handshake encoder is done before its writer goroutine
// starts. Not safe for concurrent use.
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
// payload area is buf[frame.HeaderSize : frame.HeaderSize+n].
func (e *Encoder) stage(n int) []byte {
	total := frame.HeaderSize + n
	if cap(e.buf) < total {
		e.buf = make([]byte, total)
	}
	return e.buf[:total]
}

// finish seals the staged frame and writes it.
func (e *Encoder) finish(kind Kind, buf []byte) error {
	format.Seal(uint8(kind), buf)
	return e.write(kind, buf)
}

// write writes a sealed frame with a single Write.
func (e *Encoder) write(kind Kind, buf []byte) error {
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
	if h.Site < 0 || uint64(h.Site) > math.MaxUint32 {
		return malformedf("site %d outside uint32", h.Site)
	}
	if len(h.Tracker) > math.MaxUint16 {
		return malformedf("tracker name of %d bytes", len(h.Tracker))
	}
	buf := e.stage(4 + 4 + 2 + len(h.Tracker))
	p := buf[frame.HeaderSize:]
	binary.LittleEndian.PutUint32(p[0:4], uint32(h.Site))
	binary.LittleEndian.PutUint32(p[4:8], h.Flags)
	binary.LittleEndian.PutUint16(p[8:10], uint16(len(h.Tracker)))
	copy(p[10:], h.Tracker)
	return e.finish(KindHello, buf)
}

// HelloAck writes the handshake watermark reply.
func (e *Encoder) HelloAck(a HelloAck) error { return e.watermarks(KindHelloAck, Ack(a)) }

// Ack writes a cumulative block acknowledgement.
func (e *Encoder) Ack(a Ack) error { return e.watermarks(KindAck, a) }

// watermarks writes a hello-ack or an ack: one payload layout, two kinds.
func (e *Encoder) watermarks(kind Kind, a Ack) error {
	buf := e.stage(ackSize)
	p := buf[frame.HeaderSize:]
	binary.LittleEndian.PutUint64(p[0:8], a.Applied)
	binary.LittleEndian.PutUint64(p[8:16], a.Durable)
	return e.finish(kind, buf)
}

// Error writes a terminal error frame.
func (e *Encoder) Error(msg string) error {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	buf := e.stage(2 + len(msg))
	p := buf[frame.HeaderSize:]
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
	return e.write(KindRowBlock, buf)
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
	if payload > frame.MaxPayload {
		return buf, fmt.Errorf("%w: %d rows × dim %d", ErrFrameTooLarge, n, dim) //distlint:alloc-ok oversize-frame error path
	}
	if cap(buf) < frame.HeaderSize+payload {
		buf = make([]byte, frame.HeaderSize+payload) //distlint:alloc-ok growth stops at the high-water block size
	}
	buf = buf[:frame.HeaderSize+payload]
	p := buf[frame.HeaderSize:]
	binary.LittleEndian.PutUint64(p[0:8], seq)
	binary.LittleEndian.PutUint32(p[8:12], uint32(site))
	binary.LittleEndian.PutUint32(p[12:16], uint32(n))
	binary.LittleEndian.PutUint32(p[16:20], uint32(dim))
	off := rowBlockHeadSize
	for _, row := range rows {
		frame.PutFloats(p[off:], row)
		off += len(row) * 8
	}
	format.Seal(uint8(KindRowBlock), buf)
	return buf, nil
}

// MsgBlock writes a batch of node-runtime messages as one frame: numbered
// site → coordinator, seq 0 on a broadcast.
func (e *Encoder) MsgBlock(seq uint64, ms []Msg) error {
	buf, err := msgBlockFrame(e.buf, seq, ms)
	if err != nil {
		return err
	}
	e.buf = buf
	return e.write(KindMsgBlock, buf)
}

// msgBlockFrame builds the sealed frame of one msg-block in buf's storage,
// reallocating when that is too small, and returns it: the one writer of
// the msg-block layout, as rowBlockFrame is of the row-block one.
func msgBlockFrame(buf []byte, seq uint64, ms []Msg) ([]byte, error) {
	payload := msgBlockHeadSize
	for _, m := range ms {
		if m.Site < 0 || uint64(m.Site) > math.MaxUint32 {
			return buf, malformedf("message site %d outside uint32", m.Site)
		}
		payload += msgHeadSize + len(m.Vec)*8
	}
	if payload > frame.MaxPayload {
		return buf, fmt.Errorf("%w: %d messages, %d bytes", ErrFrameTooLarge, len(ms), payload)
	}
	if cap(buf) < frame.HeaderSize+payload {
		buf = make([]byte, frame.HeaderSize+payload)
	}
	buf = buf[:frame.HeaderSize+payload]
	p := buf[frame.HeaderSize:]
	binary.LittleEndian.PutUint64(p[0:8], seq)
	binary.LittleEndian.PutUint32(p[8:12], uint32(len(ms)))
	off := msgBlockHeadSize
	for _, m := range ms {
		p[off] = m.Kind
		binary.LittleEndian.PutUint32(p[off+1:off+5], uint32(m.Site))
		binary.LittleEndian.PutUint64(p[off+5:off+13], m.Elem)
		binary.LittleEndian.PutUint64(p[off+13:off+21], math.Float64bits(m.Value))
		binary.LittleEndian.PutUint32(p[off+21:off+25], uint32(len(m.Vec)))
		off += msgHeadSize
		frame.PutFloats(p[off:], m.Vec)
		off += len(m.Vec) * 8
	}
	format.Seal(uint8(KindMsgBlock), buf)
	return buf, nil
}

// Decoder reads frames from one stream through a frame.Reader, which
// reads ahead and checks headers and CRCs where the bytes landed. Decoded
// values never alias its buffer — rows and vectors are copied into pooled
// storage — and the Frame returned by Next, views included, is valid until
// the following Next call. Not safe for concurrent use.
type Decoder struct {
	fr     *frame.Reader
	rows   frame.Rows
	floats []float64 // msg-block vectors
	msgs   []Msg
	frame  Frame
	stats  *Stats
}

// NewDecoder builds a decoder over r, counting traffic into stats (which
// may be nil). It buffers for itself; hand it the raw net.Conn.
func NewDecoder(r io.Reader, stats *Stats) *Decoder {
	return &Decoder{fr: frame.NewReader(format, r), stats: stats}
}

// Next reads, verifies, and decodes the next frame. The returned pointer
// aliases the decoder's single frame slot: it is overwritten by the next
// call.
func (d *Decoder) Next() (*Frame, error) {
	k, err := d.fr.Header()
	if err != nil {
		return nil, err // io.EOF between frames is the clean-close signal
	}
	kind := Kind(k)
	p, err := d.fr.Payload()
	if err == ErrChecksum {
		return nil, fmt.Errorf("%w: %v frame", ErrChecksum, kind)
	}
	if err != nil {
		return nil, fmt.Errorf("wire: reading %v payload: %w", kind, err)
	}
	if d.stats != nil {
		d.stats.FramesIn.Add(1)
		d.stats.BytesIn.Add(int64(frame.HeaderSize + len(p)))
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

// decodeRowBlock unpacks a row-block payload into the pooled rows; the
// resulting Rows alias them until the next call.
//
//distlint:hotpath
func (d *Decoder) decodeRowBlock(p []byte) error {
	if len(p) < rowBlockHeadSize {
		return malformedf("row-block payload of %d bytes", len(p)) //distlint:alloc-ok malformed-frame error path
	}
	rows := binary.LittleEndian.Uint32(p[12:16])
	dim := binary.LittleEndian.Uint32(p[16:20])
	hdrs, ok := d.rows.Decode(rows, dim, p[rowBlockHeadSize:])
	if !ok {
		return malformedf("row-block %d×%d in %d-byte payload", int(rows), int(dim), len(p)) //distlint:alloc-ok malformed-frame error path
	}
	seq := binary.LittleEndian.Uint64(p[0:8])
	site := int(binary.LittleEndian.Uint32(p[8:12]))
	d.frame.Block = RowBlock{Seq: seq, Site: site, Dim: int(dim), Rows: hdrs}
	return nil
}

// decodeMsgBlock unpacks a msg-block payload; vectors alias the pooled
// float buffer until the next call.
func (d *Decoder) decodeMsgBlock(p []byte) error {
	if len(p) < msgBlockHeadSize {
		return malformedf("msg-block payload of %d bytes", len(p))
	}
	count := int(binary.LittleEndian.Uint32(p[8:12]))
	// Bound the count by the records that fit before it sizes anything: a
	// count alone must not reserve more than the payload could hold.
	if count < 0 || count > (len(p)-msgBlockHeadSize)/msgHeadSize {
		return malformedf("msg-block count %d in %d-byte payload", count, len(p))
	}
	if cap(d.msgs) < count {
		d.msgs = make([]Msg, count)
	}
	// The float pool holds as many floats as p could, so vector views never
	// reallocate mid-decode (a growth would dangle the earlier views).
	if cap(d.floats) < len(p)/8 {
		d.floats = make([]float64, len(p)/8)
	}
	msgs := d.msgs[:count]
	off, vecOff := msgBlockHeadSize, 0
	for i := range msgs {
		if off+msgHeadSize > len(p) {
			return malformedf("msg-block truncated at record %d", i)
		}
		vecLen := int(binary.LittleEndian.Uint32(p[off+21 : off+25]))
		if vecLen < 0 || vecLen > (len(p)-off-msgHeadSize)/8 { // divided: vecLen × 8 wraps a 32-bit int
			return malformedf("msg-block record %d vector length %d", i, vecLen)
		}
		msgs[i] = Msg{
			Kind:  p[off],
			Site:  int(binary.LittleEndian.Uint32(p[off+1 : off+5])),
			Elem:  binary.LittleEndian.Uint64(p[off+5 : off+13]),
			Value: math.Float64frombits(binary.LittleEndian.Uint64(p[off+13 : off+21])),
		}
		off += msgHeadSize
		if vecLen > 0 {
			vec := d.floats[vecOff : vecOff+vecLen : vecOff+vecLen]
			frame.GetFloats(vec, p[off:])
			off += vecLen * 8
			msgs[i].Vec = vec
			vecOff += vecLen
		}
	}
	if off != len(p) {
		return malformedf("msg-block has %d trailing bytes", len(p)-off)
	}
	d.frame.Seq = binary.LittleEndian.Uint64(p[0:8])
	d.frame.Msgs = msgs
	return nil
}
