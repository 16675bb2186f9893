// Package frame is the one codec under internal/wire's frames and
// internal/wal's records: the header and its CRC rule, a read-ahead
// Reader, the float64 layout and the pooled row-block decoder. The two
// differ only in their Format and in the payloads they lay out. A frame is
// a 12-byte header, then its payload:
//
//	magic   uint16  Format.Magic
//	version uint8   Format.Version
//	kind    uint8   the caller's discriminator
//	length  uint32  payload bytes, at most MaxPayload
//	crc     uint32  IEEE CRC-32 of version, kind, length and payload
//
// All integers are little-endian. The CRC covers every byte past the magic,
// so a flipped kind or length bit can never reinterpret a frame.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	HeaderSize = 12       // magic(2) version(1) kind(1) length(4) crc(4)
	MaxPayload = 64 << 20 // above the service's HTTP body bound for the same blocks
)

// Errors for a header or CRC a Reader refuses, matched with errors.Is.
var (
	ErrBadMagic      = errors.New("frame: bad magic")
	ErrVersion       = errors.New("frame: unsupported version")
	ErrChecksum      = errors.New("frame: checksum mismatch")
	ErrFrameTooLarge = errors.New("frame: payload exceeds size limit")
)

// Format names one family of frames: wire's "WD" or wal's "WL".
type Format struct {
	Magic   uint16
	Version uint8
}

// Seal fills in the header of frame, whose payload is frame[HeaderSize:].
func (f Format) Seal(kind uint8, frame []byte) {
	binary.LittleEndian.PutUint16(frame[0:2], f.Magic)
	frame[2], frame[3] = f.Version, kind
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(frame)-HeaderSize))
	binary.LittleEndian.PutUint32(frame[8:12], checksum(frame))
}

func checksum(frame []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(frame[2:8]), crc32.IEEETable, frame[HeaderSize:])
}

// readAhead is the size of a Reader's buffer unless a frame outgrows it:
// one Read takes in whatever whole frames the source has, up to this.
const readAhead = 256 << 10

// Reader reads one Format's frames through its own read-ahead buffer, and
// checks headers and CRCs where the bytes landed. A frame is read in two
// steps, Header then Payload. Not safe for concurrent use.
type Reader struct {
	f          Format
	r          io.Reader
	buf        []byte // buf[rd:wr] is read but not yet returned
	rd, wr     int
	n          int    // payload length announced by the last header
	maxPayload uint32 // MaxPayload, less before a listener's handshake
	offset     int64  // stream bytes through the last whole frame
}

// NewReader builds a reader of f's frames over r, which it buffers itself.
func NewReader(f Format, r io.Reader) *Reader {
	return &Reader{f: f, r: r, maxPayload: MaxPayload}
}

// SetMaxPayload bounds the payload a header may announce.
func (r *Reader) SetMaxPayload(n uint32) { r.maxPayload = n }

// Offset is the stream offset just past the last frame Payload returned.
func (r *Reader) Offset() int64 { return r.offset }

// fill reads until need bytes are buffered from rd on, and returns the
// reader's error as it came when the stream ends or fails short of that.
// A partial frame is first moved to the front. The buffer grows only for
// a frame larger than it, and only as that frame's bytes arrive — doubling
// when full, never past the frame — so a header reserves nothing until
// the payload it promises is on the wire.
//
//distlint:hotpath
func (r *Reader) fill(need int) error {
	if r.wr-r.rd >= need {
		return nil
	}
	if r.rd > 0 {
		r.wr = copy(r.buf, r.buf[r.rd:r.wr])
		r.rd = 0
	}
	for r.wr < need {
		if r.wr == len(r.buf) {
			grown := make([]byte, max(readAhead, min(need, 2*len(r.buf)))) //distlint:alloc-ok growth stops at the high-water frame size
			copy(grown, r.buf)
			r.buf = grown
		}
		n, err := r.r.Read(r.buf[r.wr:])
		r.wr += n
		if err != nil && r.wr < need {
			return err
		}
	}
	return nil
}

// Header reads and checks the next header and returns its kind. As
// io.ReadFull would, it says io.EOF between frames, io.ErrUnexpectedEOF
// inside a header, and any other failure of the source as it came.
func (r *Reader) Header() (uint8, error) {
	if err := r.fill(HeaderSize); err != nil {
		if err == io.EOF && r.wr > r.rd {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	hdr := r.buf[r.rd : r.rd+HeaderSize]
	if binary.LittleEndian.Uint16(hdr[0:2]) != r.f.Magic {
		return 0, ErrBadMagic
	}
	if hdr[2] != r.f.Version {
		return 0, fmt.Errorf("%w: got %d, speak %d", ErrVersion, hdr[2], r.f.Version)
	}
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > r.maxPayload {
		return 0, fmt.Errorf("%w: %d-byte payload", ErrFrameTooLarge, n)
	}
	r.n = int(n)
	return hdr[3], nil
}

// Payload reads and checks the rest of the frame Header began: io.EOF
// before any payload byte, io.ErrUnexpectedEOF after one. The payload
// aliases the reader's buffer until the next Header call.
func (r *Reader) Payload() ([]byte, error) {
	total := HeaderSize + r.n
	if err := r.fill(total); err != nil {
		if err == io.EOF && r.wr-r.rd > HeaderSize {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	frame := r.buf[r.rd : r.rd+total]
	r.rd += total
	if checksum(frame) != binary.LittleEndian.Uint32(frame[8:12]) {
		return nil, ErrChecksum
	}
	r.offset += int64(total)
	return frame[HeaderSize:], nil
}

// Rows decodes row blocks — rows × dim float64s in PutFloats' layout —
// into storage it pools, growing it to the high-water block.
type Rows struct {
	floats []float64
	hdrs   [][]float64
}

// Decode returns the rows × dim floats body holds, as rows that alias the
// pool until the next call, or false unless body holds exactly that many.
//
//distlint:hotpath
func (r *Rows) Decode(rows, dim uint32, body []byte) ([][]float64, bool) {
	// Divide, never multiply, and in 64 bits: rows × dim × 8 of two uint32s
	// can wrap to body's length, and in a 32-bit int so can dim × 8 — to 0.
	size, width := uint64(len(body)), uint64(dim)*8
	if width == 0 || size%width != 0 || size/width != uint64(rows) {
		return nil, false
	}
	n, d := len(body)/8, int(dim)
	if cap(r.floats) < n {
		r.floats = make([]float64, n) //distlint:alloc-ok pool growth to the high-water block size
	}
	if cap(r.hdrs) < int(rows) {
		r.hdrs = make([][]float64, rows) //distlint:alloc-ok pool growth to the high-water row count
	}
	flat := r.floats[:n]
	GetFloats(flat, body)
	hdrs := r.hdrs[:rows]
	for i := range hdrs {
		hdrs[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return hdrs, true
}
