package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Record framing follows the wire protocol's discipline (internal/wire):
// a fixed 12-byte header — magic(2) version(1) kind(1) length(4) crc(4),
// all little-endian — followed by the payload. The CRC-32 IEEE covers
// version, kind, length, AND the payload (the magic is a plain sync
// marker), so a single flipped bit anywhere past the magic is always
// caught — a corrupted kind byte can never reinterpret a record. Row
// payloads carry float64 bits verbatim, so a replayed block is
// numerically identical to the ingested one.

// Framing constants.
const (
	// Magic opens every record header ("WL" little-endian).
	Magic uint16 = 0x4C57

	// Version is the record-format version; any other version is
	// corruption, not negotiation.
	Version uint8 = 1

	// headerSize is magic(2) + version(1) + kind(1) + length(4) + crc(4).
	headerSize = 12

	// MaxPayload bounds one record's payload — matches the wire frame
	// bound, comfortably above the service's HTTP body limit.
	MaxPayload = 64 << 20
)

// Kind discriminates log records.
type Kind uint8

// Record kinds.
const (
	// KindInvalid is the zero Kind; never valid in a log.
	KindInvalid Kind = iota

	// KindCreate records a tracker creation: name plus an opaque spec
	// blob the owner replays into a fresh tracker.
	KindCreate

	// KindDelete records a tracker deletion.
	KindDelete

	// KindRows records one ingested batch of float64 matrix rows.
	KindRows

	// KindItems records one ingested batch of weighted items.
	KindItems
)

func (k Kind) String() string {
	switch k {
	case KindCreate:
		return "create"
	case KindDelete:
		return "delete"
	case KindRows:
		return "rows"
	case KindItems:
		return "items"
	default:
		return "invalid"
	}
}

// AssignSite is the Site value recording a batch routed through the
// session's site assigner rather than an explicit site. Replaying the
// batch re-routes it — restored sessions replay assigner draws
// deterministically, so the re-dealt sites match the original run.
const AssignSite = -1

// assignSiteWire is AssignSite's on-disk encoding.
const assignSiteWire = math.MaxUint32

// Item is one weighted stream element (the wire form of the facade's
// WeightedItem, defined here so the log does not import it).
type Item struct {
	Elem   uint64
	Weight float64
}

// Record is one log entry. Kind selects which payload fields are
// meaningful; LSN is assigned by Append and recovered on replay. Records
// handed to a replay callback borrow the reader's scratch buffers: Rows,
// Items, and Spec are valid only during the callback.
type Record struct {
	LSN     uint64
	Kind    Kind
	Tracker string

	// Spec is the opaque tracker-creation blob (KindCreate).
	Spec []byte

	// Site is the explicit origin site, or AssignSite (KindRows, KindItems).
	Site int

	// Dim and Rows carry a row batch (KindRows). Every row has Dim entries.
	Dim  int
	Rows [][]float64

	// Items carries an item batch (KindItems).
	Items []Item
}

// errMalformed reports a structurally invalid record; recovery treats it
// like a bad CRC (torn tail in the final segment, corruption earlier).
var errMalformed = errors.New("wal: malformed record")

// payloadSize computes the record's payload length, validating the
// encodable ranges.
func payloadSize(rec *Record) (int, error) {
	if len(rec.Tracker) > math.MaxUint16 {
		return 0, fmt.Errorf("%w: tracker name of %d bytes", errMalformed, len(rec.Tracker))
	}
	n := 8 + 2 + len(rec.Tracker) // lsn + nameLen + name
	switch rec.Kind {
	case KindCreate:
		n += 4 + len(rec.Spec)
	case KindDelete:
	case KindRows:
		if rec.Dim <= 0 {
			return 0, fmt.Errorf("%w: rows record with dim %d", errMalformed, rec.Dim)
		}
		n += 4 + 4 + 4 + len(rec.Rows)*rec.Dim*8
	case KindItems:
		n += 4 + 4 + len(rec.Items)*16
	default:
		return 0, fmt.Errorf("%w: kind %d", errMalformed, rec.Kind)
	}
	if rec.Site != AssignSite && (rec.Site < 0 || rec.Site >= assignSiteWire) {
		return 0, fmt.Errorf("%w: site %d outside uint32", errMalformed, rec.Site)
	}
	if n > MaxPayload {
		return 0, fmt.Errorf("wal: %v record payload of %d bytes exceeds %d", rec.Kind, n, MaxPayload)
	}
	return n, nil
}

// appendRecord encodes rec (header + payload) onto buf and returns the
// extended buffer.
func appendRecord(buf []byte, rec *Record) ([]byte, error) {
	n, err := payloadSize(rec)
	if err != nil {
		return buf, err
	}
	base := len(buf)
	buf = append(buf, make([]byte, headerSize+n)...)
	p := buf[base+headerSize:]

	binary.LittleEndian.PutUint64(p[0:8], rec.LSN)
	binary.LittleEndian.PutUint16(p[8:10], uint16(len(rec.Tracker)))
	off := 10 + copy(p[10:], rec.Tracker)
	site := uint32(assignSiteWire)
	if rec.Site != AssignSite {
		site = uint32(rec.Site)
	}
	switch rec.Kind {
	case KindCreate:
		binary.LittleEndian.PutUint32(p[off:off+4], uint32(len(rec.Spec)))
		off += 4
		off += copy(p[off:], rec.Spec)
	case KindRows:
		binary.LittleEndian.PutUint32(p[off:off+4], site)
		binary.LittleEndian.PutUint32(p[off+4:off+8], uint32(len(rec.Rows)))
		binary.LittleEndian.PutUint32(p[off+8:off+12], uint32(rec.Dim))
		off += 12
		for _, row := range rec.Rows {
			if len(row) != rec.Dim {
				return buf[:base], fmt.Errorf("%w: row of %d entries in dim-%d record", errMalformed, len(row), rec.Dim)
			}
			for _, v := range row {
				binary.LittleEndian.PutUint64(p[off:off+8], math.Float64bits(v))
				off += 8
			}
		}
	case KindItems:
		binary.LittleEndian.PutUint32(p[off:off+4], site)
		binary.LittleEndian.PutUint32(p[off+4:off+8], uint32(len(rec.Items)))
		off += 8
		for _, it := range rec.Items {
			binary.LittleEndian.PutUint64(p[off:off+8], it.Elem)
			binary.LittleEndian.PutUint64(p[off+8:off+16], math.Float64bits(it.Weight))
			off += 16
		}
	}

	h := buf[base:]
	binary.LittleEndian.PutUint16(h[0:2], Magic)
	h[2] = Version
	h[3] = uint8(rec.Kind)
	binary.LittleEndian.PutUint32(h[4:8], uint32(n))
	binary.LittleEndian.PutUint32(h[8:12], recordCRC(h[2:8], p))
	return buf, nil
}

// recordCRC checksums a record: header bytes past the magic (version,
// kind, length) followed by the payload.
func recordCRC(hdr, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, payload)
}

// recordReader decodes records from an in-memory segment image into
// pooled scratch; each decoded Record's slices are valid until the next
// call.
type recordReader struct {
	floats []float64
	rows   [][]float64
	items  []Item
	rec    Record
}

// next decodes the record starting at data[off], returning the record
// and the offset just past it. Any structural failure — short header or
// payload, bad magic/version/kind, CRC mismatch, malformed payload —
// returns an error; the caller decides whether that is a torn tail or
// corruption.
func (r *recordReader) next(data []byte, off int) (*Record, int, error) {
	if len(data)-off < headerSize {
		return nil, off, fmt.Errorf("%w: %d-byte tail", errMalformed, len(data)-off)
	}
	h := data[off : off+headerSize]
	if binary.LittleEndian.Uint16(h[0:2]) != Magic {
		return nil, off, fmt.Errorf("%w: bad magic", errMalformed)
	}
	if h[2] != Version {
		return nil, off, fmt.Errorf("%w: version %d", errMalformed, h[2])
	}
	kind := Kind(h[3])
	n := int(binary.LittleEndian.Uint32(h[4:8]))
	if n > MaxPayload {
		return nil, off, fmt.Errorf("%w: %d-byte payload", errMalformed, n)
	}
	if len(data)-off-headerSize < n {
		return nil, off, fmt.Errorf("%w: truncated payload", errMalformed)
	}
	p := data[off+headerSize : off+headerSize+n]
	if recordCRC(h[2:8], p) != binary.LittleEndian.Uint32(h[8:12]) {
		return nil, off, fmt.Errorf("%w: checksum mismatch", errMalformed)
	}
	if n < 10 {
		return nil, off, fmt.Errorf("%w: %d-byte payload", errMalformed, n)
	}

	r.rec = Record{
		Kind: kind,
		LSN:  binary.LittleEndian.Uint64(p[0:8]),
	}
	nameLen := int(binary.LittleEndian.Uint16(p[8:10]))
	if 10+nameLen > n {
		return nil, off, fmt.Errorf("%w: name length %d", errMalformed, nameLen)
	}
	r.rec.Tracker = string(p[10 : 10+nameLen])
	body := p[10+nameLen:]

	switch kind {
	case KindCreate:
		if len(body) < 4 {
			return nil, off, fmt.Errorf("%w: create body of %d bytes", errMalformed, len(body))
		}
		specLen := int(binary.LittleEndian.Uint32(body[0:4]))
		if len(body) != 4+specLen {
			return nil, off, fmt.Errorf("%w: spec length %d in %d-byte body", errMalformed, specLen, len(body))
		}
		r.rec.Spec = body[4:]
	case KindDelete:
		if len(body) != 0 {
			return nil, off, fmt.Errorf("%w: delete body of %d bytes", errMalformed, len(body))
		}
	case KindRows:
		if len(body) < 12 {
			return nil, off, fmt.Errorf("%w: rows body of %d bytes", errMalformed, len(body))
		}
		rows := int(binary.LittleEndian.Uint32(body[4:8]))
		dim := int(binary.LittleEndian.Uint32(body[8:12]))
		// Divide, never multiply: rows × dim × 8 of two on-disk uint32s can
		// wrap to the body's length (as in wire.Decoder.decodeRowBlock).
		if payload := len(body) - 12; dim <= 0 || rows < 0 || payload%(dim*8) != 0 || payload/(dim*8) != rows {
			return nil, off, fmt.Errorf("%w: rows %d×%d in %d-byte body", errMalformed, rows, dim, len(body))
		}
		r.rec.Site = decodeSite(binary.LittleEndian.Uint32(body[0:4]))
		r.rec.Dim = dim
		total := rows * dim
		if cap(r.floats) < total {
			r.floats = make([]float64, total)
		}
		flat := r.floats[:total]
		bo := 12
		for i := range flat {
			flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[bo : bo+8]))
			bo += 8
		}
		if cap(r.rows) < rows {
			r.rows = make([][]float64, rows)
		}
		hdrs := r.rows[:rows]
		for i := range hdrs {
			hdrs[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
		}
		r.rec.Rows = hdrs
	case KindItems:
		if len(body) < 8 {
			return nil, off, fmt.Errorf("%w: items body of %d bytes", errMalformed, len(body))
		}
		count := int(binary.LittleEndian.Uint32(body[4:8]))
		if count < 0 || len(body) != 8+count*16 {
			return nil, off, fmt.Errorf("%w: %d items in %d-byte body", errMalformed, count, len(body))
		}
		r.rec.Site = decodeSite(binary.LittleEndian.Uint32(body[0:4]))
		if cap(r.items) < count {
			r.items = make([]Item, count)
		}
		items := r.items[:count]
		bo := 8
		for i := range items {
			items[i] = Item{
				Elem:   binary.LittleEndian.Uint64(body[bo : bo+8]),
				Weight: math.Float64frombits(binary.LittleEndian.Uint64(body[bo+8 : bo+16])),
			}
			bo += 16
		}
		r.rec.Items = items
	default:
		return nil, off, fmt.Errorf("%w: kind %d", errMalformed, uint8(kind))
	}
	return &r.rec, off + headerSize + n, nil
}

func decodeSite(v uint32) int {
	if v == assignSiteWire {
		return AssignSite
	}
	return int(v)
}
