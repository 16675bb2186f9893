package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/frame"
	"repro/internal/gen"
)

// Records are internal/frame frames, whose CRC covers every byte past the
// magic. Row payloads carry float64 bits verbatim, so a replayed block is
// numerically identical to the ingested one.

// Framing constants.
const (
	// Magic opens every record header ("WL" little-endian).
	Magic uint16 = 0x4C57

	// Version is the record-format version; any other version is
	// corruption, not negotiation.
	Version uint8 = 1
)

var format = frame.Format{Magic: Magic, Version: Version}

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

// Item is one weighted stream element: the generator's type, which the
// facade's WeightedItem also aliases, so a batch is logged and replayed
// without a copy.
type Item = gen.WeightedItem

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

// malformed reports whether err is about the bytes — a short record, a
// header or CRC frame refuses, a payload that does not parse — and not a
// failed read: only the first can be a torn tail or corruption.
func malformed(err error) bool {
	for _, e := range [...]error{io.ErrUnexpectedEOF, errMalformed, frame.ErrBadMagic, frame.ErrVersion, frame.ErrChecksum, frame.ErrFrameTooLarge} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// appendRecord encodes rec (header + payload) onto buf and returns the
// extended buffer; on error, buf as it was.
func appendRecord(buf []byte, rec *Record) ([]byte, error) {
	if len(rec.Tracker) > math.MaxUint16 {
		return buf, fmt.Errorf("%w: tracker name of %d bytes", errMalformed, len(rec.Tracker))
	}
	site := uint32(assignSiteWire)
	if rec.Site != AssignSite {
		if rec.Site < 0 || uint64(rec.Site) >= assignSiteWire {
			return buf, fmt.Errorf("%w: site %d outside uint32", errMalformed, rec.Site)
		}
		site = uint32(rec.Site)
	}
	base := len(buf)
	le := binary.LittleEndian
	buf = append(buf, make([]byte, frame.HeaderSize)...)
	buf = le.AppendUint64(buf, rec.LSN)
	buf = le.AppendUint16(buf, uint16(len(rec.Tracker)))
	buf = append(buf, rec.Tracker...)
	switch rec.Kind {
	case KindCreate:
		buf = le.AppendUint32(buf, uint32(len(rec.Spec)))
		buf = append(buf, rec.Spec...)
	case KindDelete:
	case KindRows:
		if rec.Dim <= 0 {
			return buf[:base], fmt.Errorf("%w: rows record with dim %d", errMalformed, rec.Dim)
		}
		buf = le.AppendUint32(buf, site)
		buf = le.AppendUint32(buf, uint32(len(rec.Rows)))
		buf = le.AppendUint32(buf, uint32(rec.Dim))
		for _, row := range rec.Rows {
			if len(row) != rec.Dim {
				return buf[:base], fmt.Errorf("%w: row of %d entries in dim-%d record", errMalformed, len(row), rec.Dim)
			}
			off := len(buf)
			buf = append(buf, make([]byte, len(row)*8)...)
			frame.PutFloats(buf[off:], row)
		}
	case KindItems:
		buf = le.AppendUint32(buf, site)
		buf = le.AppendUint32(buf, uint32(len(rec.Items)))
		for _, it := range rec.Items {
			buf = le.AppendUint64(buf, it.Elem)
			buf = le.AppendUint64(buf, math.Float64bits(it.Weight))
		}
	default:
		return buf[:base], fmt.Errorf("%w: kind %d", errMalformed, rec.Kind)
	}
	if n := len(buf) - base - frame.HeaderSize; n > frame.MaxPayload {
		return buf[:base], fmt.Errorf("wal: %v record payload of %d bytes exceeds %d", rec.Kind, n, frame.MaxPayload)
	}
	format.Seal(uint8(rec.Kind), buf[base:])
	return buf, nil
}

// recordReader decodes records through a frame.Reader into pooled
// scratch; each decoded Record's slices are valid until the next call.
type recordReader struct {
	fr    *frame.Reader
	rows  frame.Rows
	items []Item
	rec   Record
}

// next decodes the next record: io.EOF between records, and otherwise an
// error for which malformed holds, or the source's failed Read.
func (r *recordReader) next() (*Record, error) {
	kind, err := r.fr.Header()
	if err != nil {
		return nil, err
	}
	p, err := r.fr.Payload()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // cut off right behind its header
	}
	if err != nil {
		return nil, err
	}
	if len(p) < 10 {
		return nil, fmt.Errorf("%w: %d-byte payload", errMalformed, len(p))
	}

	r.rec = Record{
		Kind: Kind(kind),
		LSN:  binary.LittleEndian.Uint64(p[0:8]),
	}
	nameLen := int(binary.LittleEndian.Uint16(p[8:10]))
	if 10+nameLen > len(p) {
		return nil, fmt.Errorf("%w: name length %d", errMalformed, nameLen)
	}
	r.rec.Tracker = string(p[10 : 10+nameLen])
	body := p[10+nameLen:]

	switch Kind(kind) {
	case KindCreate:
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: create body of %d bytes", errMalformed, len(body))
		}
		specLen := int(binary.LittleEndian.Uint32(body[0:4]))
		if len(body) != 4+specLen {
			return nil, fmt.Errorf("%w: spec length %d in %d-byte body", errMalformed, specLen, len(body))
		}
		r.rec.Spec = body[4:]
	case KindDelete:
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: delete body of %d bytes", errMalformed, len(body))
		}
	case KindRows:
		if len(body) < 12 {
			return nil, fmt.Errorf("%w: rows body of %d bytes", errMalformed, len(body))
		}
		rows := binary.LittleEndian.Uint32(body[4:8])
		dim := binary.LittleEndian.Uint32(body[8:12])
		hdrs, ok := r.rows.Decode(rows, dim, body[12:])
		if !ok {
			return nil, fmt.Errorf("%w: rows %d×%d in %d-byte body", errMalformed, rows, dim, len(body))
		}
		r.rec.Site = decodeSite(binary.LittleEndian.Uint32(body[0:4]))
		r.rec.Dim = int(dim)
		r.rec.Rows = hdrs
	case KindItems:
		if len(body) < 8 {
			return nil, fmt.Errorf("%w: items body of %d bytes", errMalformed, len(body))
		}
		// Divided, as the rows check is: count × 16 wraps a 32-bit int.
		count := int(binary.LittleEndian.Uint32(body[4:8]))
		if count < 0 || (len(body)-8)%16 != 0 || (len(body)-8)/16 != count {
			return nil, fmt.Errorf("%w: %d items in %d-byte body", errMalformed, count, len(body))
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
		return nil, fmt.Errorf("%w: kind %d", errMalformed, kind)
	}
	return &r.rec, nil
}

func decodeSite(v uint32) int {
	if v == assignSiteWire {
		return AssignSite
	}
	return int(v)
}
