// Package wire is the binary transport layer for multi-node deployments:
// the length-prefixed frame codec plus the persistent-connection pair —
// SiteConn (site side) and CoordListener (coordinator side) — that
// cmd/distsite and cmd/distserve speak to each other.
//
// # Frames
//
// Every frame is internal/frame's 12-byte header followed by a payload:
//
//	magic   uint16  0x5744 ("WD")
//	version uint8   2
//	kind    uint8   hello / hello-ack / row-block / ack / msg-block / error
//	length  uint32  payload bytes
//	crc     uint32  IEEE CRC-32 of version, kind, length and payload
//
// All integers are little-endian; a version-1 peer, whose CRC covered the
// payload alone, is refused with ErrVersion. Row-block payloads carry
// float64 rows bit-for-bit (math.Float64bits), so a decoded block is
// numerically identical to the encoded one. The decoder reads ahead through
// a frame.Reader, which checks each frame where it landed, and copies
// floats out in bulk into pooled storage it returns views of, so the
// steady-state decode path allocates nothing and costs a read per buffer,
// not per frame (//distlint:hotpath on both block codecs).
//
// # Sessions, backpressure, and resume
//
// A SiteConn dials the coordinator, registers with a Hello frame naming
// its tracker and site id, and streams numbered row blocks: each is
// encoded once into a sealed frame, and the frames queued at any moment go
// out in one vectored write. The coordinator acks applied blocks with two
// cumulative watermarks — not per block: an ack is written when the
// connection has to be read for more input (so an idle stream is always
// fully acked) and at the latest every 8 applied blocks:
//
//   - applied: every block with seq ≤ applied has been ingested into
//     tracker state. The site's in-flight window (SendBlock backpressure)
//     is bounded against this watermark, and sized by the round trips of
//     the acks that move it: no more blocks than keep the coordinator
//     busy, up to SiteConfig.Window.
//   - durable: every block with seq ≤ durable is captured by a
//     coordinator checkpoint. The site retains blocks above this
//     watermark and retransmits them after a coordinator restart, giving
//     at-least-once delivery with exactly-once application: the
//     coordinator drops any seq at or below its applied watermark, and a
//     restored coordinator resumes from the checkpoint the durable
//     watermark describes.
//
// On a connection failure the SiteConn reconnects with exponential
// backoff, re-handshakes, and retransmits every retained block above the
// coordinator's applied watermark. Per-site blocks are applied in
// sequence order; a gap (seq beyond applied+1) is a protocol error that
// drops the connection, and the retransmit handshake heals it.
//
// Msg-blocks carry matrix P2's protocol messages when the sites run their
// own half (cmd/distsite -protocol p2): numbered site → coordinator under
// the same window and resume as row blocks, and unnumbered (seq 0) from
// CoordListener.Broadcast back to the sites.
package wire

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/frame"
)

// Codec and session errors, matched with errors.Is.
var (
	// ErrBadMagic reports a frame header that does not start with the
	// protocol magic — the peer is not speaking this protocol.
	ErrBadMagic = frame.ErrBadMagic

	// ErrVersion reports a frame from an incompatible protocol version.
	ErrVersion = frame.ErrVersion

	// ErrChecksum reports a frame whose CRC does not match its bytes.
	ErrChecksum = frame.ErrChecksum

	// ErrFrameTooLarge reports a header announcing a payload beyond
	// frame.MaxPayload.
	ErrFrameTooLarge = frame.ErrFrameTooLarge

	// ErrMalformed reports a structurally invalid payload.
	ErrMalformed = errors.New("wire: malformed payload")

	// ErrClosed reports an operation on a closed connection or listener.
	ErrClosed = errors.New("wire: closed")

	// ErrRejected wraps a coordinator error frame: the remote refused the
	// session (unknown tracker, bad site) during the handshake.
	ErrRejected = errors.New("wire: rejected by coordinator")
)

// Stats counts frames and payload-carrying bytes through one endpoint's
// encoders and decoders, plus the SiteConn session counters. All fields
// are atomic; read them at any time.
type Stats struct {
	FramesOut atomic.Int64 // frames encoded
	BytesOut  atomic.Int64 // bytes written, headers included
	FramesIn  atomic.Int64 // frames decoded
	BytesIn   atomic.Int64 // bytes read, headers included

	Connects    atomic.Int64 // successful dial+handshake rounds
	DialErrors  atomic.Int64 // failed dial/handshake attempts
	Retransmits atomic.Int64 // blocks re-sent after a reconnect
	Window      atomic.Int64 // a SiteConn's current in-flight window, in blocks (a gauge)
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		FramesOut:   s.FramesOut.Load(),
		BytesOut:    s.BytesOut.Load(),
		FramesIn:    s.FramesIn.Load(),
		BytesIn:     s.BytesIn.Load(),
		Connects:    s.Connects.Load(),
		DialErrors:  s.DialErrors.Load(),
		Retransmits: s.Retransmits.Load(),
		Window:      s.Window.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	FramesOut   int64 `json:"frames_out"`
	BytesOut    int64 `json:"bytes_out"`
	FramesIn    int64 `json:"frames_in"`
	BytesIn     int64 `json:"bytes_in"`
	Connects    int64 `json:"connects"`
	DialErrors  int64 `json:"dial_errors"`
	Retransmits int64 `json:"retransmits"`
	Window      int64 `json:"window"`
}

func malformedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}
