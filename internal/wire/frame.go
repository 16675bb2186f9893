package wire

// Frame kinds and payload layouts. The codec (codec.go) is the single
// reader/writer of these layouts; this file is the spec.

// Protocol constants.
const (
	// Magic opens every frame header.
	Magic uint16 = 0x5744 // "WD" little-endian

	// Version is the protocol version this package speaks. A decoder
	// rejects frames from any other version — resume semantics depend on
	// both ends agreeing on watermark meaning, so there is no negotiation,
	// only refusal. Version 2 is internal/frame's CRC rule.
	Version uint8 = 2
)

// Kind discriminates frames.
type Kind uint8

// Frame kinds.
const (
	// KindInvalid is the zero Kind; never valid on the wire.
	KindInvalid Kind = iota

	// KindHello is the first frame on every connection, site → coordinator:
	// site id, flags, and the target tracker name.
	KindHello

	// KindHelloAck answers a hello, coordinator → site: the applied and
	// durable watermarks the site resumes from.
	KindHelloAck

	// KindRowBlock is a numbered block of float64 rows, site → coordinator.
	KindRowBlock

	// KindAck acknowledges blocks cumulatively, coordinator → site:
	// the applied and durable watermarks as of the newest block ingested.
	// One ack may cover several blocks (see CoordListener); a later ack
	// makes every earlier one redundant.
	KindAck

	// KindMsgBlock is a batch of protocol messages (Msg): numbered like a
	// row block site → coordinator, unnumbered (seq 0) on a coordinator →
	// site broadcast.
	KindMsgBlock

	// KindError carries a terminal error string, coordinator → site, and
	// closes the connection.
	KindError
)

func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindHelloAck:
		return "hello-ack"
	case KindRowBlock:
		return "row-block"
	case KindAck:
		return "ack"
	case KindMsgBlock:
		return "msg-block"
	case KindError:
		return "error"
	default:
		return "invalid"
	}
}

// Hello is the registration payload: which tracker this connection feeds
// and which site it speaks for. Flags is reserved (always 0 today) so the
// handshake can grow without a version bump.
//
// Payload: site uint32 | flags uint32 | nameLen uint16 | name bytes.
type Hello struct {
	Site    int
	Flags   uint32
	Tracker string
}

// HelloAck carries the coordinator's watermarks for the (tracker, site)
// stream at handshake; Ack carries the same pair as ingestion advances it.
//
// Payload: applied uint64 | durable uint64.
type HelloAck struct {
	Applied uint64 // every seq ≤ Applied is ingested
	Durable uint64 // every seq ≤ Durable is checkpointed
}

// Ack is the cumulative acknowledgement of applied blocks: every seq
// ≤ Applied is ingested, whether or not it had an ack of its own. Same
// payload layout as HelloAck.
type Ack struct {
	Applied uint64
	Durable uint64
}

// RowBlock is a numbered block of rows from one site. Decoded Rows are
// views into the decoder's pooled buffers, valid until its next Next call.
//
// Payload: seq uint64 | site uint32 | rows uint32 | dim uint32 |
// rows×dim float64 bits.
type RowBlock struct {
	Seq  uint64
	Site int
	Dim  int
	Rows [][]float64
}

// Msg is one protocol message in a KindMsgBlock frame: a report from a site
// half of matrix P2 (core.P2Site, run by cmd/distsite -protocol p2) to the
// coordinator half a distserve tracker hosts, or that coordinator's
// broadcast back. Kind is one of the Msg* kinds; Elem is carried for a
// heavy-hitters element report, which no daemon sends yet. A decoded Vec is
// a view into the decoder's pooled buffers, valid until its next Next call.
//
// Payload: seq uint64 | count uint32 | count records, each
// kind uint8 | site uint32 | elem uint64 | value float64 | vecLen uint32 |
// vecLen float64 bits.
type Msg struct {
	Kind  uint8
	Site  int
	Elem  uint64
	Value float64
	Vec   []float64
}

// Msg kinds.
const (
	// MsgScalar is a site's report of its unreported Frobenius mass F_j
	// (Value), site → coordinator.
	MsgScalar uint8 = iota
	// MsgRow is a shipped direction σ·v (Vec), site → coordinator.
	MsgRow
	// MsgEstimate is a broadcast of the coordinator's new F̂ (Value),
	// coordinator → site.
	MsgEstimate
)

// Frame is one decoded frame: Kind selects which field is meaningful
// (Seq and Msgs both belong to a msg-block). Slice-carrying fields
// (Block.Rows, Msgs[i].Vec) are views into the decoder's pooled buffers,
// valid until the next Next call.
type Frame struct {
	Kind     Kind
	Hello    Hello
	HelloAck HelloAck
	Ack      Ack
	Block    RowBlock
	Seq      uint64
	Msgs     []Msg
	ErrMsg   string
}

// Fixed payload offsets and sizes.
const (
	rowBlockHeadSize = 8 + 4 + 4 + 4 // seq, site, rows, dim
	ackSize          = 8 + 8
	msgBlockHeadSize = 8 + 4             // seq, count
	msgHeadSize      = 1 + 4 + 8 + 8 + 4 // kind, site, elem, value, vecLen
)
