package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// The frame header's size and payload bound are internal/frame's; the
// tests name them as wire's own.
const (
	HeaderSize = frame.HeaderSize
	MaxPayload = frame.MaxPayload
)

func randRows(rng *rand.Rand, n, dim int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

// TestCodecRoundTrip drives every frame kind through an encode/decode
// cycle and requires bit-identical payloads.
func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var stats Stats
	enc := NewEncoder(&buf, &stats)
	rng := rand.New(rand.NewSource(7))
	rows := randRows(rng, 17, 5)

	if err := enc.Hello(Hello{Site: 3, Tracker: "sensor-grid"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.HelloAck(HelloAck{Applied: 42, Durable: 17}); err != nil {
		t.Fatal(err)
	}
	if err := enc.RowBlock(9, 3, 5, rows); err != nil {
		t.Fatal(err)
	}
	if err := enc.Ack(Ack{Applied: 9, Durable: 5}); err != nil {
		t.Fatal(err)
	}
	msgs := []Msg{
		{Kind: 0, Site: 1, Value: 3.25},
		{Kind: 2, Site: 0, Vec: []float64{1, -2.5, math.Pi}},
		{Kind: 1, Site: 4, Elem: 77, Value: -0.125},
	}
	if err := enc.MsgBlock(12, msgs); err != nil {
		t.Fatal(err)
	}
	if err := enc.Error("tracker not found"); err != nil {
		t.Fatal(err)
	}

	dec := NewDecoder(&buf, &stats)
	f, err := dec.Next()
	if err != nil || f.Kind != KindHello {
		t.Fatalf("hello: %v %v", f, err)
	}
	if f.Hello.Site != 3 || f.Hello.Tracker != "sensor-grid" {
		t.Fatalf("hello payload %+v", f.Hello)
	}
	f, err = dec.Next()
	if err != nil || f.Kind != KindHelloAck || f.HelloAck != (HelloAck{Applied: 42, Durable: 17}) {
		t.Fatalf("hello-ack: %+v %v", f, err)
	}
	f, err = dec.Next()
	if err != nil || f.Kind != KindRowBlock {
		t.Fatalf("row-block: %v", err)
	}
	if f.Block.Seq != 9 || f.Block.Site != 3 || f.Block.Dim != 5 || len(f.Block.Rows) != len(rows) {
		t.Fatalf("row-block header %+v", f.Block)
	}
	for i, row := range rows {
		for j, v := range row {
			if got := f.Block.Rows[i][j]; math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("row %d[%d]: %v != %v", i, j, got, v)
			}
		}
	}
	f, err = dec.Next()
	if err != nil || f.Kind != KindAck || f.Ack != (Ack{Applied: 9, Durable: 5}) {
		t.Fatalf("ack: %+v %v", f, err)
	}
	f, err = dec.Next()
	if err != nil || f.Kind != KindMsgBlock || f.Seq != 12 || len(f.Msgs) != len(msgs) {
		t.Fatalf("msg-block: %+v %v", f, err)
	}
	for i, want := range msgs {
		got := f.Msgs[i]
		if got.Kind != want.Kind || got.Site != want.Site || got.Elem != want.Elem ||
			math.Float64bits(got.Value) != math.Float64bits(want.Value) || len(got.Vec) != len(want.Vec) {
			t.Fatalf("msg %d: %+v != %+v", i, got, want)
		}
		for j, v := range want.Vec {
			if math.Float64bits(got.Vec[j]) != math.Float64bits(v) {
				t.Fatalf("msg %d vec[%d]: %v != %v", i, j, got.Vec[j], v)
			}
		}
	}
	f, err = dec.Next()
	if err != nil || f.Kind != KindError || f.ErrMsg != "tracker not found" {
		t.Fatalf("error frame: %+v %v", f, err)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}

	if stats.FramesOut.Load() != 6 || stats.FramesIn.Load() != 6 {
		t.Fatalf("frame counts %d out / %d in", stats.FramesOut.Load(), stats.FramesIn.Load())
	}
	if stats.BytesOut.Load() != stats.BytesIn.Load() || stats.BytesOut.Load() == 0 {
		t.Fatalf("byte counts %d out / %d in", stats.BytesOut.Load(), stats.BytesIn.Load())
	}
}

// TestRowBlockFrameLayout pins the row-block frame byte for byte against
// the layout frame.go specifies, written out float by float: what
// Encoder.RowBlock writes and what SiteConn retains (rowBlockFrame into a
// recycled, dirty, larger buffer) are both exactly that.
func TestRowBlockFrameLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randRows(rng, 8, 6)
	want := make([]byte, HeaderSize+rowBlockHeadSize)
	p := want[HeaderSize:]
	binary.LittleEndian.PutUint64(p[0:8], 5)
	binary.LittleEndian.PutUint32(p[8:12], 2)
	binary.LittleEndian.PutUint32(p[12:16], 8)
	binary.LittleEndian.PutUint32(p[16:20], 6)
	for _, r := range rows {
		for _, v := range r {
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
		}
	}
	binary.LittleEndian.PutUint16(want[0:2], Magic)
	want[2], want[3] = Version, uint8(KindRowBlock)
	binary.LittleEndian.PutUint32(want[4:8], uint32(len(want)-HeaderSize))
	reCRC(want)

	var a bytes.Buffer
	if err := NewEncoder(&a, nil).RowBlock(5, 2, 6, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), want) {
		t.Fatal("Encoder.RowBlock departs from the specified layout")
	}
	dirty := bytes.Repeat([]byte{0xA5}, 2*len(want))
	frame, err := rowBlockFrame(dirty[:7], 5, 2, 6, rows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Fatal("a frame built in a recycled buffer departs from the specified layout")
	}
	if &frame[0] != &dirty[0] {
		t.Fatal("rowBlockFrame reallocated a buffer that was large enough")
	}
}

// TestCodecCorruption: bit flips in the payload are caught by the CRC,
// wrong magic and versions are refused, and truncated frames error.
func TestCodecCorruption(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, nil)
	if err := enc.RowBlock(1, 0, 2, [][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), buf.Bytes()...)

	flipped := append([]byte(nil), frame...)
	flipped[HeaderSize+10] ^= 0x40
	if _, err := NewDecoder(bytes.NewReader(flipped), nil).Next(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped payload bit: %v", err)
	}

	badMagic := append([]byte(nil), frame...)
	badMagic[0] = 'X'
	if _, err := NewDecoder(bytes.NewReader(badMagic), nil).Next(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}

	badVer := append([]byte(nil), frame...)
	badVer[2] = 99
	if _, err := NewDecoder(bytes.NewReader(badVer), nil).Next(); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: %v", err)
	}

	if _, err := NewDecoder(bytes.NewReader(frame[:len(frame)-3]), nil).Next(); err == nil {
		t.Fatal("truncated frame decoded")
	}

	huge := append([]byte(nil), frame...)
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0xff
	if _, err := NewDecoder(bytes.NewReader(huge), nil).Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
}

// TestCodecMalformedPayloads: structurally invalid payloads behind valid
// CRCs are rejected, not mis-decoded.
func TestCodecMalformedPayloads(t *testing.T) {
	// A row-block whose rows×dim disagrees with the payload length.
	var buf bytes.Buffer
	enc := NewEncoder(&buf, nil)
	if err := enc.RowBlock(1, 0, 2, [][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	// Claim 3 rows in the header (offset 12..16 of the payload), re-CRC.
	p := frame[HeaderSize:]
	p[12] = 3
	reCRC(frame)
	if _, err := NewDecoder(bytes.NewReader(frame), nil).Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("row count lie: %v", err)
	}

	// A row-block whose rows × dim × 8 wraps to the (empty) body it has:
	// 2³¹ × 2³⁰ × 8 = 2⁶⁴. The multiplying check let it through to a make
	// that panics — a 32-byte frame from any peer took the process down.
	// 2²⁹ × 2²⁹ does not wrap in 64 bits, but in a 32-bit int dim × 8 is 0
	// and the dividing check divided by it. The check is frame.Rows', so
	// this holds the WAL's reader to it too.
	for _, shape := range [][2]uint32{{1 << 31, 1 << 30}, {1 << 29, 1 << 29}} {
		binary.LittleEndian.PutUint32(p[12:16], shape[0])
		binary.LittleEndian.PutUint32(p[16:20], shape[1])
		wrapped := frame[:HeaderSize+rowBlockHeadSize]
		binary.LittleEndian.PutUint32(wrapped[4:8], rowBlockHeadSize)
		reCRC(wrapped)
		if _, err := NewDecoder(bytes.NewReader(wrapped), nil).Next(); !errors.Is(err, ErrMalformed) {
			t.Fatalf("row-block shape %d × %d that wraps: %v", shape[0], shape[1], err)
		}
	}

	// A hello whose name length overruns the payload.
	buf.Reset()
	if err := enc.Hello(Hello{Site: 0, Tracker: "t"}); err != nil {
		t.Fatal(err)
	}
	frame = append([]byte(nil), buf.Bytes()...)
	frame[HeaderSize+8] = 200
	reCRC(frame)
	if _, err := NewDecoder(bytes.NewReader(frame), nil).Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("hello name overrun: %v", err)
	}
}

// reCRC recomputes a staged frame's checksum after test tampering: the
// CRC of version, kind, length and payload.
func reCRC(frame []byte) {
	crc := crc32.Update(crc32.ChecksumIEEE(frame[2:8]), crc32.IEEETable, frame[HeaderSize:])
	binary.LittleEndian.PutUint32(frame[8:12], crc)
}

// TestDecoderSteadyStateAllocs: after the pools warm up, decoding row
// blocks allocates nothing.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := randRows(rng, 64, 16)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, nil)
	for i := 0; i < 12; i++ {
		if err := enc.RowBlock(uint64(i+1), 0, 16, rows); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	dec := NewDecoder(bytes.NewReader(stream[:2*len(stream)/12]), nil)
	for {
		if _, err := dec.Next(); err != nil {
			break
		}
	}
	rest := bytes.NewReader(stream[2*len(stream)/12:])
	dec.fr = frame.NewReader(format, rest)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := dec.Next(); err != nil {
			rest.Seek(0, io.SeekStart)
			if _, err := dec.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("decoder allocates %.1f per block in steady state", allocs)
	}
}

// TestEncoderSteadyStateAllocs: the encoder's staging buffer pools too.
func TestEncoderSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows := randRows(rng, 64, 16)
	enc := NewEncoder(io.Discard, nil)
	if err := enc.RowBlock(1, 0, 16, rows); err != nil {
		t.Fatal(err)
	}
	seq := uint64(1)
	allocs := testing.AllocsPerRun(10, func() {
		seq++
		if err := enc.RowBlock(seq, 0, 16, rows); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encoder allocates %.1f per block in steady state", allocs)
	}
}
