package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/gen"
	"repro/internal/service"
)

const (
	lanes = 2  // closed-loop client lanes, one goroutine and one connection each
	sites = 10 // m, the paper's site count; lane l owns sites l, l+2, ...
	dim   = 44 // the paper's PAMAP shape

	matrixEps = 0.1
	itemEps   = 0.01
	hhPhi     = 0.05
)

// poolBlocks is how many distinct pre-encoded blocks a run cycles
// through; the smoke mode shrinks it so set-up stays under a second.
const (
	poolBlocksFull  = 256
	poolBlocksSmoke = 32
)

type trackerDef struct {
	name string
	spec service.Spec
}

// workload is one traffic mix: the server flags, the trackers, and the
// shape of a lane's op script. The sizes are constants calibrated once on
// the reference sandbox; they are part of the benchmark, not tuning knobs.
type workload struct {
	workloadSpec
	wire        bool // lanes stream blocks through wire.SiteConn
	durable     bool // data dir, WAL and hibernation on
	maxResident int
	items       bool // item batches (hh/quantile) instead of row batches
	trackers    []trackerDef
	batch       int // rows or items per ingest op

	// A lane's script is a repetition of periods, each the same mix of
	// ops; periodsPerSec is how many a lane completes per second on the
	// reference sandbox, which turns --seconds into a fixed amount of work.
	periodsPerSec float64
	period        func(lane, p int, next func() int, draw func() uint16) []op

	tracePeriods int // periods per lane the traced pass replays
}

const (
	opIngest  = iota // send pool block `block` to tracker `tracker`
	opQuery          // GET …/query, variant selects the parameters
	opBarrier        // wire only: Drain, the ack of the blocks before it
)

// Query variants.
const (
	qPlain = iota // matrix: count, frobenius, trace
	qGram         // matrix: ?gram=1
	qItems        // hh: ?phi=0.05; quantile: ?phi=0.5&phi=0.99
)

type op struct {
	kind    uint8
	variant uint8
	tracker uint16
	block   uint16
}

func matrixSpec(shards int) service.Spec {
	return service.Spec{Kind: service.KindMatrix, Protocol: "p2", Fast: true,
		Sites: sites, Epsilon: matrixEps, Dim: dim, Shards: shards}
}

func tenancyTrackers() []trackerDef {
	var out []trackerDef
	for i := 0; i < 24; i++ {
		out = append(out, trackerDef{fmt.Sprintf("hh%02d", i),
			service.Spec{Kind: service.KindHH, Protocol: "p2", Sites: sites, Epsilon: itemEps}})
		out = append(out, trackerDef{fmt.Sprintf("qt%02d", i),
			service.Spec{Kind: service.KindQuantile, Protocol: "qdigest", Sites: sites, Epsilon: itemEps, Bits: itemBits}})
	}
	return out
}

// itemBits is the quantile universe exponent; pool item values stay below
// 2^itemBits.
const itemBits = 16

// durable-tenancy's tracker draw. The first tenancyHot of the 48 trackers
// take all draws but one in tenancyColdEvery, in Zipf(tenancyZipf)
// proportion; that one goes to the lane's tenancyLukewarm next trackers in
// turn; the rest are created and never touched — the idle tenants whose
// stubs hold the WAL's compaction floor. With -max-resident 12 the hot ten
// never leave memory, the two slots left over hold the two lukewarm
// trackers seen last, and every draw of a lukewarm one finds it hibernated:
// one fault-in and one eviction per tenancyColdEvery ops, the same count on
// every seed.
//
// The shape is forced by what a fault-in costs. distserve's default WAL
// segment is 16 MiB, nothing compacts while a stub holds the floor, and a
// fault-in allocates, reads and decodes every segment from its tracker's
// last record on: 18 ms in the median here, against 0.2 ms for a batch on a
// resident tracker. ISSUE 12's Zipf(1.1) over all 48 faults on a third of
// its ops, so 85 % of the server's time went into streaming the log through
// memory — the one resource of the sandbox the neighbours move most
// (server CPU per update 19.9–34.2 µs over twenty runs that moved the three
// matrix workloads by a fifth). One fault-in in 199 ops keeps the scan at a
// quarter of the server's time: a fault-in that gets cheaper or dearer still
// moves updates_per_s, and the medians sit where a client of a resident
// tracker sees them. 199 and not 200: a period is four ops, every 200th draw
// would be the period's query, and a lukewarm tracker that never logs a
// record replays the log from its first byte.
const (
	tenancyZipf      = 1.1
	tenancyHot       = 10
	tenancyLukewarm  = 3 // per lane
	tenancyColdEvery = 199
	tenancyDeck      = 256 // hot draws per reshuffle: each hot tracker in its exact proportion
)

func allWorkloads() []*workload {
	ws := []*workload{
		{
			trackers: []trackerDef{{"m", matrixSpec(0)}}, batch: 256,
			periodsPerSec: 12.5, tracePeriods: 40,
			// 9 batches then a query, plain and ?gram=1 in turn.
			period: func(_, p int, next func() int, _ func() uint16) []op {
				ops := ingests(9, 0, next)
				return append(ops, op{kind: opQuery, variant: uint8(p % 2)})
			},
		},
		{
			wire: true, trackers: []trackerDef{{"m", matrixSpec(0)}}, batch: 64,
			periodsPerSec: 85, tracePeriods: 60,
			// 64 blocks, the Drain barrier that acks them, and on lane 1
			// one HTTP query.
			period: func(lane, _ int, next func() int, _ func() uint16) []op {
				ops := append(ingests(64, 0, next), op{kind: opBarrier})
				if lane == 1 {
					ops = append(ops, op{kind: opQuery, variant: qPlain})
				}
				return ops
			},
		},
		{
			trackers: []trackerDef{{"m", matrixSpec(4)}}, batch: 64,
			periodsPerSec: 90, tracePeriods: 100,
			// Every third op a query, plain and ?gram=1 in turn.
			period: func(_, _ int, next func() int, _ func() uint16) []op {
				ops := append(ingests(2, 0, next), op{kind: opQuery, variant: qPlain})
				ops = append(ops, ingests(2, 0, next)...)
				return append(ops, op{kind: opQuery, variant: qGram})
			},
		},
		{
			durable: true, maxResident: 12, items: true, trackers: tenancyTrackers(), batch: 256,
			periodsPerSec: 310, tracePeriods: 400,
			// 3 batches then a query, each on its own tracker draw.
			period: func(_, _ int, next func() int, draw func() uint16) []op {
				var ops []op
				for i := 0; i < 3; i++ {
					ops = append(ops, op{kind: opIngest, tracker: draw(), block: uint16(next())})
				}
				return append(ops, op{kind: opQuery, variant: qItems, tracker: draw()})
			},
		},
	}
	for i, w := range ws {
		w.workloadSpec = workloadSpecs[i]
	}
	return ws
}

func ingests(n int, tracker uint16, next func() int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opIngest, tracker: tracker, block: uint16(next())}
	}
	return ops
}

// genScript is lane's op script for the given number of periods. Lane l
// cycles through the pool blocks l, l+lanes, l+2·lanes, … in order, so
// the two lanes never send the same block and each block's site belongs
// to its lane.
func genScript(w *workload, seed int64, lane, periods, poolBlocks int) []op {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(lane)))
	k := 0
	next := func() int {
		b := lane + lanes*(k%(poolBlocks/lanes))
		k++
		return b
	}
	// Hot draws come off a deck that holds each hot tracker in its exact
	// Zipf proportion and is reshuffled from the seed each time it runs
	// out: the seed decides the order only. Every tenancyColdEvery-th draw
	// goes to the lane's next lukewarm tracker instead.
	deck := zipfDeck(tenancyHot, tenancyDeck, tenancyZipf)
	at, draws := len(deck), 0
	draw := func() uint16 {
		draws++
		if draws%tenancyColdEvery == 0 {
			turn := draws / tenancyColdEvery % tenancyLukewarm
			return uint16(tenancyHot + lane*tenancyLukewarm + turn)
		}
		if at == len(deck) {
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			at = 0
		}
		at++
		return deck[at-1]
	}
	var ops []op
	for p := 0; p < periods; p++ {
		ops = append(ops, w.period(lane, p, next, draw)...)
	}
	return ops
}

// zipfDeck returns size tracker indices in which index k appears in
// proportion to (1+k)^−s: the inverse Zipf CDF at size evenly spaced
// points.
func zipfDeck(n, size int, s float64) []uint16 {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(1+k), -s)
		cdf[k] = sum
	}
	deck := make([]uint16, size)
	k := 0
	for i := range deck {
		for cdf[k] < (float64(i)+0.5)/float64(size)*sum {
			k++
		}
		deck[i] = uint16(k)
	}
	return deck
}

// blockSite is the site pool block b arrives at: one of its lane's.
func blockSite(b int) int {
	lane := b % lanes
	return lane + lanes*((b/lanes)%(sites/lanes))
}

// pool holds a run's pre-generated inputs: the raw blocks (for the exact
// reference and the traced pass) and, for HTTP workloads, the encoded
// request bodies, so that sending one in the measured phase is a socket
// write.
type pool struct {
	rows   [][][]float64        // matrix workloads: block → rows
	items  [][]gen.WeightedItem // item workloads: block → items
	bodies [][]byte             // JSON request body per block (nil for wire)
}

func (p *pool) blocks() int { return max(len(p.rows), len(p.items)) }

func genPool(w *workload, seed int64, poolBlocks int) *pool {
	p := &pool{}
	if w.items {
		cfg := gen.ZipfConfig{N: poolBlocks * w.batch, Skew: 2, Universe: 1 << itemBits, Beta: 1000, Seed: seed}
		all := gen.ZipfStream(cfg)
		for b := 0; b < poolBlocks; b++ {
			blk := all[b*w.batch : (b+1)*w.batch]
			p.items = append(p.items, blk)
			p.bodies = append(p.bodies, encodeItems(blockSite(b), blk))
		}
		return p
	}
	cfg := gen.PAMAPLike(poolBlocks * w.batch)
	cfg.Seed = seed
	all := gen.LowRankMatrix(cfg)
	for b := 0; b < poolBlocks; b++ {
		blk := all[b*w.batch : (b+1)*w.batch]
		p.rows = append(p.rows, blk)
		if !w.wire {
			p.bodies = append(p.bodies, encodeRows(blockSite(b), blk))
		}
	}
	return p
}

// encodeRows renders the POST …/rows body. Floats use the shortest
// representation that round-trips, so the server decodes the exact rows
// the reference Gram is built from.
func encodeRows(site int, rows [][]float64) []byte {
	buf := make([]byte, 0, len(rows)*len(rows[0])*20)
	buf = append(buf, `{"site":`...)
	buf = strconv.AppendInt(buf, int64(site), 10)
	buf = append(buf, `,"rows":[`...)
	for i, row := range rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j, v := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, ']')
	}
	return append(buf, "]}"...)
}

// encodeItems renders the POST …/items body; "elem" serves both kinds
// (the quantile handler reads it as the value).
func encodeItems(site int, items []gen.WeightedItem) []byte {
	buf := make([]byte, 0, len(items)*48)
	buf = append(buf, `{"site":`...)
	buf = strconv.AppendInt(buf, int64(site), 10)
	buf = append(buf, `,"items":[`...)
	for i, it := range items {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"elem":`...)
		buf = strconv.AppendUint(buf, it.Elem, 10)
		buf = append(buf, `,"weight":`...)
		buf = strconv.AppendFloat(buf, it.Weight, 'g', -1, 64)
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// inputs is everything a run is generated from: one seed gives the same
// pool and the same scripts, byte for byte.
type inputs struct {
	pool    *pool
	scripts [lanes][]op
}

func genInputs(w *workload, seed int64, periods, poolBlocks int) *inputs {
	in := &inputs{pool: genPool(w, seed, poolBlocks)}
	for l := 0; l < lanes; l++ {
		in.scripts[l] = genScript(w, seed, l, periods, poolBlocks)
	}
	return in
}

// digest fingerprints the inputs: the scripts' ops and the pool's raw
// values and encoded bodies.
func (in *inputs) digest() [32]byte {
	h := sha256.New()
	var b8 [8]byte
	for l := range in.scripts {
		for _, o := range in.scripts[l] {
			h.Write([]byte{o.kind, o.variant, byte(o.tracker), byte(o.tracker >> 8), byte(o.block), byte(o.block >> 8)})
		}
	}
	for _, blk := range in.pool.rows {
		for _, row := range blk {
			for _, v := range row {
				binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
				h.Write(b8[:])
			}
		}
	}
	for _, body := range in.pool.bodies {
		h.Write(body)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
