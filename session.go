package distmat

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/quantile"
	"repro/internal/sketch"
)

// sessionKind discriminates what a Session tracks.
type sessionKind int

const (
	matrixKind sessionKind = iota
	hhKind
	quantileKind
)

func (k sessionKind) String() string {
	switch k {
	case matrixKind:
		return "matrix"
	case hhKind:
		return "heavy-hitters"
	case quantileKind:
		return "quantile"
	}
	return "unknown"
}

// Session is the ingestion surface of the library: one tracker bound to one
// site assigner, fed in batches, queried through immutable snapshots. It is
// the single path the examples, the CLIs, and RunMatrix/RunHH use.
//
// A session has one of three kinds — matrix, heavy-hitters, or quantile —
// fixed at construction. Batch ingestion goes through ProcessRows (matrix)
// or ProcessItems (heavy-hitters and quantile; Elem is the quantile value),
// with ...At variants pinning an explicit origin site; malformed input
// returns an error instead of panicking. Deterministic sessions checkpoint
// with SaveState/RestoreSession (persist.go). Sessions are not safe for
// concurrent use; for a concurrent deployment see NewHHCluster,
// NewMatrixCluster, the TCP runtime, or the cmd/distserve service layer,
// which serializes many feeders onto one session. Sessions built with
// WithShards(P) — matrix, heavy-hitters, or quantile — parallelize
// internally: one caller, P worker goroutines behind the tracker, merged
// at query time. Such sessions should be Closed when abandoned so the
// workers stop.
type Session struct {
	kind  sessionKind
	proto string
	cfg   Config
	asg   Assigner

	mat MatrixTracker    // matrixKind
	hhp HHProtocol       // hhKind
	qt  quantile.Summary // quantileKind: *quantile.Tracker or *quantile.Sharded

	// fleet is the tracker's shard engine — the tracker above, seen through
	// the one surface every sharded kind shares — nil when unsharded.
	fleet shardFleet

	closed bool // set by Close; ingestion then returns ErrSessionClosed

	exact *Sym // exact Gram AᵀA, non-nil iff cfg.TrackExact on a matrix session
	count int64
	draws int64 // assigner draws so far (ProcessRowAt/ProcessItemAt skip the assigner)

	siteBuf  []int          // pooled per-batch site assignments (ProcessRows scratch)
	runBuf   [][]float64    // pooled same-site run staging (sharded batch coalescing)
	itemBuf  []WeightedItem // pooled same-site item-run staging (sharded batch coalescing)
	siteSeen []bool         // pooled per-site visited marks (sharded batch coalescing)
}

// shardFleet is what a Session needs from a sharded tracker beyond its
// kind's query surface; core.ShardEngine, embedded by core.ShardedTracker,
// hh.Sharded and quantile.Sharded, provides all of it.
type shardFleet interface {
	ShardCount() int
	ShardRows() []int64
	StatsApplied() Stats
	Close()
}

// itemFleet is a shardFleet dealing weighted items (heavy-hitters and
// quantile): Deal takes a whole same-site run as one batch.
type itemFleet interface {
	Deal(site int, items []WeightedItem)
}

// adoptAssigner reconciles cfg.Sites with an explicit assigner before any
// tracker is constructed, so the protocol and the assigner always agree on
// m. An unset (default) site count adopts the assigner's; an explicitly
// conflicting one is a configuration error, not a later panic.
func adoptAssigner(c *Config) error {
	if c.Assigner == nil {
		return nil
	}
	m := c.Assigner.Sites()
	if c.Sites == DefaultConfig().Sites || c.Sites == m {
		c.Sites = m
		return nil
	}
	return invalidConfigf("sites %d conflicts with the assigner's %d sites", c.Sites, m)
}

// finishSession binds the tracker's shard engine, if it has one (echoing
// its shard count into the Config: a wrapped tracker may be sharded without
// WithShards having asked), and fills the default assigner when none was
// supplied.
func finishSession(s *Session) (*Session, error) {
	if s.bindFleet(); s.fleet != nil {
		s.cfg.Shards = s.fleet.ShardCount()
	}
	if s.cfg.Assigner == nil {
		if s.cfg.Sites < 1 {
			return nil, invalidConfigf("need m ≥ 1 sites, got %d", s.cfg.Sites)
		}
		s.cfg.Assigner = NewUniformRandom(s.cfg.Sites, s.cfg.Seed)
	}
	s.asg = s.cfg.Assigner
	return s, nil
}

// bindFleet points s.fleet at the session's tracker (whichever of the
// three kinds it is) when that tracker is sharded.
func (s *Session) bindFleet() {
	for _, tracker := range []any{s.mat, s.hhp, s.qt} {
		if f, ok := tracker.(shardFleet); ok {
			s.fleet = f
		}
	}
}

// NewMatrixSession builds a matrix tracking session around the named
// registered protocol. With WithWindow(w) the tracker is wrapped in the
// tumbling-window construction covering the most recent ~w rows; with
// WithExactTracking the session also maintains the exact Gram AᵀA for
// evaluation.
func NewMatrixSession(proto string, opts ...Option) (*Session, error) {
	cfg := NewConfig(opts...)
	if err := adoptAssigner(&cfg); err != nil {
		return nil, err
	}
	tr, err := NewMatrixByName(proto, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Window > 0 {
		inner := proto
		tr = NewWindowedTracker(cfg.Window, func() MatrixTracker {
			t, err := NewMatrixByName(inner, cfg)
			if err != nil {
				// cfg was validated by the first NewMatrixByName call.
				//distlint:panic-ok unreachable: cfg already validated above
				panic(err)
			}
			return t
		})
	}
	s := &Session{kind: matrixKind, proto: canonicalName(proto), cfg: cfg, mat: tr}
	if cfg.TrackExact {
		s.exact = matrix.NewSym(cfg.Dim)
	}
	return finishSession(s)
}

// WrapMatrixSession builds a matrix session around an existing tracker —
// one the registry cannot name, e.g. a hand-built WindowedTracker or a
// custom Tracker implementation. The tracker's dimension, ε, and shard
// count are echoed into the session's Config. WithShards is rejected here:
// the session carries exactly the tracker you pass, so build a sharded
// tracker first (NewMatrixByName with Config.Shards, or
// core.NewShardedTracker) and wrap that.
func WrapMatrixSession(t MatrixTracker, opts ...Option) (*Session, error) {
	cfg := NewConfig(opts...)
	if err := adoptAssigner(&cfg); err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		return nil, notShardablef("wrapped sessions carry the tracker as passed; wrap an already-sharded tracker instead")
	}
	if cfg.Shards < 0 {
		return nil, invalidConfigf("need shards ≥ 0, got %d", cfg.Shards)
	}
	cfg.Dim, cfg.Epsilon = t.Dim(), t.Eps()
	s := &Session{kind: matrixKind, proto: canonicalName(t.Name()), cfg: cfg, mat: t}
	if cfg.TrackExact {
		s.exact = matrix.NewSym(cfg.Dim)
	}
	return finishSession(s)
}

// NewHHSession builds a weighted heavy-hitters session around the named
// registered protocol.
func NewHHSession(proto string, opts ...Option) (*Session, error) {
	cfg := NewConfig(opts...)
	if err := adoptAssigner(&cfg); err != nil {
		return nil, err
	}
	p, err := NewHHByName(proto, cfg)
	if err != nil {
		return nil, err
	}
	s := &Session{kind: hhKind, proto: canonicalName(proto), cfg: cfg, hhp: p}
	return finishSession(s)
}

// WrapHHSession builds a heavy-hitters session around an existing protocol
// instance. The protocol's ε (and, for an hh.Sharded instance, its shard
// count) is echoed into the session's Config.
func WrapHHSession(p HHProtocol, opts ...Option) (*Session, error) {
	cfg := NewConfig(opts...)
	if err := adoptAssigner(&cfg); err != nil {
		return nil, err
	}
	cfg.Epsilon = p.Eps()
	s := &Session{kind: hhKind, proto: canonicalName(p.Name()), cfg: cfg, hhp: p}
	return finishSession(s)
}

// NewQuantileSession builds a weighted quantile session; items' Elem field
// carries the value, which must lie in [0, 2^Bits). With WithShards(P) the
// stream is dealt across P independent tracker shards merged at query
// time, keeping the εW rank bound (per-shard bounds sum to εW).
func NewQuantileSession(opts ...Option) (*Session, error) {
	cfg := NewConfig(opts...)
	if err := adoptAssigner(&cfg); err != nil {
		return nil, err
	}
	if err := cfg.validateQuantile(); err != nil {
		return nil, err
	}
	var qt quantile.Summary
	if cfg.Shards > 1 {
		qt = quantile.NewSharded(cfg.Shards, cfg.Sites, func(int) *quantile.Tracker {
			return quantile.NewTracker(cfg.Sites, cfg.Epsilon, cfg.Bits)
		})
	} else {
		qt = quantile.NewTracker(cfg.Sites, cfg.Epsilon, cfg.Bits)
	}
	s := &Session{kind: quantileKind, proto: "qdigest", cfg: cfg, qt: qt}
	return finishSession(s)
}

// Kind returns the session kind: "matrix", "heavy-hitters", or "quantile".
func (s *Session) Kind() string { return s.kind.String() }

// ProtocolName returns the canonical registry name of the session's
// protocol (or the tracker's own name for wrapped sessions).
func (s *Session) ProtocolName() string { return s.proto }

// Config returns the session's configuration echo: the options it was
// built with, with Sites and Assigner reconciled.
func (s *Session) Config() Config { return s.cfg }

// Count returns the number of rows or items ingested so far.
func (s *Session) Count() int64 { return s.count }

// Matrix returns the underlying matrix tracker, or nil for other kinds.
func (s *Session) Matrix() MatrixTracker { return s.mat }

// Shards returns the number of parallel tracker shards behind a session
// built with WithShards; 1 for every unsharded session.
func (s *Session) Shards() int {
	if s.fleet != nil {
		return s.fleet.ShardCount()
	}
	return 1
}

// ShardRows returns the rows (matrix) or items (heavy-hitters, quantile)
// dealt to each tracker shard so far — the service layer's per-shard
// metrics — nil for unsharded sessions.
func (s *Session) ShardRows() []int64 {
	if s.fleet != nil {
		return s.fleet.ShardRows()
	}
	return nil
}

// Close releases the resources a session holds beyond its plain state:
// sharded sessions stop their worker goroutines (after flushing all
// in-flight blocks). A closed session still answers queries; further
// ingestion returns ErrSessionClosed. Close is idempotent, and for every
// other session kind it only marks the session closed.
func (s *Session) Close() error {
	s.closed = true
	if s.fleet != nil {
		s.fleet.Close()
	}
	return nil
}

// checkOpen rejects ingestion on a closed session with the facade's error
// convention (the underlying sharded tracker would panic instead).
func (s *Session) checkOpen() error {
	if s.closed {
		return ErrSessionClosed
	}
	return nil
}

// HH returns the underlying heavy-hitters protocol, or nil for other kinds.
func (s *Session) HH() HHProtocol { return s.hhp }

// Quantiles returns the underlying quantile tracker; nil for other kinds
// and for sharded quantile sessions, whose state lives in per-shard
// trackers merged at query time (query through the Session instead).
func (s *Session) Quantiles() *QuantileTracker {
	if t, ok := s.qt.(*quantile.Tracker); ok {
		return t
	}
	return nil
}

// Stats returns the communication tally so far. On a sharded matrix
// session this waits for every in-flight block to be applied; monitoring
// paths that must not stall ingestion use StatsRelaxed.
func (s *Session) Stats() Stats {
	switch s.kind {
	case matrixKind:
		return s.mat.Stats()
	case hhKind:
		return s.hhp.Stats()
	default:
		return s.qt.Stats()
	}
}

// StatsRelaxed returns the communication tally without forcing a sharded
// session's merge barrier: the tally covers applied blocks and may trail
// enqueued work by up to the shard queue depth. Identical to Stats for
// every other session — the monitoring read the service's /metrics uses.
func (s *Session) StatsRelaxed() Stats {
	if s.fleet != nil {
		return s.fleet.StatsApplied()
	}
	return s.Stats()
}

// ProcessRow ingests one matrix row, assigning it to a site.
func (s *Session) ProcessRow(row []float64) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if s.kind != matrixKind {
		return fmt.Errorf("%w: ProcessRow on a %s session", ErrWrongKind, s.kind)
	}
	if len(row) != s.cfg.Dim {
		return fmt.Errorf("%w: row of length %d, want %d", ErrDimensionMismatch, len(row), s.cfg.Dim)
	}
	site := s.asg.Next()
	s.draws++
	s.ingestRow(site, row)
	return nil
}

// ProcessRowAt ingests one matrix row at an explicit site in [0, Sites),
// bypassing the session's assigner — the ingestion path for deployments
// where the caller is the site (e.g. the service API's per-site feeds).
func (s *Session) ProcessRowAt(site int, row []float64) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if s.kind != matrixKind {
		return fmt.Errorf("%w: ProcessRowAt on a %s session", ErrWrongKind, s.kind)
	}
	if site < 0 || site >= s.cfg.Sites {
		return fmt.Errorf("%w: site %d outside [0, %d)", ErrInvalidSite, site, s.cfg.Sites)
	}
	if len(row) != s.cfg.Dim {
		return fmt.Errorf("%w: row of length %d, want %d", ErrDimensionMismatch, len(row), s.cfg.Dim)
	}
	s.ingestRow(site, row)
	return nil
}

func (s *Session) ingestRow(site int, row []float64) {
	s.mat.ProcessRow(site, row)
	if s.exact != nil {
		s.exact.AddOuter(1, row)
	}
	s.count++
}

// ingestRows routes a validated same-site batch through the tracker's
// blocked fast path (core.BatchTracker) when it has one.
func (s *Session) ingestRows(site int, rows [][]float64) {
	if len(rows) == 0 {
		return
	}
	core.ProcessRows(s.mat, site, rows)
	if s.exact != nil {
		for _, row := range rows {
			s.exact.AddOuter(1, row)
		}
	}
	s.count += int64(len(rows))
}

// validRowPrefix returns the length of the longest prefix of rows with the
// session's dimension, and an indexed ErrDimensionMismatch for the first
// offending row (nil if none).
func (s *Session) validRowPrefix(rows [][]float64) (int, error) {
	for i, row := range rows {
		if len(row) != s.cfg.Dim {
			return i, fmt.Errorf("row %d: %w: row of length %d, want %d",
				i, ErrDimensionMismatch, len(row), s.cfg.Dim)
		}
	}
	return len(rows), nil
}

// ProcessRows ingests a batch of matrix rows through the blocked batch
// path: rows are dealt to sites by the session's assigner in order, and
// consecutive same-site runs are handed to the tracker as one block. For
// unsharded sessions the result — tracker state, message tallies, assigner
// draws — is identical to calling ProcessRow once per row; on a sharded
// session (WithShards) the block boundaries decide which shard each row
// lands on, so batched and per-row feeds are each deterministic but differ
// from one another (both hold the same covariance guarantee). On error the
// valid rows preceding the offending one remain ingested; the error
// reports its index.
func (s *Session) ProcessRows(rows [][]float64) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if s.kind != matrixKind {
		return fmt.Errorf("%w: ProcessRows on a %s session", ErrWrongKind, s.kind)
	}
	n, dimErr := s.validRowPrefix(rows)
	// Draw sites for the valid prefix in row order (the per-row path draws
	// before each ingest; the interleaving is unobservable). The buffer is
	// pooled on the session, so the steady-state batch path allocates
	// nothing here.
	if cap(s.siteBuf) < n {
		s.siteBuf = make([]int, n)
	}
	sites := s.siteBuf[:n]
	for i := range sites {
		sites[i] = s.asg.Next()
	}
	s.draws += int64(n)
	if s.Shards() > 1 {
		s.ingestCoalesced(rows[:n], sites)
		return dimErr
	}
	for start := 0; start < n; {
		end := start + 1
		for end < n && sites[end] == sites[start] {
			end++
		}
		s.ingestRows(sites[start], rows[start:end])
		start = end
	}
	return dimErr
}

// ingestCoalesced regroups an assigner-dealt batch into one run per site —
// sites ordered by first appearance, rows in stream order within each
// site — and hands every run to the tracker as a single block. Only
// sharded sessions take this path: their workers consume whole blocks, so
// the ~length-1 runs a per-row assigner (round-robin, uniform) produces
// would degrade the shard pipeline to single-row blocks and forfeit the
// blocked fast path. Unsharded sessions keep consecutive-run splitting,
// which stays bit-identical to per-row ingestion; a sharded session's
// state already depends on block boundaries (see ProcessRows), and any
// grouping satisfies the same covariance guarantee.
//
//distlint:hotpath
func (s *Session) ingestCoalesced(rows [][]float64, sites []int) {
	n := len(rows)
	if cap(s.runBuf) < n {
		s.runBuf = make([][]float64, n) //distlint:alloc-ok pool growth to the new high-water batch size
	}
	if len(s.siteSeen) < s.cfg.Sites {
		s.siteSeen = make([]bool, s.cfg.Sites) //distlint:alloc-ok sized once by the fixed site count
	}
	maxRun := 0
	for start := 0; start < n; start++ {
		site := sites[start]
		if s.siteSeen[site] {
			continue
		}
		s.siteSeen[site] = true
		run := s.runBuf[:0]
		for j := start; j < n; j++ {
			if sites[j] == site {
				run = append(run, rows[j]) //distlint:alloc-ok cap(runBuf) ≥ n: never grows
			}
		}
		if len(run) > maxRun {
			maxRun = len(run)
		}
		s.ingestRows(site, run)
	}
	for _, site := range sites {
		s.siteSeen[site] = false
	}
	// Drop the borrowed row headers so the pool does not pin caller slices.
	clear(s.runBuf[:maxRun])
}

// ProcessRowsAt ingests a batch of matrix rows at an explicit site as one
// block through the tracker's batch fast path — the hot ingestion surface
// the service layer drives. On error the valid rows preceding the
// offending one remain ingested; the error reports its index.
func (s *Session) ProcessRowsAt(site int, rows [][]float64) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if s.kind != matrixKind {
		return fmt.Errorf("%w: ProcessRowsAt on a %s session", ErrWrongKind, s.kind)
	}
	if site < 0 || site >= s.cfg.Sites {
		return fmt.Errorf("%w: site %d outside [0, %d)", ErrInvalidSite, site, s.cfg.Sites)
	}
	n, dimErr := s.validRowPrefix(rows)
	s.ingestRows(site, rows[:n])
	return dimErr
}

// ProcessItem ingests one weighted item: (element, weight) for
// heavy-hitters sessions, (value, weight) for quantile sessions.
func (s *Session) ProcessItem(it WeightedItem) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if err := s.checkItem(it); err != nil {
		return err
	}
	site := s.asg.Next()
	s.draws++
	s.ingestItem(site, it)
	return nil
}

// ProcessItemAt ingests one weighted item at an explicit site in
// [0, Sites), bypassing the session's assigner.
func (s *Session) ProcessItemAt(site int, it WeightedItem) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if err := s.checkItem(it); err != nil {
		return err
	}
	if site < 0 || site >= s.cfg.Sites {
		return fmt.Errorf("%w: site %d outside [0, %d)", ErrInvalidSite, site, s.cfg.Sites)
	}
	s.ingestItem(site, it)
	return nil
}

func (s *Session) checkItem(it WeightedItem) error {
	if !gen.ValidWeight(it.Weight) {
		return fmt.Errorf("%w: need positive finite weight, got %v", ErrInvalidItem, it.Weight)
	}
	switch s.kind {
	case hhKind:
	case quantileKind:
		if it.Elem >= uint64(1)<<s.cfg.Bits {
			return fmt.Errorf("%w: value %d outside universe [0, 2^%d)", ErrInvalidItem, it.Elem, s.cfg.Bits)
		}
	default:
		return fmt.Errorf("%w: ProcessItem on a %s session", ErrWrongKind, s.kind)
	}
	return nil
}

func (s *Session) ingestItem(site int, it WeightedItem) {
	if s.kind == hhKind {
		s.hhp.Process(site, it.Elem, it.Weight)
	} else {
		s.qt.Process(site, it.Elem, it.Weight)
	}
	s.count++
}

// checkItems validates a whole item batch without touching any state,
// reporting the first offending item by index. Batch ingestion applies
// only batches that pass — the items path matches the rows path, which
// validates in-caller before the tracker sees anything.
func (s *Session) checkItems(items []WeightedItem) error {
	for i, it := range items {
		if err := s.checkItem(it); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}

// ingestItems routes a validated same-site item run to the tracker:
// sharded trackers deal the run across their workers as one batch,
// unsharded trackers apply it item by item (bit-identical to per-item
// feeds).
func (s *Session) ingestItems(site int, items []WeightedItem) {
	if f, ok := s.fleet.(itemFleet); ok {
		f.Deal(site, items)
		s.count += int64(len(items))
		return
	}
	for _, it := range items {
		s.ingestItem(site, it)
	}
}

// ProcessItems ingests a batch of weighted items. The whole batch is
// validated up front and applied only if clean: a rejected batch leaves
// the session — tracker, count, assigner — exactly as it was, and the
// error reports the first offending item's index. Items are dealt to
// sites by the session's assigner in order; for unsharded sessions the
// result is identical to calling ProcessItem once per item, while a
// sharded session (WithShards) coalesces each site's items into one run
// per site so the shard pipeline sees whole blocks (both hold the same
// εW guarantee; see ProcessRows for the same contract on rows).
func (s *Session) ProcessItems(items []WeightedItem) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if err := s.checkItems(items); err != nil {
		return err
	}
	n := len(items)
	if cap(s.siteBuf) < n {
		s.siteBuf = make([]int, n)
	}
	sites := s.siteBuf[:n]
	for i := range sites {
		sites[i] = s.asg.Next()
	}
	s.draws += int64(n)
	if s.Shards() > 1 {
		s.ingestItemsCoalesced(items, sites)
		return nil
	}
	for i, it := range items {
		s.ingestItem(sites[i], it)
	}
	return nil
}

// ingestItemsCoalesced regroups an assigner-dealt item batch into one run
// per site — sites ordered by first appearance, items in stream order
// within each site — and deals every run to the sharded tracker as a
// single batch, mirroring ingestCoalesced on the rows path.
//
//distlint:hotpath
func (s *Session) ingestItemsCoalesced(items []WeightedItem, sites []int) {
	n := len(items)
	if cap(s.itemBuf) < n {
		s.itemBuf = make([]WeightedItem, n) //distlint:alloc-ok pool growth to the new high-water batch size
	}
	if len(s.siteSeen) < s.cfg.Sites {
		s.siteSeen = make([]bool, s.cfg.Sites) //distlint:alloc-ok sized once by the fixed site count
	}
	for start := 0; start < n; start++ {
		site := sites[start]
		if s.siteSeen[site] {
			continue
		}
		s.siteSeen[site] = true
		run := s.itemBuf[:0]
		for j := start; j < n; j++ {
			if sites[j] == site {
				run = append(run, items[j]) //distlint:alloc-ok cap(itemBuf) ≥ n: never grows
			}
		}
		s.ingestItems(site, run)
	}
	for _, site := range sites {
		s.siteSeen[site] = false
	}
}

// ProcessItemsAt ingests a batch of weighted items at an explicit site as
// one run. Like ProcessItems, the batch — items and site — is validated up
// front and applied only if clean, so a rejected batch leaves the session
// untouched; the error reports the first offending item's index.
func (s *Session) ProcessItemsAt(site int, items []WeightedItem) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if err := s.checkItems(items); err != nil {
		return err
	}
	if len(items) == 0 {
		return nil
	}
	if site < 0 || site >= s.cfg.Sites {
		return fmt.Errorf("%w: site %d outside [0, %d)", ErrInvalidSite, site, s.cfg.Sites)
	}
	s.ingestItems(site, items)
	return nil
}

// Gram returns the coordinator estimate BᵀB of a matrix session as of now,
// in a matrix the caller owns (see core.Tracker.Gram). Nil for other kinds.
func (s *Session) Gram() *Sym {
	if s.kind != matrixKind {
		return nil
	}
	return s.mat.Gram()
}

// Exact returns the live exact Gram AᵀA of a matrix session built with
// WithExactTracking, nil otherwise.
func (s *Session) Exact() *Sym { return s.exact }

// Covered returns how many of the most recent rows/items the current
// estimate spans: the window coverage for windowed matrix sessions,
// Count() for everything else.
func (s *Session) Covered() int64 {
	if w, ok := s.mat.(*WindowedTracker); ok {
		return int64(w.Covered())
	}
	return s.count
}

// HeavyHitters applies the paper's query rule (return e iff
// Ŵ_e/Ŵ ≥ φ − ε/2) to a heavy-hitters session.
func (s *Session) HeavyHitters(phi float64) ([]WeightedElement, error) {
	if s.kind != hhKind {
		return nil, fmt.Errorf("%w: HeavyHitters on a %s session", ErrWrongKind, s.kind)
	}
	if phi <= 0 || phi > 1 {
		return nil, fmt.Errorf("%w: need 0 < φ ≤ 1, got %v", ErrInvalidQuery, phi)
	}
	return HeavyHitters(s.hhp, phi), nil
}

// Estimate returns the coordinator's weight estimate Ŵ_e for element e on
// a heavy-hitters session.
func (s *Session) Estimate(elem uint64) (float64, error) {
	if s.kind != hhKind {
		return 0, fmt.Errorf("%w: Estimate on a %s session", ErrWrongKind, s.kind)
	}
	return s.hhp.Estimate(elem), nil
}

// Quantile returns the value at weighted rank φ·W (±εW) on a quantile
// session.
func (s *Session) Quantile(phi float64) (uint64, error) {
	if s.kind != quantileKind {
		return 0, fmt.Errorf("%w: Quantile on a %s session", ErrWrongKind, s.kind)
	}
	if phi < 0 || phi > 1 {
		return 0, fmt.Errorf("%w: need 0 ≤ φ ≤ 1, got %v", ErrInvalidQuery, phi)
	}
	return s.qt.Quantile(phi), nil
}

// Snapshot is an immutable view of a session at one instant: the fields a
// consumer reads never alias the session's live state, so a snapshot taken
// before further ingestion stays valid.
type Snapshot struct {
	Protocol string // canonical protocol name
	Kind     string // "matrix", "heavy-hitters", or "quantile"
	Config   Config // configuration echo; Assigner is nil (live state)
	Count    int64  // rows/items ingested when the snapshot was taken
	Stats    Stats  // communication tally

	// Matrix sessions.
	Gram      *Sym    // copy of the coordinator's BᵀB estimate
	Frobenius float64 // coordinator's estimate of ‖A‖²_F
	Exact     *Sym    // copy of the exact AᵀA, if tracked

	// Heavy-hitters and quantile sessions.
	Estimates []WeightedElement // tracked elements, by descending estimate
	Total     float64           // estimated total stream weight Ŵ
}

// Snapshot captures the session's current state. The returned value is
// safe to retain and read after further ingestion.
func (s *Session) Snapshot() Snapshot {
	snap := Snapshot{
		Protocol: s.proto,
		Kind:     s.kind.String(),
		Config:   s.cfg,
		Count:    s.count,
		Stats:    s.Stats(),
	}
	// The assigner is live, stateful session machinery — not part of the
	// immutable view (Config.Sites already echoes its site count).
	snap.Config.Assigner = nil
	switch s.kind {
	case matrixKind:
		snap.Gram = s.mat.Gram() // the caller's already: Tracker.Gram never returns live state
		snap.Frobenius = s.mat.EstimateFrobenius()
		if s.exact != nil {
			snap.Exact = s.exact.Clone()
		}
	case hhKind:
		snap.Estimates = s.hhp.Candidates()
		sketch.SortByWeightDesc(snap.Estimates)
		snap.Total = s.hhp.EstimateTotal()
	case quantileKind:
		snap.Total = s.qt.EstimateTotal()
	}
	return snap
}
