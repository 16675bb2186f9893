package distmat

import (
	"fmt"
	"math"
	"slices"

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
// the single path the examples and the CLIs use.
//
// A session has one of three kinds — matrix, heavy-hitters, or quantile —
// fixed at construction. Batch ingestion goes through ProcessRows (matrix)
// or ProcessItems (heavy-hitters and quantile; Elem is the quantile value),
// with ...At variants pinning an explicit origin site; malformed input
// returns an error instead of panicking. Deterministic sessions checkpoint
// with SaveState/RestoreSession (persist.go). Sessions are not safe for
// concurrent use; for a concurrent deployment see the cmd/distserve
// service layer, which serializes many feeders onto one session, and
// cmd/distsite, which runs matrix P2's site half beside it. Sessions built
// with WithShards(P) — matrix, heavy-hitters, or quantile — parallelize
// internally: one caller, min(P, GOMAXPROCS) worker goroutines behind the
// tracker, summed at query time. Such sessions should be Closed when abandoned so the
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
	draws int64 // assigner draws so far (ProcessRowsAt/ProcessItemsAt skip the assigner)

	oneRow   [1][]float64   // ProcessRow's one-row batch header
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
		qt = quantile.NewSharded(cfg.Shards, cfg.Sites, func(_, sites int) *quantile.Tracker {
			return quantile.NewTracker(sites, cfg.Epsilon, cfg.Bits)
		})
	} else {
		qt = quantile.NewTracker(cfg.Sites, cfg.Epsilon, cfg.Bits)
	}
	s := &Session{kind: quantileKind, proto: "qdigest", cfg: cfg, qt: qt}
	return finishSession(s)
}

// Config returns the session's configuration echo: the options it was
// built with, with Sites and Assigner reconciled.
func (s *Session) Config() Config { return s.cfg }

// Count returns the number of rows or items ingested so far.
func (s *Session) Count() int64 { return s.count }

// Matrix returns the underlying matrix tracker, or nil for other kinds.
func (s *Session) Matrix() MatrixTracker { return s.mat }

// P2Coordinator returns the coordinator half that matrix P2's site
// messages feed, making it the session's whole tracker on first use: only
// an unsharded, unwindowed p2 session fed no rows makes that swap (its idle
// site halves hold nothing), and any other returns ErrWrongKind. The half
// takes no rows, so its caller must refuse them.
func (s *Session) P2Coordinator() (*core.P2Coordinator, error) {
	switch t := s.mat.(type) {
	case *core.P2Coordinator:
		return t, nil
	case *core.P2:
		if s.count > 0 {
			return nil, fmt.Errorf("%w: a session fed rows takes no P2 site messages", ErrWrongKind)
		}
		s.mat = t.P2Coordinator
		return t.P2Coordinator, nil
	}
	return nil, fmt.Errorf("%w: only an unsharded, unwindowed matrix p2 session takes P2 site messages", ErrWrongKind)
}

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

// ProcessRow ingests one matrix row, assigning it to a site: a one-row
// ProcessRows.
func (s *Session) ProcessRow(row []float64) error {
	if err := s.checkRows("ProcessRow"); err != nil {
		return err
	}
	if len(row) != s.cfg.Dim {
		return fmt.Errorf("%w: row of length %d, want %d", ErrDimensionMismatch, len(row), s.cfg.Dim)
	}
	site := s.asg.Next()
	s.draws++
	s.oneRow[0] = row
	s.ingestRows(site, s.oneRow[:])
	s.oneRow[0] = nil // do not pin the caller's row
	return nil
}

// checkRows rejects row ingestion on a closed session, on another kind, and
// on a p2 session fed site messages (P2Coordinator), whose tracker is the
// coordinator half alone and takes no rows.
func (s *Session) checkRows(op string) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	if s.kind != matrixKind {
		return fmt.Errorf("%w: %s on a %s session", ErrWrongKind, op, s.kind)
	}
	if _, ok := s.mat.(*core.P2Coordinator); ok {
		return fmt.Errorf("%w: %s on a session fed P2 site messages", ErrWrongKind, op)
	}
	return nil
}

// ingestRows hands a validated same-site batch to the tracker as one block.
func (s *Session) ingestRows(site int, rows [][]float64) {
	if len(rows) == 0 {
		return
	}
	s.mat.ProcessRows(site, rows)
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
// draws — is identical to calling ProcessRow once per row; a sharded
// session (WithShards) regroups the batch into one block per site (see
// coalesce), each on the shard that owns its site, so batched and per-row
// feeds are each deterministic but differ from one another (both hold the
// same covariance guarantee). On error the
// valid rows preceding the offending one remain ingested; the error
// reports its index.
func (s *Session) ProcessRows(rows [][]float64) error {
	if err := s.checkRows("ProcessRows"); err != nil {
		return err
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
		coalesce(s, &s.runBuf, rows[:n], sites, s.ingestRows)
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

// coalesce regroups an assigner-dealt batch — rows or items — into one
// run per site, sites ordered by first appearance and elements in stream
// order within each site, and hands every run to ingest as a single
// block, staged in the session's pooled run buffer *buf. Only sharded
// sessions take this path: their workers consume whole blocks, so the
// ~length-1 runs a per-row assigner (round-robin, uniform) produces
// would degrade the shard pipeline to single-row blocks and forfeit the
// blocked fast path. Unsharded sessions keep consecutive-run splitting,
// which stays bit-identical to per-row ingestion; a sharded session
// trades that identity for whole blocks, and any grouping satisfies the
// same guarantee.
//
//distlint:hotpath
func coalesce[T any](s *Session, buf *[]T, elems []T, sites []int, ingest func(site int, run []T)) {
	n := len(elems)
	if cap(*buf) < n {
		*buf = make([]T, n) //distlint:alloc-ok pool growth to the new high-water batch size
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
		run := (*buf)[:0]
		for j := start; j < n; j++ {
			if sites[j] == site {
				run = append(run, elems[j]) //distlint:alloc-ok cap(*buf) ≥ n: never grows
			}
		}
		maxRun = max(maxRun, len(run))
		ingest(site, run)
	}
	for _, site := range sites {
		s.siteSeen[site] = false
	}
	// Drop borrowed row headers so the pool does not pin caller slices.
	clear((*buf)[:maxRun])
}

// ProcessRowsAt ingests a batch of matrix rows at an explicit site as one
// block through the tracker's batch fast path — the hot ingestion surface
// the service layer drives. On error the valid rows preceding the
// offending one remain ingested; the error reports its index.
func (s *Session) ProcessRowsAt(site int, rows [][]float64) error {
	if err := s.checkRows("ProcessRowsAt"); err != nil {
		return err
	}
	if site < 0 || site >= s.cfg.Sites {
		return fmt.Errorf("%w: site %d outside [0, %d)", ErrInvalidSite, site, s.cfg.Sites)
	}
	n, dimErr := s.validRowPrefix(rows)
	s.ingestRows(site, rows[:n])
	return dimErr
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
		return fmt.Errorf("%w: ProcessItems on a %s session", ErrWrongKind, s.kind)
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
// result is identical to one ProcessItemsAt per item at the site the
// assigner drew, while a sharded session (WithShards) coalesces each
// site's items into one run per site so the shard pipeline sees whole
// blocks (both hold the same εW guarantee; see ProcessRows for the same
// contract on rows).
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
		coalesce(s, &s.itemBuf, items, sites, s.ingestItems)
		return nil
	}
	for i, it := range items {
		s.ingestItem(sites[i], it)
	}
	return nil
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

// QueryQuantiles answers Quantile for every φ of phis from one cut of the
// digest (one ordered pass; one shard merge when sharded) and returns the
// estimated total weight Ŵ of the same instant.
func (s *Session) QueryQuantiles(phis []float64) (vals []uint64, total float64, err error) {
	if s.kind != quantileKind {
		return nil, 0, fmt.Errorf("%w: QueryQuantiles on a %s session", ErrWrongKind, s.kind)
	}
	if i := slices.IndexFunc(phis, func(phi float64) bool { return phi < 0 || phi > 1 }); i >= 0 {
		return nil, 0, fmt.Errorf("%w: need 0 ≤ φ ≤ 1, got %v", ErrInvalidQuery, phis[i])
	}
	return s.qt.Quantiles(phis, make([]uint64, 0, len(phis))), s.qt.EstimateTotal(), nil
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
		snap.Estimates = s.hhp.Candidates(math.Inf(-1))
		sketch.SortByWeightDesc(snap.Estimates)
		snap.Total = s.hhp.EstimateTotal()
	case quantileKind:
		snap.Total = s.qt.EstimateTotal()
	}
	return snap
}
