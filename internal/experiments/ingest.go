package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	distmat "repro"
	"repro/internal/service"
	"repro/internal/wire"
)

// Ingest benchmark: the reproducible perf artifact (BENCH_ingest.json)
// that records the tracking hot path's throughput trajectory across PRs.
// Unlike the figure sweeps — which measure the paper's *communication*
// metric — this measures wall-clock rows/sec through the headline
// protocols, plus the messages-per-update ratio tying the two together.

// IngestResult is one benchmarked configuration.
type IngestResult struct {
	Problem  string  `json:"problem"`          // "heavy-hitters", "matrix", "quantile"
	Protocol string  `json:"protocol"`         // registry name (plus feed suffix)
	Mode     string  `json:"mode,omitempty"`   // matrix ingest mode: "exact" or "fast"
	Shards   int     `json:"shards,omitempty"` // parallel tracker shards (0: unsharded)
	Sites    int     `json:"sites"`
	Epsilon  float64 `json:"epsilon"`
	Dim      int     `json:"dim,omitempty"`
	N        int     `json:"n"` // rows/items ingested

	Seconds           float64 `json:"seconds"`
	RowsPerSec        float64 `json:"rows_per_sec"`
	Messages          int64   `json:"messages"`
	MessagesPerUpdate float64 `json:"messages_per_update"`

	// Network columns, present only on wire-transport entries (protocol
	// suffix "-wire"): frames and bytes both directions across the
	// loopback wire listener. Messages counts the *protocol's* site→
	// coordinator traffic; these count the *transport's* — blocked framing
	// means net_msgs_per_update sits far below 1 even before the protocol
	// dedupes anything.
	NetMsgs           int64   `json:"net_msgs,omitempty"`
	NetBytes          int64   `json:"net_bytes,omitempty"`
	NetMsgsPerUpdate  float64 `json:"net_msgs_per_update,omitempty"`
	NetBytesPerUpdate float64 `json:"net_bytes_per_update,omitempty"`
}

// IngestBenchDoc is the BENCH_ingest.json layout. GoMaxProcs records the
// parallelism the run had available: sharded entries scale with cores, so
// their rows/sec is only comparable across artifacts generated at the same
// GOMAXPROCS (absent in artifacts predating sharding).
type IngestBenchDoc struct {
	GeneratedUnix int64          `json:"generated_unix"`
	GoMaxProcs    int            `json:"gomaxprocs,omitempty"`
	Results       []IngestResult `json:"results"`
}

// IngestBench runs the ingestion benchmark at the runner's configured
// scales: the headline deterministic protocols for both problems plus the
// quantile tracker, fed through the public Session path (the same path
// the service layer drives).
func (r *Runner) IngestBench() ([]IngestResult, error) {
	cfg := r.cfg
	items := distmat.ZipfStream(distmat.DefaultZipfConfig(cfg.HHItems))
	rows := distmat.LowRankMatrix(distmat.PAMAPLike(cfg.MatRows))

	var out []IngestResult

	for _, proto := range []string{"p1", "p2"} {
		sess, err := distmat.NewHHSession(proto,
			distmat.WithSites(cfg.Sites), distmat.WithEpsilon(0.01), distmat.WithSeed(cfg.Seed))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := sess.ProcessItems(items); err != nil {
			return nil, err
		}
		out = append(out, ingestResult("heavy-hitters", proto, sess, len(items), time.Since(start)))
	}

	// The sharded counterpart of the p2 item entry: the same protocol
	// behind a 4-shard merge-on-query wrapper, fed the identical item
	// stream. TestShardedItemSpeedupGuard enforces the multi-core floor in
	// make perf-guard; the timed section ends at a Stats() barrier so
	// in-flight shard chunks are counted.
	{
		const shardCount = 4
		sess, err := distmat.NewHHSession("p2",
			distmat.WithSites(cfg.Sites), distmat.WithEpsilon(0.01),
			distmat.WithSeed(cfg.Seed), distmat.WithShards(shardCount))
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		start := time.Now()
		if err := sess.ProcessItems(items); err != nil {
			return nil, err
		}
		sess.Stats() // merge barrier: every dealt chunk applied
		res := ingestResult("heavy-hitters", "p2-sharded", sess, len(items), time.Since(start))
		res.Shards = shardCount
		out = append(out, res)
	}

	const matDim = 44
	for _, proto := range []string{"p1", "p2"} {
		sess, err := distmat.NewMatrixSession(proto,
			distmat.WithSites(cfg.Sites), distmat.WithEpsilon(0.1),
			distmat.WithDim(matDim), distmat.WithSeed(cfg.Seed))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := sess.ProcessRows(rows); err != nil {
			return nil, err
		}
		res := ingestResult("matrix", proto, sess, len(rows), time.Since(start))
		res.Dim = matDim
		res.Mode = "exact"
		out = append(out, res)
	}

	// The same protocols fed per-site blocks through the blocked batch path
	// (Session.ProcessRowsAt → core.BatchTracker), the shape the service
	// layer's POST rows handler drives — once per ingest mode, on identical
	// block streams, so the exact "+batch" rows and the fast "-blocked" rows
	// sit side by side with directly comparable messages-per-update columns.
	// Arrival order differs from the assigner-dealt rows above (contiguous
	// per-site blocks), so message columns are comparable within the block
	// feeds, not against them.
	for _, mode := range []struct {
		suffix string
		mode   string
		opts   []distmat.Option
	}{
		{"+batch", "exact", nil},
		{"-blocked", "fast", []distmat.Option{distmat.WithFastIngest()}},
	} {
		for _, proto := range []string{"p1", "p2"} {
			opts := append([]distmat.Option{
				distmat.WithSites(cfg.Sites), distmat.WithEpsilon(0.1),
				distmat.WithDim(matDim), distmat.WithSeed(cfg.Seed),
			}, mode.opts...)
			sess, err := distmat.NewMatrixSession(proto, opts...)
			if err != nil {
				return nil, err
			}
			const block = 1024
			start := time.Now()
			for i, site := 0, 0; i < len(rows); i += block {
				end := i + block
				if end > len(rows) {
					end = len(rows)
				}
				if err := sess.ProcessRowsAt(site, rows[i:end]); err != nil {
					return nil, err
				}
				site = (site + 1) % cfg.Sites
			}
			res := ingestResult("matrix", proto+mode.suffix, sess, len(rows), time.Since(start))
			res.Dim = matDim
			res.Mode = mode.mode
			out = append(out, res)
		}
	}

	// The sharded counterpart of p2-blocked: the same fast-mode protocol
	// behind a 4-shard merge-on-query wrapper, fed the identical per-site
	// block stream. On a multi-core machine (see the doc's gomaxprocs) the
	// floor is ≥2× the single-shard fast entry — TestShardedSpeedupGuard
	// enforces it in make perf-guard / CI; on a single core the wrapper's
	// copy+channel overhead makes it roughly break even. The timed section
	// ends at a Stats() barrier so in-flight shard work is counted.
	{
		const shardCount = 4
		sess, err := distmat.NewMatrixSession("p2",
			distmat.WithSites(cfg.Sites), distmat.WithEpsilon(0.1),
			distmat.WithDim(matDim), distmat.WithSeed(cfg.Seed),
			distmat.WithFastIngest(), distmat.WithShards(shardCount))
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		const block = 1024
		start := time.Now()
		for i, site := 0, 0; i < len(rows); i += block {
			end := i + block
			if end > len(rows) {
				end = len(rows)
			}
			if err := sess.ProcessRowsAt(site, rows[i:end]); err != nil {
				return nil, err
			}
			site = (site + 1) % cfg.Sites
		}
		sess.Stats() // merge barrier: every dealt block applied
		elapsed := time.Since(start)
		res := ingestResult("matrix", "p2-sharded", sess, len(rows), elapsed)
		res.Dim = matDim
		res.Mode = "fast"
		res.Shards = shardCount
		out = append(out, res)
	}

	// The network counterpart of p2-blocked: the same blocked fast-mode
	// stream crossing a real loopback socket as framed row blocks into a
	// service manager — the distsite → distserve path (wire codec,
	// acked watermarks, and all). All rows arrive at site 0, so the
	// protocol message column is comparable only within this entry; the
	// net columns are the point — the transport's frames and bytes per
	// row on top of the protocol's messages-per-update.
	{
		res, err := wireIngestBench(cfg, rows, matDim)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}

	// The durability counterpart of p2-blocked: the same blocked fast-mode
	// stream through a WAL-enabled service manager, where every batch is
	// fsync-durable before it is acknowledged. The gap to p2-blocked is
	// the price of the crash guarantee — group-commit fsyncs on the ingest
	// path (leader commit, one sync per acked batch at this single-feeder
	// profile).
	{
		res, err := walIngestBench(cfg, rows, matDim)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}

	// The tenancy counterpart of p2-wal: the same stream dealt round-robin
	// across 8 trackers on a manager capped at MaxResident=4, so every
	// block lands on a hibernated tracker and pays a fault-in (checkpoint
	// restore + WAL replay) before it applies. The gap to p2-wal is the
	// worst-case price of hibernation churn on the ingest path.
	{
		res, err := tenancyIngestBench(cfg, rows, matDim)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}

	// Blocked vs unblocked Frequent Directions: the sketch-level hot path
	// with no protocol overhead. The unblocked baseline factorizes after
	// every row (block 1, the row-at-a-time path); the blocked sketch uses
	// the default 2ℓ buffer fed through AppendRows.
	fdEll := matDim / 2
	unblocked := distmat.NewFrequentDirectionsBuffered(fdEll, matDim, 1)
	start := time.Now()
	for _, row := range rows {
		unblocked.Append(row)
	}
	out = append(out, sketchResult("fd-unblocked", fdEll, matDim, len(rows), time.Since(start)))

	blocked := distmat.NewFrequentDirections(fdEll, matDim)
	start = time.Now()
	blocked.AppendRows(rows)
	out = append(out, sketchResult("fd-blocked", fdEll, matDim, len(rows), time.Since(start)))

	qsess, err := distmat.NewQuantileSession(
		distmat.WithSites(cfg.Sites), distmat.WithEpsilon(0.05),
		distmat.WithBits(16), distmat.WithSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	qitems := make([]distmat.WeightedItem, len(items))
	for i, it := range items {
		qitems[i] = distmat.WeightedItem{Elem: it.Elem % (1 << 16), Weight: it.Weight}
	}
	start = time.Now()
	if err := qsess.ProcessItems(qitems); err != nil {
		return nil, err
	}
	out = append(out, ingestResult("quantile", "qdigest", qsess, len(qitems), time.Since(start)))

	// The sharded quantile counterpart: the same q-digest tracker behind a
	// 4-shard merge-on-query wrapper fed the identical capped-universe item
	// stream, timed through the same Stats() barrier as the other sharded
	// entries.
	{
		const shardCount = 4
		qs, err := distmat.NewQuantileSession(
			distmat.WithSites(cfg.Sites), distmat.WithEpsilon(0.05),
			distmat.WithBits(16), distmat.WithSeed(cfg.Seed),
			distmat.WithShards(shardCount))
		if err != nil {
			return nil, err
		}
		defer qs.Close()
		start = time.Now()
		if err := qs.ProcessItems(qitems); err != nil {
			return nil, err
		}
		qs.Stats() // merge barrier: every dealt chunk applied
		res := ingestResult("quantile", "qdigest-sharded", qs, len(qitems), time.Since(start))
		res.Shards = shardCount
		out = append(out, res)
	}

	return out, nil
}

// wireIngestBench times the p2-wire entry: an in-memory service manager
// behind a loopback wire listener, fed by a SiteConn streaming the bench
// rows as numbered blocks. The timed section runs from the first
// SendBlock to a Drain (applied-watermark barrier), so queued and
// in-flight blocks are counted.
func wireIngestBench(cfg Config, rows [][]float64, matDim int) (IngestResult, error) {
	var res IngestResult
	mgr, err := service.Open(service.Options{})
	if err != nil {
		return res, err
	}
	defer mgr.Close()
	tr, err := mgr.Create("bench", service.Spec{
		Kind: service.KindMatrix, Protocol: "p2", Sites: cfg.Sites,
		Epsilon: 0.1, Dim: matDim, Seed: cfg.Seed, Fast: true,
	})
	if err != nil {
		return res, err
	}
	ln, err := wire.NewCoordListener("127.0.0.1:0", mgr.WireBridge())
	if err != nil {
		return res, err
	}
	defer ln.Close()
	go ln.Serve()
	sc, err := wire.Dial(wire.SiteConfig{Addr: ln.Addr(), Site: 0, Tracker: "bench"})
	if err != nil {
		return res, err
	}
	defer sc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	const block = 1024
	start := time.Now()
	for i := 0; i < len(rows); i += block {
		end := i + block
		if end > len(rows) {
			end = len(rows)
		}
		if err := sc.SendBlock(rows[i:end]); err != nil {
			return res, err
		}
	}
	if err := sc.Drain(ctx); err != nil {
		return res, err
	}
	elapsed := time.Since(start)

	st := ln.Stats().Snapshot()
	res = IngestResult{
		Problem: "matrix", Protocol: "p2-wire", Mode: "fast",
		Sites: cfg.Sites, Epsilon: 0.1, Dim: matDim, N: len(rows),
		Seconds:  elapsed.Seconds(),
		Messages: tr.Stats().Total(),
		NetMsgs:  st.FramesIn + st.FramesOut,
		NetBytes: st.BytesIn + st.BytesOut,
	}
	if res.Seconds > 0 {
		res.RowsPerSec = float64(res.N) / res.Seconds
	}
	if res.N > 0 {
		res.MessagesPerUpdate = float64(res.Messages) / float64(res.N)
		res.NetMsgsPerUpdate = float64(res.NetMsgs) / float64(res.N)
		res.NetBytesPerUpdate = float64(res.NetBytes) / float64(res.N)
	}
	return res, nil
}

// walIngestBench times the p2-wal entry: the p2-blocked stream pushed
// through Tracker.IngestRows on a WAL-enabled manager over a throwaway
// data directory, so the artifact tracks the write-ahead log's ingest
// overhead (encode + group-commit fsync per acked batch) release over
// release.
func walIngestBench(cfg Config, rows [][]float64, matDim int) (IngestResult, error) {
	var res IngestResult
	dir, err := os.MkdirTemp("", "distmat-bench-wal-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	mgr, err := service.Open(service.Options{DataDir: dir, WAL: true})
	if err != nil {
		return res, err
	}
	defer mgr.Close()
	tr, err := mgr.Create("bench", service.Spec{
		Kind: service.KindMatrix, Protocol: "p2", Sites: cfg.Sites,
		Epsilon: 0.1, Dim: matDim, Seed: cfg.Seed, Fast: true,
	})
	if err != nil {
		return res, err
	}
	ctx := context.Background()
	const block = 1024
	start := time.Now()
	for i := 0; i < len(rows); i += block {
		end := min(i+block, len(rows))
		if err := tr.IngestRows(ctx, 0, rows[i:end]); err != nil {
			return res, err
		}
	}
	elapsed := time.Since(start)

	res = IngestResult{
		Problem: "matrix", Protocol: "p2-wal", Mode: "fast",
		Sites: cfg.Sites, Epsilon: 0.1, Dim: matDim, N: len(rows),
		Seconds:  elapsed.Seconds(),
		Messages: tr.Stats().Total(),
	}
	if res.Seconds > 0 {
		res.RowsPerSec = float64(res.N) / res.Seconds
	}
	if res.N > 0 {
		res.MessagesPerUpdate = float64(res.Messages) / float64(res.N)
	}
	return res, nil
}

// tenancyIngestBench times the p2-tenancy entry: the p2-wal stream dealt
// round-robin across trackers on a WAL-enabled manager whose resident
// cap is half the tracker count, so the run alternates hibernations and
// fault-ins continuously — the eviction checkpoint, session restore, and
// per-tracker WAL-replay cursor all sit on the timed path. The artifact
// tracks the million-tracker tenancy machinery's overhead release over
// release.
func tenancyIngestBench(cfg Config, rows [][]float64, matDim int) (IngestResult, error) {
	const (
		trackers = 8
		resident = 4
	)
	var res IngestResult
	dir, err := os.MkdirTemp("", "distmat-bench-tenancy-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	mgr, err := service.Open(service.Options{DataDir: dir, WAL: true, MaxResident: resident})
	if err != nil {
		return res, err
	}
	defer mgr.Close()
	trs := make([]*service.Tracker, trackers)
	for i := range trs {
		trs[i], err = mgr.Create(fmt.Sprintf("bench%d", i), service.Spec{
			Kind: service.KindMatrix, Protocol: "p2", Sites: cfg.Sites,
			Epsilon: 0.1, Dim: matDim, Seed: cfg.Seed, Fast: true,
		})
		if err != nil {
			return res, err
		}
	}
	ctx := context.Background()
	const block = 1024
	start := time.Now()
	for i, b := 0, 0; i < len(rows); i, b = i+block, b+1 {
		end := min(i+block, len(rows))
		if err := trs[b%trackers].IngestRows(ctx, 0, rows[i:end]); err != nil {
			return res, err
		}
	}
	elapsed := time.Since(start)

	var messages int64
	for _, tr := range trs {
		messages += tr.Stats().Total()
	}
	res = IngestResult{
		Problem: "matrix", Protocol: "p2-tenancy", Mode: "fast",
		Sites: cfg.Sites, Epsilon: 0.1, Dim: matDim, N: len(rows),
		Seconds:  elapsed.Seconds(),
		Messages: messages,
	}
	if res.Seconds > 0 {
		res.RowsPerSec = float64(res.N) / res.Seconds
	}
	if res.N > 0 {
		res.MessagesPerUpdate = float64(res.Messages) / float64(res.N)
	}
	return res, nil
}

// sketchResult is ingestResult for the standalone FD sketch rows, which
// have no session (no sites, no messages): Epsilon records the sketch's
// deterministic 1/(ℓ+1) bound.
func sketchResult(proto string, ell, d, n int, elapsed time.Duration) IngestResult {
	res := IngestResult{
		Problem:  "matrix-sketch",
		Protocol: proto,
		Sites:    1,
		Epsilon:  1 / float64(ell+1),
		Dim:      d,
		N:        n,
		Seconds:  elapsed.Seconds(),
	}
	if res.Seconds > 0 {
		res.RowsPerSec = float64(n) / res.Seconds
	}
	return res
}

func ingestResult(problem, proto string, sess *distmat.Session, n int, elapsed time.Duration) IngestResult {
	stats := sess.Stats()
	cfg := sess.Config()
	res := IngestResult{
		Problem: problem, Protocol: proto,
		Sites: cfg.Sites, Epsilon: cfg.Epsilon, N: n,
		Seconds:  elapsed.Seconds(),
		Messages: stats.Total(),
	}
	if res.Seconds > 0 {
		res.RowsPerSec = float64(n) / res.Seconds
	}
	if n > 0 {
		res.MessagesPerUpdate = float64(stats.Total()) / float64(n)
	}
	return res
}

// IngestPair aligns one benchmark entry across two artifacts for
// cmd/benchcompare. HasOld is false for entries added in the new artifact;
// Note flags metadata drift — a mode or shards column present on one side
// only (older artifacts predate those columns) or changed — so such entries
// diff cleanly instead of erroring or silently comparing unlike runs.
type IngestPair struct {
	Key      string
	New, Old IngestResult
	HasOld   bool
	Note     string
}

// ingestBaseKey is the alignment identity: protocol strings already encode
// the feed variant (p2, p2+batch, p2-blocked, p2-sharded, ...).
func ingestBaseKey(r IngestResult) string { return r.Problem + "/" + r.Protocol }

// ingestFullKey additionally pins the mode and shard columns, for artifacts
// that carry the same base key more than once.
func ingestFullKey(r IngestResult) string {
	return fmt.Sprintf("%s|%s|%d", ingestBaseKey(r), r.Mode, r.Shards)
}

// MatchIngestResults aligns two artifacts' entries. Each new entry matches
// the old entry with the same problem/protocol/mode/shards when one exists,
// and otherwise falls back to the plain problem/protocol identity — the
// path taken against older artifacts whose entries predate the mode (PR 4)
// or shards columns; the pair's Note records the drift. The fallback is
// skipped when it would be ambiguous (the old artifact carries the base key
// more than once). Old entries matched by nothing are returned as removed,
// in input order.
func MatchIngestResults(olds, news []IngestResult) (pairs []IngestPair, removed []IngestResult) {
	byFull := make(map[string]int, len(olds))
	byBase := make(map[string]int, len(olds))
	baseCount := make(map[string]int, len(olds))
	for i, r := range olds {
		byFull[ingestFullKey(r)] = i
		byBase[ingestBaseKey(r)] = i
		baseCount[ingestBaseKey(r)]++
	}
	// Two passes so exact full-key matches always win: only old entries no
	// full-key match claimed are available to the fallback, and an old
	// entry feeds at most one pair — when the new artifact splits one old
	// base key across several mode/shards columns, the extras report as
	// added rather than diffing against an already-consumed baseline.
	used := make([]bool, len(olds))
	pairs = make([]IngestPair, len(news))
	for pi, n := range news {
		pairs[pi] = IngestPair{Key: ingestBaseKey(n), New: n}
		if i, ok := byFull[ingestFullKey(n)]; ok && !used[i] {
			pairs[pi].Old, pairs[pi].HasOld = olds[i], true
			used[i] = true
		}
	}
	for pi := range pairs {
		if pairs[pi].HasOld {
			continue
		}
		n := pairs[pi].New
		if i, ok := byBase[ingestBaseKey(n)]; ok && baseCount[ingestBaseKey(n)] == 1 && !used[i] {
			pairs[pi].Old, pairs[pi].HasOld = olds[i], true
			used[i] = true
			pairs[pi].Note = ingestDriftNote(olds[i], n)
		}
	}
	for i, r := range olds {
		if !used[i] {
			removed = append(removed, r)
		}
	}
	return pairs, removed
}

// ingestDriftNote describes how the old entry's mode/shards metadata
// differs from the new one's ("" when identical).
func ingestDriftNote(old, new IngestResult) string {
	col := func(mode string, shards int) string {
		s := mode
		if s == "" {
			s = "—"
		}
		if shards > 1 {
			s = fmt.Sprintf("%s×%d", s, shards)
		}
		return s
	}
	o, n := col(old.Mode, old.Shards), col(new.Mode, new.Shards)
	if o == n {
		return ""
	}
	return fmt.Sprintf("mode/shards %s→%s", o, n)
}

// ReadIngestBenchJSON parses a BENCH_ingest.json document from disk; the
// cmd/benchcompare tool uses it to diff perf artifacts across revisions.
func ReadIngestBenchJSON(path string) (IngestBenchDoc, error) {
	var doc IngestBenchDoc
	f, err := os.Open(path)
	if err != nil {
		return doc, err
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return doc, fmt.Errorf("decoding %s: %w", path, err)
	}
	return doc, nil
}

// WriteIngestBenchJSON runs the ingestion benchmark and writes the
// BENCH_ingest.json document to w.
func (r *Runner) WriteIngestBenchJSON(w io.Writer) error {
	results, err := r.IngestBench()
	if err != nil {
		return fmt.Errorf("ingest bench: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(IngestBenchDoc{
		GeneratedUnix: time.Now().Unix(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Results:       results,
	})
}
