package service

import (
	"time"

	"repro/internal/wal"
)

// TrackerMetrics is one tracker's row in the /metrics document: the
// communication Stats the paper measures (up/down messages with the
// size-weighted unit split), ingest throughput, queue depth, and
// checkpoint status.
type TrackerMetrics struct {
	Kind     string `json:"kind"`
	Protocol string `json:"protocol"`

	Count    int64 `json:"count"`     // total rows/items in the session
	Ingested int64 `json:"ingested"`  // applied since create/restore
	Batches  int64 `json:"batches"`   // blocked batches applied
	Rejected int64 `json:"rejected"`  // batches refused by backpressure
	QueueLen int   `json:"queue_len"` // ingest calls admitted, not yet answered

	UpMsgs     int64 `json:"up_msgs"`
	DownMsgs   int64 `json:"down_msgs"`
	Broadcasts int64 `json:"broadcasts"`
	UpUnits    int64 `json:"up_units"`
	DownUnits  int64 `json:"down_units"`

	// MessagesPerUpdate is the headline efficiency ratio: total messages
	// divided by rows/items ingested (0 when empty). A tracker fed P2
	// site messages ingests no rows and a msg-block carries no row
	// count, so for it Count, Ingested, MessagesPerUpdate and NetRows
	// read 0, and its cost shows only as UpMsgs and Broadcasts.
	MessagesPerUpdate float64 `json:"messages_per_update"`

	// IngestPerSec is rows/items applied per second of tracker lifetime.
	IngestPerSec float64 `json:"ingest_per_sec"`

	// Shards and ShardRows report the tracker-level compute sharding of a
	// tracker created with Spec.Shards > 1: the shard count and the rows
	// (matrix) or items (heavy-hitters, quantile) dealt to each shard.
	// Omitted for unsharded trackers.
	Shards    int     `json:"shards,omitempty"`
	ShardRows []int64 `json:"shard_rows,omitempty"`

	// Wire-stream ingestion, omitted for trackers no site streams to:
	// blocks and rows applied through the wire listener, and retransmitted
	// duplicates the sequence dedup dropped.
	NetBlocks    int64 `json:"net_blocks,omitempty"`
	NetRows      int64 `json:"net_rows,omitempty"`
	NetDupBlocks int64 `json:"net_dup_blocks,omitempty"`

	// Resident reports whether the tracker currently holds its session;
	// false means it is hibernated — a stub whose state lives entirely in
	// its checkpoint file until the next touch faults it in.
	Resident bool `json:"resident"`

	Persistable        bool   `json:"persistable"`
	LastCheckpointUnix int64  `json:"last_checkpoint_unix,omitempty"`
	CheckpointError    string `json:"checkpoint_error,omitempty"`
}

// TenancyMetrics is the /metrics tenancy section: the hibernation
// working set. Evictions and faults count session round-trips through
// the checkpoint file.
type TenancyMetrics struct {
	Trackers    int   `json:"trackers"`
	Resident    int64 `json:"resident"`
	Hibernated  int64 `json:"hibernated"`
	MaxResident int   `json:"max_resident,omitempty"`
	Faults      int64 `json:"faults"`
	Evictions   int64 `json:"evictions"`
}

// WireMetrics is the /metrics network section: the wire listener's frame
// and byte counters plus the headline per-update ratios — wire messages
// and bytes divided by rows applied through the wire path. It mirrors
// the paper's communication-cost framing at the transport layer: the
// protocol counters (up/down messages) measure what the algorithms say,
// these measure what the network carries. Rows a site ran through P2's
// site half itself are not counted in NetRows, so the ratios leave
// message-mode traffic out of the denominator (and read 0 when only
// message-mode sites stream).
type WireMetrics struct {
	FramesIn  int64 `json:"frames_in"`
	BytesIn   int64 `json:"bytes_in"`
	FramesOut int64 `json:"frames_out"`
	BytesOut  int64 `json:"bytes_out"`
	NetRows   int64 `json:"net_rows"`

	MsgsPerUpdate  float64 `json:"net_msgs_per_update"`
	BytesPerUpdate float64 `json:"net_bytes_per_update"`
}

// DurabilityMetrics is the /metrics durability section, present on
// WAL-enabled managers: the write-ahead log's counters plus the
// degraded-mode state read from them (ingest rejected with 503 until the
// log's re-arm loop restores the disk).
type DurabilityMetrics struct {
	Degraded      bool   `json:"degraded"`
	DegradedError string `json:"degraded_error,omitempty"`
	TimesDegraded int64  `json:"times_degraded,omitempty"`
	TimesRearmed  int64  `json:"times_rearmed,omitempty"`

	WAL wal.Stats `json:"wal"`
}

// Metrics is the /metrics document.
type Metrics struct {
	UptimeSeconds float64                   `json:"uptime_seconds"`
	Trackers      map[string]TrackerMetrics `json:"trackers"`

	// Tenancy is the hibernation section.
	Tenancy TenancyMetrics `json:"tenancy"`

	// QuarantinedCheckpoints counts corrupt checkpoint files renamed
	// aside by Options.QuarantineCorrupt during Open.
	QuarantinedCheckpoints int64 `json:"quarantined_checkpoints,omitempty"`

	// Durability is present on WAL-enabled managers.
	Durability *DurabilityMetrics `json:"durability,omitempty"`

	// Wire is present when the process runs a wire listener (distserve
	// -wire).
	Wire *WireMetrics `json:"wire,omitempty"`
}

// metrics assembles one tracker's row. Safe during ingestion and never
// stalls it: counters are atomic, the communication accountant is
// mutex-guarded, and sharded trackers are read through the relaxed path
// (no merge barrier — the tally may trail in-flight blocks slightly).
// A hibernated tracker answers from its stub caches — a /metrics scrape
// must never fault sessions back in.
func (t *Tracker) metrics() TrackerMetrics {
	stats := t.statsRelaxed()
	count := t.Count()
	tm := TrackerMetrics{
		Kind:     t.spec.Kind,
		Protocol: t.spec.Protocol,

		Count:    count,
		Ingested: t.ingested.Load(),
		Batches:  t.batches.Load(),
		Rejected: t.rejected.Load(),
		QueueLen: t.QueueLen(),

		UpMsgs:     stats.UpMsgs,
		DownMsgs:   stats.DownMsgs,
		Broadcasts: stats.Broadcasts,
		UpUnits:    stats.UpUnits,
		DownUnits:  stats.DownUnits,

		Resident:    t.resident(),
		Persistable: t.persistable,
	}
	if shards, rows := t.ShardInfo(); shards > 1 {
		tm.Shards = shards
		tm.ShardRows = rows
	}
	tm.NetBlocks = t.wireBlocks.Load()
	tm.NetRows = t.wireRows.Load()
	tm.NetDupBlocks = t.wireDups.Load()
	if count > 0 {
		tm.MessagesPerUpdate = float64(stats.Total()) / float64(count)
	}
	if alive := time.Since(t.created).Seconds(); alive > 0 {
		tm.IngestPerSec = float64(tm.Ingested) / alive
	}
	if at, errStr := t.LastCheckpoint(); !at.IsZero() || errStr != "" {
		tm.LastCheckpointUnix = at.Unix()
		tm.CheckpointError = errStr
		if at.IsZero() {
			tm.LastCheckpointUnix = 0
		}
	}
	return tm
}

// Metrics assembles the full /metrics document.
func (m *Manager) Metrics() Metrics {
	out := Metrics{
		UptimeSeconds:          m.Uptime().Seconds(),
		Trackers:               make(map[string]TrackerMetrics),
		QuarantinedCheckpoints: m.quarantined.Load(),
	}
	if m.wal != nil {
		st := m.wal.Stats()
		out.Durability = &DurabilityMetrics{
			Degraded:      st.Damaged != "",
			DegradedError: st.Damaged,
			TimesDegraded: st.Degradations,
			TimesRearmed:  st.Rearms,
			WAL:           st,
		}
	}
	var netRows int64
	ten := TenancyMetrics{
		MaxResident: m.opts.MaxResident,
		Faults:      m.faults.Load(),
		Evictions:   m.evictions.Load(),
	}
	for _, t := range m.List() {
		tm := t.metrics()
		out.Trackers[t.name] = tm
		netRows += tm.NetRows
		ten.Trackers++
		if tm.Resident {
			ten.Resident++
		} else {
			ten.Hibernated++
		}
	}
	out.Tenancy = ten
	if l := m.wireL.Load(); l != nil {
		snap := l.Stats().Snapshot()
		wm := &WireMetrics{
			FramesIn:  snap.FramesIn,
			BytesIn:   snap.BytesIn,
			FramesOut: snap.FramesOut,
			BytesOut:  snap.BytesOut,
			NetRows:   netRows,
		}
		if netRows > 0 {
			wm.MsgsPerUpdate = float64(snap.FramesIn+snap.FramesOut) / float64(netRows)
			wm.BytesPerUpdate = float64(snap.BytesIn+snap.BytesOut) / float64(netRows)
		}
		out.Wire = wm
	}
	return out
}
