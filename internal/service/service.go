// Package service hosts the library's trackers as a long-lived,
// multi-tenant continuous-tracking server: the managed layer that turns
// the paper's coordinator-model protocols into something a production
// deployment can run (the ROADMAP's "heavy traffic from millions of
// users").
//
// A Manager owns many named trackers — matrix, heavy-hitters, or quantile
// sessions instantiated by name from the public Config/registry — and
// gives each one:
//
//   - Ingestion on the caller's goroutine: a feeder (an HTTP handler, a
//     wire connection's serving goroutine, or a direct Go caller) applies
//     its own batch under the tracker's lock — the coordinator is one
//     sequential state machine per tracker, and a site's batches arrive in
//     the order its one channel delivers them. The manager starts no
//     goroutine for ingest; it admits at most 64 ingest calls at once and
//     refuses one that waits 5 s for a slot (ErrBusy) instead of
//     buffering unboundedly. A tracker of any kind — matrix,
//     heavy-hitters or quantile — can additionally run P parallel compute
//     shards (Spec "shards"): core.ShardEngine deals posted blocks
//     round-robin across P private tracker instances and queries merge
//     the shard summaries, scaling the per-block hot path across cores.
//     Those P workers are the only ingest goroutines in the process.
//   - Checkpointed recovery: persistable sessions are periodically saved
//     (and always on Close) to one file per tracker in the data directory,
//     via the facade's SaveState/RestoreSession over the gob snapshots in
//     internal/{core,hh,quantile}. A Manager reopened on the same
//     directory restores every tracker and resumes the continuous
//     guarantee.
//   - Observability: per-tracker message-count Stats (readable while
//     ingesting — the stream.Accountant is mutex-guarded), ingest
//     throughput, queue depths, and checkpoint status, served as JSON
//     from /metrics.
//
// The HTTP/JSON surface (Manager.Handler) is:
//
//	PUT    /trackers/{name}             create from a Spec document
//	GET    /trackers                    list trackers
//	GET    /trackers/{name}             status + config echo
//	DELETE /trackers/{name}             remove tracker and its checkpoint
//	POST   /trackers/{name}/rows        ingest matrix rows
//	POST   /trackers/{name}/items       ingest weighted items / values
//	GET    /trackers/{name}/query       kind-dependent query (φ params)
//	POST   /trackers/{name}/checkpoint  force a checkpoint now
//	GET    /metrics                     per-tracker stats + throughput
//	GET    /healthz                     liveness
//
// The two ingest routes parse their body once, in place (ingestjson.go;
// grammar at ingestBuf.decode), into a pooled ingestBuf the handler owns
// for the whole request.
//
// cmd/distserve wraps the Manager in a daemon with graceful shutdown.
package service

import (
	"errors"
	"fmt"
	"regexp"

	distmat "repro"
)

// Service errors, matched with errors.Is. HTTP handlers map them to
// status codes (404, 409, 503, ...).
var (
	// ErrNotFound reports an unknown tracker name.
	ErrNotFound = errors.New("service: tracker not found")

	// ErrExists reports a create for a name already in use.
	ErrExists = errors.New("service: tracker already exists")

	// ErrBadName reports a tracker name outside [A-Za-z0-9][A-Za-z0-9_.-]{0,63}.
	ErrBadName = errors.New("service: invalid tracker name")

	// ErrClosed reports an operation on a closed manager or tracker.
	ErrClosed = errors.New("service: closed")

	// ErrBusy reports an ingest rejected by backpressure: every admission
	// slot stayed taken past the admission timeout.
	ErrBusy = errors.New("service: ingest queue full")

	// ErrDegraded reports a durable ingest refused because the manager's
	// write-ahead log lost its disk (a failed write or fsync) and the
	// service is running degraded: queries and metrics keep serving, but
	// nothing new may be acknowledged until the background re-arm loop
	// restores durability. HTTP maps it to 503 with a Retry-After header.
	ErrDegraded = errors.New("service: durability degraded")
)

// nameRE constrains tracker names so they are safe as file names (the
// checkpoint file is <name>.ckpt) and URL path segments.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// CheckName reports whether name is a valid tracker name.
func CheckName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("%w: %q (want [A-Za-z0-9][A-Za-z0-9_.-]{0,63})", ErrBadName, name)
	}
	return nil
}

// Tracker kinds accepted in a Spec.
const (
	KindMatrix   = "matrix"
	KindHH       = "heavy-hitters"
	KindQuantile = "quantile"
)

// Spec is the JSON document a tracker is created from: the wire form of
// the public Config plus the kind and registry protocol name. Zero fields
// take the library defaults (DefaultConfig), exactly as with functional
// options.
type Spec struct {
	Kind     string `json:"kind"`               // "matrix", "heavy-hitters" (alias "hh"), "quantile"
	Protocol string `json:"protocol,omitempty"` // registry name; default "p2" ("qdigest" for quantile)

	Sites      int     `json:"sites,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Dim        int     `json:"dim,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	Copies     int     `json:"copies,omitempty"`
	Rank       int     `json:"rank,omitempty"`
	Bits       uint    `json:"bits,omitempty"`
	Window     int     `json:"window,omitempty"`
	TrackExact bool    `json:"track_exact,omitempty"`
	// Fast opts the matrix protocols that support it into the blocked fast
	// ingest mode (Config.FastIngest): POST …/rows batches fold as whole
	// blocks with per-block decompositions.
	Fast bool `json:"fast,omitempty"`
	// Shards runs the tracker — matrix, heavy-hitters, or quantile — as P
	// parallel shards merged at query time (Config.Shards): posted blocks
	// are dealt round-robin across P compute workers, each with a private
	// tracker instance. For matrix trackers, combined with Fast this is
	// the service's highest-throughput configuration. Only windowed matrix
	// trackers reject Shards > 1.
	Shards int `json:"shards,omitempty"`
}

// options translates the set fields into functional options.
func (sp Spec) options() []distmat.Option {
	var opts []distmat.Option
	if sp.Sites != 0 {
		opts = append(opts, distmat.WithSites(sp.Sites))
	}
	if sp.Epsilon != 0 {
		opts = append(opts, distmat.WithEpsilon(sp.Epsilon))
	}
	if sp.Dim != 0 {
		opts = append(opts, distmat.WithDim(sp.Dim))
	}
	if sp.Seed != 0 {
		opts = append(opts, distmat.WithSeed(sp.Seed))
	}
	if sp.Copies != 0 {
		opts = append(opts, distmat.WithCopies(sp.Copies))
	}
	if sp.Rank != 0 {
		opts = append(opts, distmat.WithRank(sp.Rank))
	}
	if sp.Bits != 0 {
		opts = append(opts, distmat.WithBits(sp.Bits))
	}
	if sp.Window != 0 {
		opts = append(opts, distmat.WithWindow(sp.Window))
	}
	if sp.TrackExact {
		opts = append(opts, distmat.WithExactTracking())
	}
	if sp.Fast {
		opts = append(opts, distmat.WithFastIngest())
	}
	if sp.Shards != 0 {
		opts = append(opts, distmat.WithShards(sp.Shards))
	}
	return opts
}

// normalize canonicalizes the kind (accepting the "hh" alias) and fills
// the default protocol.
func (sp Spec) normalize() (Spec, error) {
	switch sp.Kind {
	case KindMatrix, KindQuantile:
	case KindHH, "hh":
		sp.Kind = KindHH
	default:
		return sp, fmt.Errorf("%w: unknown kind %q (want %q, %q, or %q)",
			distmat.ErrInvalidConfig, sp.Kind, KindMatrix, KindHH, KindQuantile)
	}
	if sp.Protocol == "" {
		if sp.Kind == KindQuantile {
			sp.Protocol = "qdigest"
		} else {
			sp.Protocol = "p2"
		}
	}
	return sp, nil
}

// build constructs the session a Spec describes.
func (sp Spec) build() (*distmat.Session, error) {
	switch sp.Kind {
	case KindMatrix:
		return distmat.NewMatrixSession(sp.Protocol, sp.options()...)
	case KindHH:
		return distmat.NewHHSession(sp.Protocol, sp.options()...)
	case KindQuantile:
		if sp.Protocol != "qdigest" {
			return nil, fmt.Errorf("%w: quantile protocol %q (registered: [qdigest])",
				distmat.ErrUnknownProtocol, sp.Protocol)
		}
		return distmat.NewQuantileSession(sp.options()...)
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", distmat.ErrInvalidConfig, sp.Kind)
	}
}
