package distmat

import (
	"repro/internal/quantile"
)

// ---- distributed weighted quantiles (companion problem) ----

// QuantileTracker continuously maintains ε-approximate weighted quantiles
// of a distributed stream, the sibling problem of heavy-hitters tracking
// (built on the same P1 skeleton with a mergeable q-digest summary).
type QuantileTracker = quantile.Tracker

// NewQuantile builds the distributed quantile tracker from functional
// options applied on top of DefaultConfig, consuming Sites, Epsilon, and
// Bits. Invalid configurations return ErrInvalidConfig. NewQuantile always
// builds a single tracker instance; WithShards(P) parallelism is a session
// concern — use NewQuantileSession for a sharded deployment.
func NewQuantile(opts ...Option) (*QuantileTracker, error) {
	cfg := NewConfig(opts...)
	if err := cfg.validateQuantile(); err != nil {
		return nil, err
	}
	return quantile.NewTracker(cfg.Sites, cfg.Epsilon, cfg.Bits), nil
}
