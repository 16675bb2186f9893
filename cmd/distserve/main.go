// Command distserve runs the multi-tenant continuous-tracking server: many
// named trackers (matrix / heavy-hitters / quantile, any registered
// protocol) behind an HTTP/JSON API, with sharded ingestion, per-tracker
// communication metrics, and checkpointed recovery — restart the daemon on
// the same -data directory and every persistable tracker resumes where it
// left off.
//
// With -wire the daemon also opens the binary wire listener, the
// coordinator end of cmd/distsite's block streams: framed row blocks feed
// the same tracker batch path as HTTP ingestion, with per-site sequence
// watermarks giving exactly-once application across reconnects and
// coordinator restarts. /metrics then carries a "wire" section with
// network messages and bytes per update.
//
// With -wal (on by default when -data is set) direct and HTTP ingestion
// is additionally covered by a write-ahead block log under DIR/wal: a
// batch is acknowledged only once it is fsync-durable, recovery replays
// the log beyond each tracker's checkpoint (truncating a torn tail from
// a crash mid-write), and a persistently failing disk flips the daemon
// into degraded mode — ingest answers 503 + Retry-After while queries
// keep serving, until the background loop re-arms durability. See the
// README's "Durability model" for which window each mechanism covers.
//
// A batch is applied on the goroutine that serves its request or wire
// connection, so an unsharded tracker costs the daemon no goroutine. With
// -max-resident N the daemon additionally caps how many tracker sessions
// stay in memory: past the cap, the least-recently-used idle tracker is
// hibernated to its checkpoint and faulted back in — bit-identically,
// from that checkpoint alone, never reading the WAL — on its next ingest
// or query.
// Together these let one daemon host far more trackers than fit as live
// sessions. See the README's "Tenancy" section.
//
// Usage:
//
//	distserve [-addr :9146] [-wire :9147] [-data DIR] [-checkpoint 30s]
//	          [-wal] [-wal-flush 0s] [-wal-segment 16777216]
//	          [-quarantine-corrupt] [-max-resident N] [-quiet]
//
// See the README's "Running distserve" and "Multi-node deployment"
// sections for walkthroughs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

func main() {
	var (
		addr    = flag.String("addr", ":9146", "HTTP listen address")
		wireA   = flag.String("wire", "", "wire listener address for site block streams (empty disables)")
		data    = flag.String("data", "distserve-data", "checkpoint directory (empty disables persistence)")
		ckpt    = flag.Duration("checkpoint", 30*time.Second, "periodic checkpoint interval (0 disables)")
		useWAL  = flag.Bool("wal", true, "write-ahead log: fsync every batch before acking (needs -data)")
		walFl   = flag.Duration("wal-flush", 0, "WAL group-commit interval (0 = leader commit per batch)")
		walSeg  = flag.Int64("wal-segment", 0, "WAL segment rotation threshold in bytes (default 16MiB)")
		quarant = flag.Bool("quarantine-corrupt", false, "set corrupt checkpoints aside as .corrupt and keep starting")
		maxRes  = flag.Int("max-resident", 0, "max tracker sessions resident in memory; 0 = unlimited (needs -data)")
		quiet   = flag.Bool("quiet", false, "suppress operational logging")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "distserve: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	mgr, err := service.Open(service.Options{
		DataDir:            *data,
		CheckpointInterval: *ckpt,
		WAL:                *useWAL && *data != "",
		WALFlushInterval:   *walFl,
		WALSegmentBytes:    *walSeg,
		QuarantineCorrupt:  *quarant,
		MaxResident:        *maxRes,
		Logf:               logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "distserve: %v\n", err)
		os.Exit(1)
	}

	var wl *wire.CoordListener
	if *wireA != "" {
		wl, err = wire.NewCoordListener(*wireA, mgr.WireBridge())
		if err != nil {
			fmt.Fprintf(os.Stderr, "distserve: wire listener: %v\n", err)
			os.Exit(1)
		}
		mgr.SetWireStats(wl.Stats())
		go func() {
			if err := wl.Serve(); !errors.Is(err, wire.ErrClosed) {
				logger.Printf("wire listener: %v", err)
			}
		}()
		logf("wire listener on %s", wl.Addr())
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mgr.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logf("listening on %s (data=%q checkpoint=%v wal=%v)", *addr, *data, *ckpt, *useWAL && *data != "")
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "distserve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logf("shutting down: draining HTTP, taking final checkpoint")
	if wl != nil {
		// Dropped sites reconnect with backoff and resume from their
		// acked watermarks once the daemon is back.
		if err := wl.Close(); err != nil {
			logger.Printf("wire shutdown: %v", err)
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("HTTP shutdown: %v", err)
	}
	if err := mgr.Close(); err != nil {
		logger.Printf("final checkpoint: %v", err)
		os.Exit(1)
	}
	logf("bye")
}
