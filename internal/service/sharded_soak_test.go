package service_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// TestSoakShardedConcurrentIngestQueryCheckpointRestore is the race/soak
// harness for tracker-level compute sharding: a 4-shard fast-mode matrix
// tracker and a shards:1 fallback twin take concurrent POST rows batches
// from every site while a checkpointer hammers POST checkpoint and a reader
// hammers GET query and /metrics (which reports the per-shard row split) —
// feeders, compute-shard workers, merge barriers, and checkpoint
// serialization all interleaving under -race. The manager is then closed
// (final checkpoint) and reopened, and both trackers must answer their
// queries bit-identically with exact counts.
func TestSoakShardedConcurrentIngestQueryCheckpointRestore(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	opts := service.Options{
		DataDir: dataDir,
	}
	mgr, err := service.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mgr.Handler())
	client := srv.Client()
	u := func(format string, args ...any) string { return srv.URL + fmt.Sprintf(format, args...) }

	const (
		sites    = 4
		dim      = 10
		batches  = 20
		batchLen = 25
	)
	trackers := []string{"sharded4", "sharded1"}
	for name, shards := range map[string]int{"sharded4": 4, "sharded1": 1} {
		code, doc := httpDo(t, client, http.MethodPut, u("/trackers/%s", name), service.Spec{
			Kind: service.KindMatrix, Protocol: "p2", Sites: sites, Epsilon: 0.2, Dim: dim,
			Fast: true, Shards: shards,
		})
		mustStatus(t, code, http.StatusCreated, doc)
	}

	errs := make(chan error, 2*sites+2)

	// Feeders: one goroutine per (tracker, site) posting its substream.
	var feeders sync.WaitGroup
	for _, name := range trackers {
		for site := 0; site < sites; site++ {
			feeders.Add(1)
			go func(name string, site int) {
				defer feeders.Done()
				rng := rand.New(rand.NewSource(int64(500 + site)))
				for b := 0; b < batches; b++ {
					rows := make([][]float64, batchLen)
					for i := range rows {
						row := make([]float64, dim)
						for j := range row {
							row[j] = rng.NormFloat64()
						}
						rows[i] = row
					}
					code, doc := httpDo(t, client, http.MethodPost, u("/trackers/%s/rows", name),
						map[string]any{"site": site, "rows": rows})
					if code != http.StatusOK {
						errs <- fmt.Errorf("%s site %d batch %d: status %d (%v)", name, site, b, code, doc)
						return
					}
				}
			}(name, site)
		}
	}

	// Checkpointer and reader race the feeders until they finish.
	stop := make(chan struct{})
	var loops sync.WaitGroup
	loops.Add(2)
	go func() {
		defer loops.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := trackers[i%len(trackers)]
			code, doc := httpDo(t, client, http.MethodPost, u("/trackers/%s/checkpoint", name), nil)
			if code != http.StatusOK {
				errs <- fmt.Errorf("checkpoint %s: status %d (%v)", name, code, doc)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() {
		defer loops.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := trackers[i%len(trackers)]
			code, doc := httpDo(t, client, http.MethodGet, u("/trackers/%s/query?gram=1", name), nil)
			if code != http.StatusOK {
				errs <- fmt.Errorf("query %s: status %d (%v)", name, code, doc)
				return
			}
			if code, _ := httpDo(t, client, http.MethodGet, u("/metrics"), nil); code != http.StatusOK {
				errs <- fmt.Errorf("metrics: status %d", code)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	feeders.Wait()
	close(stop)
	loops.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Per-shard metrics: the sharded tracker reports its 4-way row split
	// summing to everything ingested; the fallback reports none.
	code, metricsDoc := httpDo(t, client, http.MethodGet, u("/metrics"), nil)
	mustStatus(t, code, http.StatusOK, metricsDoc)
	rowsTotal := float64(sites * batches * batchLen)
	tm := metricsDoc["trackers"].(map[string]any)
	sharded := tm["sharded4"].(map[string]any)
	if got := sharded["shards"].(float64); got != 4 {
		t.Fatalf("sharded4 metrics shards = %v, want 4", got)
	}
	var dealt float64
	for _, n := range sharded["shard_rows"].([]any) {
		dealt += n.(float64)
	}
	if dealt != rowsTotal {
		t.Fatalf("sharded4 shard_rows sum to %v, want %v", dealt, rowsTotal)
	}
	if _, ok := tm["sharded1"].(map[string]any)["shards"]; ok {
		t.Fatal("shards:1 fallback reports a shards metric, want omitted")
	}

	// Every acknowledged batch is applied once the POST returns.
	before := make(map[string]map[string]any)
	for _, name := range trackers {
		code, doc := httpDo(t, client, http.MethodGet, u("/trackers/%s", name), nil)
		mustStatus(t, code, http.StatusOK, doc)
		if doc["count"].(float64) != rowsTotal {
			t.Fatalf("%s count %v after soak, want %v", name, doc["count"], rowsTotal)
		}
		code, ans := httpDo(t, client, http.MethodGet, u("/trackers/%s/query?gram=1", name), nil)
		mustStatus(t, code, http.StatusOK, ans)
		before[name] = ans
	}

	srv.Close()
	if err := mgr.Close(); err != nil { // kill: final checkpoint + shutdown
		t.Fatal(err)
	}

	// Restore into a fresh manager and require bit-identical answers from
	// both the sharded tracker and the fallback.
	mgr2, err := service.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	srv2 := httptest.NewServer(mgr2.Handler())
	defer srv2.Close()
	for _, name := range trackers {
		code, after := httpDo(t, srv2.Client(), http.MethodGet,
			srv2.URL+"/trackers/"+name+"/query?gram=1", nil)
		mustStatus(t, code, http.StatusOK, after)
		if !reflect.DeepEqual(before[name], after) {
			t.Fatalf("%s: restored query answer diverges:\nbefore: %v\nafter:  %v", name, before[name], after)
		}
	}
}
