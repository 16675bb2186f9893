package service_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// TestSoakShardedItemConcurrentIngestQueryCheckpointRestore extends the
// sharding soak to the item kinds: a 4-shard heavy-hitters tracker, its
// shards:1 twin, and a 4-shard quantile tracker take concurrent POST items
// batches from every site while a checkpointer and a query/metrics reader
// hammer the API — item deal workers, merge-on-query barriers, and
// checkpoint serialization all interleaving under -race. The manager is
// then closed and reopened, and every tracker must answer its queries
// bit-identically with exact counts.
func TestSoakShardedItemConcurrentIngestQueryCheckpointRestore(t *testing.T) {
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
		batches  = 20
		batchLen = 25
	)
	specs := map[string]service.Spec{
		"hot4": {Kind: service.KindHH, Protocol: "p2", Sites: sites, Epsilon: 0.05, Shards: 4},
		"hot1": {Kind: service.KindHH, Protocol: "p2", Sites: sites, Epsilon: 0.05, Shards: 1},
		"lat4": {Kind: service.KindQuantile, Sites: sites, Epsilon: 0.1, Bits: 12, Shards: 4},
	}
	queries := map[string]string{"hot4": "phi=0.05", "hot1": "phi=0.05", "lat4": "phi=0.5"}
	names := []string{"hot4", "hot1", "lat4"}
	for name, sp := range specs {
		code, doc := httpDo(t, client, http.MethodPut, u("/trackers/%s", name), sp)
		mustStatus(t, code, http.StatusCreated, doc)
	}

	errs := make(chan error, len(names)*sites+2)

	// Feeders: one goroutine per (tracker, site) posting its substream —
	// the same deterministic items to every tracker, so hot4 and hot1 see
	// identical feeds.
	var feeders sync.WaitGroup
	for _, name := range names {
		for site := 0; site < sites; site++ {
			feeders.Add(1)
			go func(name string, site int) {
				defer feeders.Done()
				for b := 0; b < batches; b++ {
					items := make([]map[string]any, batchLen)
					for i := range items {
						seq := (b*batchLen + i) * (site + 1)
						items[i] = map[string]any{
							"elem":   uint64(seq*31) % (1 << 12),
							"weight": 1 + float64(seq%5),
						}
					}
					code, doc := httpDo(t, client, http.MethodPost, u("/trackers/%s/items", name),
						map[string]any{"site": site, "items": items})
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
			name := names[i%len(names)]
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
			name := names[i%len(names)]
			code, doc := httpDo(t, client, http.MethodGet, u("/trackers/%s/query?%s", name, queries[name]), nil)
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

	// Per-shard metrics: each sharded item tracker reports its item split
	// summing to everything ingested; the shards:1 twin reports none.
	code, metricsDoc := httpDo(t, client, http.MethodGet, u("/metrics"), nil)
	mustStatus(t, code, http.StatusOK, metricsDoc)
	itemsTotal := float64(sites * batches * batchLen)
	tm := metricsDoc["trackers"].(map[string]any)
	for _, name := range []string{"hot4", "lat4"} {
		doc := tm[name].(map[string]any)
		if got := doc["shards"].(float64); got != 4 {
			t.Fatalf("%s metrics shards = %v, want 4", name, got)
		}
		var dealt float64
		for _, n := range doc["shard_rows"].([]any) {
			dealt += n.(float64)
		}
		if dealt != itemsTotal {
			t.Fatalf("%s shard_rows sum to %v, want %v", name, dealt, itemsTotal)
		}
	}
	if _, ok := tm["hot1"].(map[string]any)["shards"]; ok {
		t.Fatal("shards:1 twin reports a shards metric, want omitted")
	}

	// Every acknowledged batch is applied once the POST returns.
	before := make(map[string]map[string]any)
	for _, name := range names {
		code, doc := httpDo(t, client, http.MethodGet, u("/trackers/%s", name), nil)
		mustStatus(t, code, http.StatusOK, doc)
		if doc["count"].(float64) != itemsTotal {
			t.Fatalf("%s count %v after soak, want %v", name, doc["count"], itemsTotal)
		}
		code, ans := httpDo(t, client, http.MethodGet, u("/trackers/%s/query?%s", name, queries[name]), nil)
		mustStatus(t, code, http.StatusOK, ans)
		before[name] = ans
	}

	srv.Close()
	if err := mgr.Close(); err != nil { // final checkpoint + shutdown
		t.Fatal(err)
	}

	// Restore into a fresh manager and require bit-identical answers from
	// the sharded trackers and the twin.
	mgr2, err := service.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	srv2 := httptest.NewServer(mgr2.Handler())
	defer srv2.Close()
	for _, name := range names {
		code, after := httpDo(t, srv2.Client(), http.MethodGet,
			srv2.URL+"/trackers/"+name+"/query?"+queries[name], nil)
		mustStatus(t, code, http.StatusOK, after)
		if !reflect.DeepEqual(before[name], after) {
			t.Fatalf("%s: restored query answer diverges:\nbefore: %v\nafter:  %v", name, before[name], after)
		}
	}
}
