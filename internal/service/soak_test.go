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

// soakTracker is one tracker of a soak: its spec, the generator of each
// site's batches (called once per site with the batch length; the function
// it returns yields the site's next batch on every call), and the query
// whose answer must survive restore bit for bit.
type soakTracker struct {
	name  string
	spec  service.Spec
	feed  func(site, n int) func() any
	query string
}

// soak is the race/soak driver for the service's concurrent paths: one
// feeder per (tracker, site) POSTs that site's batches (batches of batchLen
// rows or items each) while a checkpointer hammers POST checkpoint and a
// reader hammers GET query and /metrics, both cycling through the trackers
// in table order. It then checks exact counts and the per-shard metrics
// (shard_rows sums to the total when shards > 1, omitted otherwise),
// closes the manager (final checkpoint), reopens it from the data
// directory and requires every answer to be bit-identical.
func soak(t *testing.T, sites, batches, batchLen int, trackers []soakTracker) {
	t.Helper()
	opts := service.Options{DataDir: filepath.Join(t.TempDir(), "data")}
	mgr, err := service.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mgr.Handler())
	client := srv.Client()
	u := func(format string, args ...any) string { return srv.URL + fmt.Sprintf(format, args...) }
	for _, tr := range trackers {
		code, doc := httpDo(t, client, http.MethodPut, u("/trackers/%s", tr.name), tr.spec)
		mustStatus(t, code, http.StatusCreated, doc)
	}

	errs := make(chan error, len(trackers)*sites+2)

	var feeders sync.WaitGroup
	for _, tr := range trackers {
		route := "rows"
		if tr.spec.Kind != service.KindMatrix {
			route = "items"
		}
		for site := 0; site < sites; site++ {
			feeders.Add(1)
			go func() {
				defer feeders.Done()
				next := tr.feed(site, batchLen)
				for b := 0; b < batches; b++ {
					code, doc := httpDo(t, client, http.MethodPost, u("/trackers/%s/%s", tr.name, route),
						map[string]any{"site": site, route: next()})
					if code != http.StatusOK {
						errs <- fmt.Errorf("%s site %d batch %d: status %d (%v)", tr.name, site, b, code, doc)
						return
					}
				}
			}()
		}
	}

	// Checkpointer and reader race the feeders until they finish.
	stop := make(chan struct{})
	var loops sync.WaitGroup
	loop := func(pause time.Duration, step func(tr soakTracker) error) {
		loops.Add(1)
		go func() {
			defer loops.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(trackers[i%len(trackers)]); err != nil {
					errs <- err
					return
				}
				time.Sleep(pause)
			}
		}()
	}
	loop(2*time.Millisecond, func(tr soakTracker) error {
		if code, doc := httpDo(t, client, http.MethodPost, u("/trackers/%s/checkpoint", tr.name), nil); code != http.StatusOK {
			return fmt.Errorf("checkpoint %s: status %d (%v)", tr.name, code, doc)
		}
		return nil
	})
	loop(time.Millisecond, func(tr soakTracker) error {
		if code, doc := httpDo(t, client, http.MethodGet, u("/trackers/%s/query?%s", tr.name, tr.query), nil); code != http.StatusOK {
			return fmt.Errorf("query %s: status %d (%v)", tr.name, code, doc)
		}
		if code, _ := httpDo(t, client, http.MethodGet, u("/metrics"), nil); code != http.StatusOK {
			return fmt.Errorf("metrics: status %d", code)
		}
		return nil
	})

	feeders.Wait()
	close(stop)
	loops.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Every acknowledged batch is applied once the POST returns, so counts
	// and the per-shard split are exact.
	total := float64(sites * batches * batchLen)
	code, metricsDoc := httpDo(t, client, http.MethodGet, u("/metrics"), nil)
	mustStatus(t, code, http.StatusOK, metricsDoc)
	tm := metricsDoc["trackers"].(map[string]any)
	before := make(map[string]map[string]any)
	for _, tr := range trackers {
		doc := tm[tr.name].(map[string]any)
		if tr.spec.Shards > 1 {
			if got := doc["shards"].(float64); got != float64(tr.spec.Shards) {
				t.Fatalf("%s metrics shards = %v, want %d", tr.name, got, tr.spec.Shards)
			}
			var dealt float64
			for _, n := range doc["shard_rows"].([]any) {
				dealt += n.(float64)
			}
			if dealt != total {
				t.Fatalf("%s shard_rows sum to %v, want %v", tr.name, dealt, total)
			}
		} else if _, ok := doc["shards"]; ok {
			t.Fatalf("%s: unsharded tracker reports a shards metric, want omitted", tr.name)
		}

		code, doc = httpDo(t, client, http.MethodGet, u("/trackers/%s", tr.name), nil)
		mustStatus(t, code, http.StatusOK, doc)
		if doc["count"].(float64) != total {
			t.Fatalf("%s count %v after soak, want %v", tr.name, doc["count"], total)
		}
		code, ans := httpDo(t, client, http.MethodGet, u("/trackers/%s/query?%s", tr.name, tr.query), nil)
		mustStatus(t, code, http.StatusOK, ans)
		before[tr.name] = ans
	}

	srv.Close()
	if err := mgr.Close(); err != nil { // final checkpoint + shutdown
		t.Fatal(err)
	}

	mgr2, err := service.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	srv2 := httptest.NewServer(mgr2.Handler())
	defer srv2.Close()
	for _, tr := range trackers {
		code, after := httpDo(t, srv2.Client(), http.MethodGet,
			srv2.URL+"/trackers/"+tr.name+"/query?"+tr.query, nil)
		mustStatus(t, code, http.StatusOK, after)
		if !reflect.DeepEqual(before[tr.name], after) {
			t.Fatalf("%s: restored query answer diverges:\nbefore: %v\nafter:  %v", tr.name, before[tr.name], after)
		}
	}
}

// normalRows feeds each site its own stream of N(0,1) rows of dim entries,
// drawn from seed+site.
func normalRows(seed int64, dim int) func(site, n int) func() any {
	return func(site, n int) func() any {
		rng := rand.New(rand.NewSource(seed + int64(site)))
		return func() any {
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = make([]float64, dim)
				for j := range rows[i] {
					rows[i][j] = rng.NormFloat64()
				}
			}
			return rows
		}
	}
}

// TestSoakConcurrentRowsCheckpointQueryRestore soaks the blocked service
// ingest path: one matrix tracker fed rows by every site.
func TestSoakConcurrentRowsCheckpointQueryRestore(t *testing.T) {
	const sites, dim = 5, 12
	soak(t, sites, 25, 30, []soakTracker{{
		name:  "soak",
		spec:  service.Spec{Kind: service.KindMatrix, Protocol: "p2", Sites: sites, Epsilon: 0.2, Dim: dim},
		feed:  normalRows(1000, dim),
		query: "gram=1",
	}})
}

// TestSoakShardedConcurrentIngestQueryCheckpointRestore soaks tracker-level
// compute sharding: a 4-shard fast-mode matrix tracker and its shards:1
// fallback twin — feeders, compute-shard workers, merge barriers and
// checkpoint serialization all interleaving under -race.
func TestSoakShardedConcurrentIngestQueryCheckpointRestore(t *testing.T) {
	const sites, dim = 4, 10
	tracker := func(name string, shards int) soakTracker {
		return soakTracker{
			name: name,
			spec: service.Spec{Kind: service.KindMatrix, Protocol: "p2", Sites: sites, Epsilon: 0.2, Dim: dim,
				Fast: true, Shards: shards},
			feed:  normalRows(500, dim),
			query: "gram=1",
		}
	}
	soak(t, sites, 20, 25, []soakTracker{tracker("sharded4", 4), tracker("sharded1", 1)})
}

// TestSoakShardedItemConcurrentIngestQueryCheckpointRestore extends the
// sharding soak to the item kinds: a 4-shard heavy-hitters tracker, its
// shards:1 twin and a 4-shard quantile tracker, all fed the same
// deterministic items — item deal workers and merge-on-query barriers
// interleaving with checkpoint serialization under -race.
func TestSoakShardedItemConcurrentIngestQueryCheckpointRestore(t *testing.T) {
	const sites = 4
	items := func(site, n int) func() any {
		b := 0
		return func() any {
			items := make([]map[string]any, n)
			for i := range items {
				seq := (b*n + i) * (site + 1)
				items[i] = map[string]any{"elem": uint64(seq*31) % (1 << 12), "weight": 1 + float64(seq%5)}
			}
			b++
			return items
		}
	}
	soak(t, sites, 20, 25, []soakTracker{
		{name: "hot4", spec: service.Spec{Kind: service.KindHH, Protocol: "p2", Sites: sites, Epsilon: 0.05, Shards: 4},
			feed: items, query: "phi=0.05"},
		{name: "hot1", spec: service.Spec{Kind: service.KindHH, Protocol: "p2", Sites: sites, Epsilon: 0.05, Shards: 1},
			feed: items, query: "phi=0.05"},
		{name: "lat4", spec: service.Spec{Kind: service.KindQuantile, Sites: sites, Epsilon: 0.1, Bits: 12, Shards: 4},
			feed: items, query: "phi=0.5"},
	})
}
