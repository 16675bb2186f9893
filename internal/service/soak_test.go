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

// TestSoakConcurrentRowsCheckpointQueryRestore is the race/soak harness
// for the blocked service ingest path: one matrix tracker takes concurrent
// POST rows batches from every site while a checkpointer hammers POST
// checkpoint and a reader hammers GET query and /metrics — the
// interleavings the race detector needs to see. The manager is then torn
// down (Close = crash-with-final-checkpoint) and reopened from the data
// directory, and the restored tracker must answer the query identically,
// bit for bit.
func TestSoakConcurrentRowsCheckpointQueryRestore(t *testing.T) {
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
		sites    = 5
		dim      = 12
		batches  = 25
		batchLen = 30
	)
	code, doc := httpDo(t, client, http.MethodPut, u("/trackers/soak"), service.Spec{
		Kind: service.KindMatrix, Protocol: "p2", Sites: sites, Epsilon: 0.2, Dim: dim,
	})
	mustStatus(t, code, http.StatusCreated, doc)

	errs := make(chan error, sites+2)

	// Feeders: one goroutine per site posting its own substream in batches.
	var feeders sync.WaitGroup
	for site := 0; site < sites; site++ {
		feeders.Add(1)
		go func(site int) {
			defer feeders.Done()
			rng := rand.New(rand.NewSource(int64(1000 + site)))
			for b := 0; b < batches; b++ {
				rows := make([][]float64, batchLen)
				for i := range rows {
					row := make([]float64, dim)
					for j := range row {
						row[j] = rng.NormFloat64()
					}
					rows[i] = row
				}
				code, doc := httpDo(t, client, http.MethodPost, u("/trackers/soak/rows"),
					map[string]any{"site": site, "rows": rows})
				if code != http.StatusOK {
					errs <- fmt.Errorf("site %d batch %d: status %d (%v)", site, b, code, doc)
					return
				}
			}
		}(site)
	}

	// Checkpointer and reader race the feeders until they finish.
	stop := make(chan struct{})
	var loops sync.WaitGroup
	loops.Add(2)
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			code, doc := httpDo(t, client, http.MethodPost, u("/trackers/soak/checkpoint"), nil)
			if code != http.StatusOK {
				errs <- fmt.Errorf("checkpoint: status %d (%v)", code, doc)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			code, doc := httpDo(t, client, http.MethodGet, u("/trackers/soak/query?gram=1"), nil)
			if code != http.StatusOK {
				errs <- fmt.Errorf("query: status %d (%v)", code, doc)
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

	// Every acknowledged batch is applied once the POST returns, so the
	// count is exact.
	code, doc = httpDo(t, client, http.MethodGet, u("/trackers/soak"), nil)
	mustStatus(t, code, http.StatusOK, doc)
	if want := float64(sites * batches * batchLen); doc["count"].(float64) != want {
		t.Fatalf("count %v after soak, want %v", doc["count"], want)
	}

	// The pre-kill answer.
	code, before := httpDo(t, client, http.MethodGet, u("/trackers/soak/query?gram=1"), nil)
	mustStatus(t, code, http.StatusOK, before)
	srv.Close()
	if err := mgr.Close(); err != nil { // kill: final checkpoint + shutdown
		t.Fatal(err)
	}

	// Restore into a fresh manager and require bit-identical answers.
	mgr2, err := service.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	srv2 := httptest.NewServer(mgr2.Handler())
	defer srv2.Close()
	code, after := httpDo(t, srv2.Client(), http.MethodGet, srv2.URL+"/trackers/soak/query?gram=1", nil)
	mustStatus(t, code, http.StatusOK, after)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("restored query answer diverges:\nbefore: %v\nafter:  %v", before, after)
	}
}
