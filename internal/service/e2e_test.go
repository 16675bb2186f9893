package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/service"
)

// httpDo runs one JSON request against the test server and decodes the
// response into a generic document.
func httpDo(t *testing.T, client *http.Client, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, doc
}

func mustStatus(t *testing.T, got int, want int, doc map[string]any) {
	t.Helper()
	if got != want {
		t.Fatalf("status %d, want %d (%v)", got, want, doc)
	}
}

// TestEndToEndServeCheckpointRestore is the acceptance test for the
// service subsystem: start a Manager behind an httptest server, create one
// tracker of each kind, ingest concurrently from several simulated sites,
// query, checkpoint, tear the manager down, restore from the checkpoint
// directory into a fresh manager, and require identical query answers.
func TestEndToEndServeCheckpointRestore(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	opts := service.Options{
		DataDir: dataDir,
		Logf:    t.Logf,
	}
	mgr, err := service.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()
	client := srv.Client()
	u := func(format string, args ...any) string { return srv.URL + fmt.Sprintf(format, args...) }

	// Create one tracker of each kind.
	const sites = 6
	code, doc := httpDo(t, client, http.MethodPut, u("/trackers/gram"), service.Spec{
		Kind: service.KindMatrix, Protocol: "p2", Sites: sites, Epsilon: 0.2, Dim: 16,
	})
	mustStatus(t, code, http.StatusCreated, doc)
	code, doc = httpDo(t, client, http.MethodPut, u("/trackers/hot"), service.Spec{
		Kind: "hh", Sites: sites, Epsilon: 0.05,
	})
	mustStatus(t, code, http.StatusCreated, doc)
	code, doc = httpDo(t, client, http.MethodPut, u("/trackers/lat"), service.Spec{
		Kind: service.KindQuantile, Sites: sites, Epsilon: 0.05, Bits: 10,
	})
	mustStatus(t, code, http.StatusCreated, doc)

	// A duplicate name conflicts; an unknown protocol is a 400.
	code, doc = httpDo(t, client, http.MethodPut, u("/trackers/hot"), service.Spec{Kind: "hh"})
	mustStatus(t, code, http.StatusConflict, doc)
	code, doc = httpDo(t, client, http.MethodPut, u("/trackers/zzz"), service.Spec{
		Kind: service.KindMatrix, Protocol: "nope", Dim: 4,
	})
	mustStatus(t, code, http.StatusBadRequest, doc)
	// An explicit negative site is out of range, not the assigner sentinel.
	code, doc = httpDo(t, client, http.MethodPost, u("/trackers/hot/items"),
		map[string]any{"site": -1, "items": []map[string]any{{"elem": 1}}})
	mustStatus(t, code, http.StatusBadRequest, doc)

	// Concurrent ingestion: one feeder goroutine per simulated site (> 4),
	// each posting its own substream to its own site, for all three
	// trackers at once.
	const batches, batchLen = 10, 40
	var wg sync.WaitGroup
	errs := make(chan error, 3*sites)
	for site := 0; site < sites; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + site)))
			for b := 0; b < batches; b++ {
				rows := make([][]float64, batchLen)
				for i := range rows {
					row := make([]float64, 16)
					for j := range row {
						row[j] = rng.NormFloat64()
					}
					rows[i] = row
				}
				items := make([]map[string]any, batchLen)
				values := make([]map[string]any, batchLen)
				for i := range items {
					items[i] = map[string]any{"elem": rng.Intn(50), "weight": 1 + rng.Float64()}
					values[i] = map[string]any{"value": rng.Intn(1024)}
				}
				for path, body := range map[string]any{
					"/trackers/gram/rows": map[string]any{"site": site, "rows": rows},
					"/trackers/hot/items": map[string]any{"site": site, "items": items},
					"/trackers/lat/items": map[string]any{"site": site, "items": values},
				} {
					code, doc := httpDo(t, client, http.MethodPost, u("%s", path), body)
					if code != http.StatusOK {
						errs <- fmt.Errorf("POST %s: %d %v", path, code, doc)
						return
					}
				}
			}
		}(site)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := float64(sites * batches * batchLen)
	// Queries answer after ingest.
	code, gramQ := httpDo(t, client, http.MethodGet, u("/trackers/gram/query?gram=1"), nil)
	mustStatus(t, code, http.StatusOK, gramQ)
	if gramQ["count"].(float64) != total {
		t.Fatalf("gram count %v, want %v", gramQ["count"], total)
	}
	code, hotQ := httpDo(t, client, http.MethodGet, u("/trackers/hot/query?phi=0.05"), nil)
	mustStatus(t, code, http.StatusOK, hotQ)
	code, latQ := httpDo(t, client, http.MethodGet, u("/trackers/lat/query?phi=0.5&phi=0.99"), nil)
	mustStatus(t, code, http.StatusOK, latQ)

	// Metrics report non-zero up/down message counts after ingest.
	code, met := httpDo(t, client, http.MethodGet, u("/metrics"), nil)
	mustStatus(t, code, http.StatusOK, met)
	for _, name := range []string{"gram", "hot", "lat"} {
		tm := met["trackers"].(map[string]any)[name].(map[string]any)
		if tm["up_msgs"].(float64) == 0 || tm["down_msgs"].(float64) == 0 {
			t.Fatalf("tracker %s metrics lack up/down traffic: %v", name, tm)
		}
		if tm["count"].(float64) != total {
			t.Fatalf("tracker %s count %v, want %v", name, tm["count"], total)
		}
	}

	// Checkpoint every tracker over the API, then tear the manager down.
	for _, name := range []string{"gram", "hot", "lat"} {
		code, doc = httpDo(t, client, http.MethodPost, u("/trackers/%s/checkpoint", name), nil)
		mustStatus(t, code, http.StatusOK, doc)
	}
	srv.Close()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh manager on the same directory.
	mgr2, err := service.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	srv2 := httptest.NewServer(mgr2.Handler())
	defer srv2.Close()
	client2 := srv2.Client()
	u2 := func(format string, args ...any) string { return srv2.URL + fmt.Sprintf(format, args...) }

	code, list := httpDo(t, client2, http.MethodGet, u2("/trackers"), nil)
	mustStatus(t, code, http.StatusOK, list)
	if n := len(list["trackers"].([]any)); n != 3 {
		t.Fatalf("%d trackers after restore, want 3", n)
	}

	// Identical query answers after restore.
	code, gramQ2 := httpDo(t, client2, http.MethodGet, u2("/trackers/gram/query?gram=1"), nil)
	mustStatus(t, code, http.StatusOK, gramQ2)
	if !reflect.DeepEqual(gramQ, gramQ2) {
		t.Fatalf("matrix query diverged after restore:\n  before %v\n  after  %v", gramQ, gramQ2)
	}
	code, hotQ2 := httpDo(t, client2, http.MethodGet, u2("/trackers/hot/query?phi=0.05"), nil)
	mustStatus(t, code, http.StatusOK, hotQ2)
	if !reflect.DeepEqual(hotQ, hotQ2) {
		t.Fatalf("heavy-hitters query diverged after restore:\n  before %v\n  after  %v", hotQ, hotQ2)
	}
	code, latQ2 := httpDo(t, client2, http.MethodGet, u2("/trackers/lat/query?phi=0.5&phi=0.99"), nil)
	mustStatus(t, code, http.StatusOK, latQ2)
	if !reflect.DeepEqual(latQ, latQ2) {
		t.Fatalf("quantile query diverged after restore:\n  before %v\n  after  %v", latQ, latQ2)
	}

	// The restored trackers keep serving: ingest a little more and delete.
	code, doc = httpDo(t, client2, http.MethodPost, u2("/trackers/hot/items"),
		map[string]any{"items": []map[string]any{{"elem": 7, "weight": 2}}})
	mustStatus(t, code, http.StatusOK, doc)
	if doc["count"].(float64) != total+1 {
		t.Fatalf("count %v after resumed ingest, want %v", doc["count"], total+1)
	}
	code, doc = httpDo(t, client2, http.MethodDelete, u2("/trackers/gram"), nil)
	mustStatus(t, code, http.StatusOK, doc)
	code, doc = httpDo(t, client2, http.MethodGet, u2("/trackers/gram"), nil)
	mustStatus(t, code, http.StatusNotFound, doc)
}
