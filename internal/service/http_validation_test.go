package service_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// rawPost sends a hand-built body (invalid JSON, trailing garbage) the
// JSON helper could never produce.
func rawPost(t *testing.T, client *http.Client, url, body string) int {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func newValidationServer(t *testing.T) (*httptest.Server, *http.Client) {
	t.Helper()
	mgr, err := service.Open(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	srv := httptest.NewServer(mgr.Handler())
	t.Cleanup(srv.Close)
	for name, spec := range map[string]service.Spec{
		"hot": {Kind: service.KindHH, Sites: 2, Epsilon: 0.05},
		"lat": {Kind: service.KindQuantile, Sites: 2, Epsilon: 0.1, Bits: 10},
	} {
		code, doc := httpDo(t, srv.Client(), http.MethodPut, srv.URL+"/trackers/"+name, spec)
		mustStatus(t, code, http.StatusCreated, doc)
	}
	return srv, srv.Client()
}

// TestIngestBodyTooLarge413 pins the oversized-body status: a batch over
// the ingest cap is 413 ("split the batch"), not 400 ("fix the JSON").
func TestIngestBodyTooLarge413(t *testing.T) {
	defer service.SetMaxBodyBytes(1024)()
	srv, client := newValidationServer(t)

	items := make([]map[string]any, 200)
	for i := range items {
		items[i] = map[string]any{"elem": i, "weight": 1.5}
	}
	code, doc := httpDo(t, client, http.MethodPost, srv.URL+"/trackers/hot/items",
		map[string]any{"site": 0, "items": items})
	mustStatus(t, code, http.StatusRequestEntityTooLarge, doc)

	// Under the cap the same shape still lands.
	code, doc = httpDo(t, client, http.MethodPost, srv.URL+"/trackers/hot/items",
		map[string]any{"site": 0, "items": items[:4]})
	mustStatus(t, code, http.StatusOK, doc)
}

// TestDecodeRejectsTrailingGarbage pins strict body decoding: exactly
// one JSON document per request.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	srv, client := newValidationServer(t)
	cases := []string{
		`{"site":0,"items":[{"elem":1}]}{"site":0,"items":[{"elem":2}]}`,
		`{"site":0,"items":[{"elem":1}]} trailing`,
		`{"site":0,"items":[{"elem":1}]}]`,
	}
	for _, body := range cases {
		if code := rawPost(t, client, srv.URL+"/trackers/hot/items", body); code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, code)
		}
	}
	// A whitespace tail is not garbage.
	ok := "{\"site\":0,\"items\":[{\"elem\":1}]}\n  \n"
	if code := rawPost(t, client, srv.URL+"/trackers/hot/items", ok); code != http.StatusOK {
		t.Fatalf("whitespace tail: status %d, want 200", code)
	}
}

// TestQueryPhiValidation pins the φ parameter contract: NaN, ±Inf, and
// anything outside the open interval (0, 1) is a 400 at the HTTP layer.
func TestQueryPhiValidation(t *testing.T) {
	srv, client := newValidationServer(t)
	bad := []string{"NaN", "nan", "Inf", "-Inf", "0", "1", "1.5", "-0.2", "abc", "0x1p-3x"}
	for _, tracker := range []string{"hot", "lat"} {
		for _, phi := range bad {
			code, doc := httpDo(t, client, http.MethodGet,
				srv.URL+fmt.Sprintf("/trackers/%s/query?phi=%s", tracker, phi), nil)
			mustStatus(t, code, http.StatusBadRequest, doc)
		}
	}
	// One bad φ poisons a multi-φ quantile query.
	code, doc := httpDo(t, client, http.MethodGet, srv.URL+"/trackers/lat/query?phi=0.5&phi=2", nil)
	mustStatus(t, code, http.StatusBadRequest, doc)

	// Valid φs still answer.
	code, doc = httpDo(t, client, http.MethodGet, srv.URL+"/trackers/hot/query?phi=0.1", nil)
	mustStatus(t, code, http.StatusOK, doc)
	code, doc = httpDo(t, client, http.MethodGet, srv.URL+"/trackers/lat/query?phi=0.25&phi=0.75", nil)
	mustStatus(t, code, http.StatusOK, doc)
	if got := len(doc["quantiles"].([]any)); got != 2 {
		t.Fatalf("multi-φ query returned %d values, want 2", got)
	}
}

// TestTinyEpsilonSpecIs400 pins a matrix spec whose ε sizes an FD sketch
// past an int: PUT /trackers answers 400 naming the sketch size, creates
// nothing, and the server keeps answering (the handler once panicked
// inside sketch.NewFD and the client read EOF).
func TestTinyEpsilonSpecIs400(t *testing.T) {
	srv, client := newValidationServer(t)
	for _, proto := range []string{"p1", "p2small"} {
		code, doc := httpDo(t, client, http.MethodPut, srv.URL+"/trackers/tiny-"+proto,
			service.Spec{Kind: service.KindMatrix, Protocol: proto, Sites: 2, Epsilon: 1e-300, Dim: 3})
		mustStatus(t, code, http.StatusBadRequest, doc)
		if msg, _ := doc["error"].(string); !strings.Contains(msg, "sketch rows") {
			t.Errorf("%s: error %q does not name the sketch size", proto, msg)
		}
		code, doc = httpDo(t, client, http.MethodGet, srv.URL+"/trackers/tiny-"+proto, nil)
		mustStatus(t, code, http.StatusNotFound, doc)
		code, doc = httpDo(t, client, http.MethodGet, srv.URL+"/healthz", nil)
		mustStatus(t, code, http.StatusOK, doc)
	}
}

// newRowsServer hosts one d = 3 matrix tracker "gram", with a WAL when
// durable is set.
func newRowsServer(t *testing.T, durable bool) (*service.Manager, *httptest.Server) {
	t.Helper()
	opts := service.Options{}
	if durable {
		opts.DataDir, opts.WAL = t.TempDir(), true
	}
	mgr, err := service.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	srv := httptest.NewServer(mgr.Handler())
	t.Cleanup(srv.Close)
	code, doc := httpDo(t, srv.Client(), http.MethodPut, srv.URL+"/trackers/gram",
		service.Spec{Kind: service.KindMatrix, Protocol: "p2", Sites: 2, Epsilon: 0.1, Dim: 3})
	mustStatus(t, code, http.StatusCreated, doc)
	return mgr, srv
}

// TestIngestNullIsRejected pins where the ingest grammar takes null: only
// where it already meant "absent" ("site", "weight"). A null row, row
// entry, elem/value or batch array is a 400 with nothing applied — the
// old decoder ingested [1,null,3] as [1,0,3].
func TestIngestNullIsRejected(t *testing.T) {
	mgr, rows := newRowsServer(t, false)
	items, client := newValidationServer(t)
	cases := []struct {
		url, body string
		want      int
	}{
		{rows.URL + "/trackers/gram/rows", `{"site":0,"rows":[[1,null,3]]}`, 400},
		{rows.URL + "/trackers/gram/rows", `{"site":0,"rows":[[1,2,3],null]}`, 400},
		{rows.URL + "/trackers/gram/rows", `{"site":0,"rows":[null]}`, 400},
		{rows.URL + "/trackers/gram/rows", `{"site":0,"rows":null}`, 400},
		{rows.URL + "/trackers/gram/rows", `null`, 400},
		{items.URL + "/trackers/hot/items", `{"site":0,"items":null}`, 400},
		{items.URL + "/trackers/hot/items", `{"site":0,"items":[null]}`, 400},
		{items.URL + "/trackers/hot/items", `{"site":0,"items":[{"elem":null}]}`, 400},
		{items.URL + "/trackers/hot/items", `{"site":0,"items":[{"elem":null,"value":3}]}`, 400},
		{items.URL + "/trackers/lat/items", `{"site":0,"items":[{"value":null,"weight":2}]}`, 400},
		// null still means absent here: assigner-dealt site, weight 1.
		{rows.URL + "/trackers/gram/rows", `{"site":null,"rows":[[1,2,3]]}`, 200},
		{items.URL + "/trackers/hot/items", `{"site":null,"items":[{"elem":7,"weight":null}]}`, 200},
	}
	for _, c := range cases {
		if code := rawPost(t, client, c.url, c.body); code != c.want {
			t.Errorf("%s: status %d, want %d", c.body, code, c.want)
		}
	}
	tr, err := mgr.Get("gram")
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Count(); got != 1 {
		t.Errorf("gram holds %d rows, want 1: a rejected batch was applied", got)
	}
	_, doc := httpDo(t, client, http.MethodGet, items.URL+"/trackers/hot", nil)
	if got := doc["count"].(float64); got != 1 {
		t.Errorf("hot holds %v items, want 1: a rejected batch was applied", got)
	}
}

// TestRaggedBatchIsAtomic pins the ragged-batch fix on both
// configurations: rows of differing widths are a 400 with nothing applied
// and nothing logged. Before, the batch was half-applied (its first two
// rows ingested) without a WAL, and a 500 from the WAL encoder with one.
func TestRaggedBatchIsAtomic(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", durable), func(t *testing.T) {
			mgr, srv := newRowsServer(t, durable)
			url := srv.URL + "/trackers/gram/rows"
			var appends int64
			if durable {
				appends = mgr.Metrics().Durability.WAL.Appends
			}
			for _, body := range []string{
				`{"rows":[[1,2,3],[4,5,6],[7,8]]}`,
				`{"site":1,"rows":[[1,2,3],[4,5,6,7]]}`,
				`{"rows":[[1,2,3],[]]}`,
				`{"rows":[[]]}`,
			} {
				if code := rawPost(t, srv.Client(), url, body); code != http.StatusBadRequest {
					t.Errorf("%s: status %d, want 400", body, code)
				}
			}
			tr, err := mgr.Get("gram")
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.Count(); got != 0 {
				t.Errorf("ragged batches left %d rows applied, want 0", got)
			}
			if durable {
				if got := mgr.Metrics().Durability.WAL.Appends; got != appends {
					t.Errorf("ragged batches logged %d WAL records, want 0", got-appends)
				}
			}
			// The tracker still takes a well-formed batch.
			if code := rawPost(t, srv.Client(), url, `{"rows":[[1,2,3],[4,5,6]]}`); code != http.StatusOK {
				t.Errorf("well-formed batch after the ragged ones: status %d, want 200", code)
			}
		})
	}
}

// TestIngestAckBytes pins the hand-appended ack: the body and content
// type encoding/json produced for map[string]any{"ingested", "count"}.
func TestIngestAckBytes(t *testing.T) {
	_, srv := newRowsServer(t, false)
	for i, want := range []string{"{\"count\":2,\"ingested\":2}\n", "{\"count\":3,\"ingested\":1}\n"} {
		body := `{"site":0,"rows":[[1,2,3],[4,5,6]]}`
		if i == 1 {
			body = `{"rows":[[7,8,9]]}`
		}
		resp, err := srv.Client().Post(srv.URL+"/trackers/gram/rows", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want || resp.Header.Get("Content-Type") != "application/json" || resp.ContentLength != int64(len(want)) {
			t.Errorf("ack %q (%s, length %d), want %q", got, resp.Header.Get("Content-Type"), resp.ContentLength, want)
		}
	}
}

// TestShardsCappedAtSites: a shard owns sites, so a Spec asking for more
// shards than sites runs one shard a site — "shards": 8 over 4 sites reports
// 4 in /metrics and the spec echo — and each site's rows land on its own
// shard.
func TestShardsCappedAtSites(t *testing.T) {
	mgr, err := service.Open(service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	srv := httptest.NewServer(mgr.Handler())
	t.Cleanup(srv.Close)
	client := srv.Client()
	spec := service.Spec{Kind: service.KindMatrix, Protocol: "p2", Sites: 4, Epsilon: 0.2, Dim: 3, Shards: 8}
	code, doc := httpDo(t, client, http.MethodPut, srv.URL+"/trackers/gram", spec)
	mustStatus(t, code, http.StatusCreated, doc)
	for site := 0; site < 4; site++ {
		rows := make([][]float64, site+1)
		for i := range rows {
			rows[i] = []float64{1, float64(site), 2}
		}
		code, doc := httpDo(t, client, http.MethodPost, srv.URL+"/trackers/gram/rows", map[string]any{"site": site, "rows": rows})
		mustStatus(t, code, http.StatusOK, doc)
	}
	code, doc = httpDo(t, client, http.MethodGet, srv.URL+"/metrics", nil)
	mustStatus(t, code, http.StatusOK, doc)
	tm := doc["trackers"].(map[string]any)["gram"].(map[string]any)
	if got := tm["shards"]; got != float64(4) {
		t.Errorf("metrics shards = %v, want 4", got)
	}
	if got, want := fmt.Sprint(tm["shard_rows"]), "[1 2 3 4]"; got != want {
		t.Errorf("metrics shard_rows = %s, want %s (site j's rows on shard j)", got, want)
	}
	code, doc = httpDo(t, client, http.MethodGet, srv.URL+"/trackers/gram", nil)
	mustStatus(t, code, http.StatusOK, doc)
	if got := doc["spec"].(map[string]any)["shards"]; got != float64(4) {
		t.Errorf("spec echo shards = %v, want 4", got)
	}
}
