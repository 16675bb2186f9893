package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	distmat "repro"
)

// maxBodyBytes bounds an ingest request body (64 MiB ≈ 90k rows at d=90).
// A variable so tests can shrink it without posting 64 MiB.
var maxBodyBytes int64 = 64 << 20

// Handler returns the manager's HTTP/JSON surface (see the package
// comment for the route table).
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Metrics())
	})
	mux.HandleFunc("GET /trackers", m.handleList)
	mux.HandleFunc("PUT /trackers/{name}", m.handleCreate)
	mux.HandleFunc("GET /trackers/{name}", m.handleStatus)
	mux.HandleFunc("DELETE /trackers/{name}", m.handleDelete)
	mux.HandleFunc("POST /trackers/{name}/rows", func(w http.ResponseWriter, r *http.Request) { m.handleIngest(w, r, false) })
	mux.HandleFunc("POST /trackers/{name}/items", func(w http.ResponseWriter, r *http.Request) { m.handleIngest(w, r, true) })
	mux.HandleFunc("GET /trackers/{name}/query", m.handleQuery)
	mux.HandleFunc("POST /trackers/{name}/checkpoint", m.handleCheckpoint)
	return mux
}

// retryAfter is the Retry-After hint (seconds) on the 503s a client
// should retry: degraded mode — the re-arm loop's backoff starts well
// under this, so a client honoring it never beats the first recovery
// attempt — and load shedding.
const retryAfter = "1"

// writeErr maps service and facade errors onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrExists):
		status = http.StatusConflict
	case errors.Is(err, ErrDegraded), errors.Is(err, ErrBusy):
		// Durability lost (the service is degraded read-only while the
		// WAL re-arms itself) or admission full: neither
		// lasts, so tell clients when to retry.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfter)
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, errTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadName),
		errors.Is(err, distmat.ErrInvalidConfig),
		errors.Is(err, distmat.ErrUnknownProtocol),
		errors.Is(err, distmat.ErrWrongKind),
		errors.Is(err, distmat.ErrDimensionMismatch),
		errors.Is(err, distmat.ErrInvalidItem),
		errors.Is(err, distmat.ErrInvalidSite),
		errors.Is(err, distmat.ErrInvalidQuery),
		errors.Is(err, distmat.ErrNotPersistable),
		errors.Is(err, distmat.ErrNotShardable),
		errors.Is(err, errBadRequest):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// errBadRequest marks malformed request bodies and parameters.
var errBadRequest = errors.New("service: bad request")

// errTooLarge marks request bodies over the ingest size cap (413, so
// clients can tell "split the batch" apart from "fix the JSON").
var errTooLarge = errors.New("service: request body too large")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadRequest, fmt.Sprintf(format, args...))
}

// decodeBody strictly decodes a control-plane JSON body (the PUT Spec) into
// v: unknown fields, trailing data after the document, and oversized
// bodies are all rejected rather than silently tolerated. The ingest
// routes do not come through here; see ingestjson.go.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w: body exceeds %d bytes", errTooLarge, mbe.Limit)
		}
		return badRequestf("decoding body: %v", err)
	}
	// One JSON document is the whole body: trailing garbage means the
	// client serialized something other than what we validated.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w: body exceeds %d bytes", errTooLarge, mbe.Limit)
		}
		return badRequestf("trailing data after JSON body")
	}
	return nil
}

// trackerStatus is the GET /trackers and GET /trackers/{name} row.
type trackerStatus struct {
	Name               string `json:"name"`
	Spec               Spec   `json:"spec"`
	Count              int64  `json:"count"`
	Persistable        bool   `json:"persistable"`
	LastCheckpointUnix int64  `json:"last_checkpoint_unix,omitempty"`
	CheckpointError    string `json:"checkpoint_error,omitempty"`
}

func statusOf(t *Tracker) trackerStatus {
	at, errStr := t.LastCheckpoint()
	st := trackerStatus{
		Name:            t.Name(),
		Spec:            t.Spec(),
		Count:           t.Count(),
		Persistable:     t.Persistable(),
		CheckpointError: errStr,
	}
	if !at.IsZero() {
		st.LastCheckpointUnix = at.Unix()
	}
	return st
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	trackers := m.List()
	out := make([]trackerStatus, len(trackers))
	for i, t := range trackers {
		out[i] = statusOf(t)
	}
	writeJSON(w, http.StatusOK, map[string]any{"trackers": out})
}

func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := decodeBody(w, r, &spec); err != nil {
		writeErr(w, err)
		return
	}
	t, err := m.Create(r.PathValue("name"), spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, statusOf(t))
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	t, err := m.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, statusOf(t))
}

func (m *Manager) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := m.Delete(r.PathValue("name")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": true})
}

// handleIngest serves POST rows (items false) and POST items: one pooled
// ingestBuf holds the body and its decoded batch, and the handler owns it
// until Tracker.ingest — which reads it on this goroutine only — has
// returned. It goes back before the reply is written, not in a defer:
// holding it across the response write read 3–7 % slower on http-json.
func (m *Manager) handleIngest(w http.ResponseWriter, r *http.Request, items bool) {
	t, err := m.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	b := ingestBufs.Get().(*ingestBuf)
	site, err := b.decode(r, items)
	if err != nil {
		ingestBufs.Put(b)
		writeErr(w, err)
		return
	}
	req := ingestReq{site: site, items: b.items}
	if !items {
		req = ingestReq{site: site, rows: b.rows}
	}
	n := len(b.rows) + len(b.items) // decode empties the one it does not fill
	err = t.ingest(r.Context(), req)
	ingestBufs.Put(b)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeAck(w, n, t.Count())
}

// phisOf parses the repeated φ query parameter, rejecting NaN, ±Inf,
// and anything outside the open interval (0, 1) here at the HTTP layer —
// a clean 400 instead of whatever a session internal would make of it.
func phisOf(r *http.Request, def []float64) ([]float64, error) {
	raw := r.URL.Query()["phi"]
	if len(raw) == 0 {
		return def, nil
	}
	out := make([]float64, len(raw))
	for i, s := range raw {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, badRequestf("phi %q: %v", s, err)
		}
		if math.IsNaN(v) || v <= 0 || v >= 1 {
			return nil, badRequestf("phi %q outside (0, 1)", s)
		}
		out[i] = v
	}
	return out, nil
}

func (m *Manager) handleQuery(w http.ResponseWriter, r *http.Request) {
	t, err := m.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	b := replyBufs.Get().(*replyBuf)
	if err := b.answer(t, r); err != nil {
		replyBufs.Put(b)
		writeErr(w, err)
		return
	}
	b.send(w, http.StatusOK)
}

// answer runs the query r asks of t and builds its reply in b.
func (b *replyBuf) answer(t *Tracker, r *http.Request) error {
	switch t.Kind() {
	case KindMatrix:
		snap, err := t.Snapshot()
		if err != nil {
			return err
		}
		return b.encodeMatrix(snap.Count, snap.Frobenius, snap.Gram, r.URL.Query().Get("gram") == "1", &t.memo)
	case KindHH:
		phis, err := phisOf(r, nil)
		if err != nil {
			return err
		}
		if len(phis) != 1 {
			return badRequestf("heavy-hitters query needs exactly one phi parameter")
		}
		hits, at, err := t.QueryHeavyHitters(phis[0])
		if err != nil {
			return err
		}
		return b.encodeHH(at, phis[0], hits)
	default: // KindQuantile
		phis, err := phisOf(r, []float64{0.5})
		if err != nil {
			return err
		}
		vals, at, err := t.QueryQuantiles(phis)
		if err != nil {
			return err
		}
		return b.encodeQuantiles(at, phis, vals)
	}
}

func (m *Manager) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	t, err := m.Get(name)
	if err != nil {
		writeErr(w, err)
		return
	}
	if !t.Persistable() {
		writeErr(w, fmt.Errorf("%w: tracker %q is not persistable", distmat.ErrNotPersistable, name))
		return
	}
	if m.opts.DataDir == "" {
		writeErr(w, badRequestf("manager has no data directory"))
		return
	}
	if err := m.Checkpoint(name); err != nil {
		writeErr(w, err)
		return
	}
	at, _ := t.LastCheckpoint()
	writeJSON(w, http.StatusOK, map[string]any{"checkpointed": true, "at_unix": at.Unix()})
}
