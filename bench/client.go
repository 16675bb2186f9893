package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/wire"
)

// httpConn is one lane's keep-alive HTTP/1.1 connection. Requests are
// pre-encoded bytes written straight to the socket and responses are
// parsed with the standard library, so the generator spends its
// measured-phase CPU on socket I/O, not on building requests.
type httpConn struct {
	c   *net.TCPConn
	br  *bufio.Reader
	in  int64 // bytes read off the socket
	out int64 // bytes written to it
	buf bytes.Buffer
}

type countingReader struct {
	r io.Reader
	n *int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += int64(n)
	return n, err
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	h := &httpConn{c: c.(*net.TCPConn)}
	h.br = bufio.NewReaderSize(countingReader{c, &h.in}, 64<<10)
	return h, nil
}

func (h *httpConn) close() { h.c.Close() }

// roundTrip writes one request (head, then body if any) and reads the
// whole response. The returned body is valid until the next call.
func (h *httpConn) roundTrip(head, body []byte) (status int, resp []byte, err error) {
	// A stuck server must fail the op, not hang the benchmark.
	if err := h.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	bufs := net.Buffers{head}
	if len(body) > 0 {
		bufs = append(bufs, body)
	}
	n, err := bufs.WriteTo(h.c)
	h.out += n
	if err != nil {
		return 0, nil, err
	}
	r, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	h.buf.Reset()
	if _, err := h.buf.ReadFrom(r.Body); err != nil {
		return 0, nil, err
	}
	return r.StatusCode, h.buf.Bytes(), nil
}

// templates are the pre-encoded request heads of one workload.
type templates struct {
	ingest [][][]byte // [tracker][block] → POST head with that block's Content-Length
	query  [][][]byte // [tracker][variant] → complete GET request
}

const hostHeader = "Host: distserve\r\n"

func queryPath(w *workload, tracker int, variant int) string {
	p := "/trackers/" + w.trackers[tracker].name + "/query"
	switch {
	case variant == qGram:
		return p + "?gram=1"
	case variant == qItems && w.trackers[tracker].spec.Kind == "heavy-hitters":
		return p + "?phi=" + strconv.FormatFloat(hhPhi, 'g', -1, 64)
	case variant == qItems:
		return p + "?phi=0.5&phi=0.99"
	}
	return p
}

func buildTemplates(w *workload, p *pool) *templates {
	t := &templates{}
	kind := "rows"
	if w.items {
		kind = "items"
	}
	for ti, td := range w.trackers {
		var heads [][]byte
		for _, body := range p.bodies {
			heads = append(heads, []byte("POST /trackers/"+td.name+"/"+kind+" HTTP/1.1\r\n"+hostHeader+
				"Content-Type: application/json\r\nContent-Length: "+strconv.Itoa(len(body))+"\r\n\r\n"))
		}
		t.ingest = append(t.ingest, heads)
		var qs [][]byte
		for v := qPlain; v <= qItems; v++ {
			qs = append(qs, []byte("GET "+queryPath(w, ti, v)+" HTTP/1.1\r\n"+hostHeader+"\r\n"))
		}
		t.query = append(t.query, qs)
	}
	return t
}

// lane is one closed-loop client: it runs its script in order, waiting
// for each reply before the next op.
type lane struct {
	id   int
	w    *workload
	pool *pool
	tmpl *templates
	http *httpConn
	site *wire.SiteConn // wire workloads only

	// sent counts acked ingests per tracker and pool block: the exact
	// reference is rebuilt from it, so the generator does no arithmetic
	// on the data while it measures.
	sent [][]int32

	recs    []opRec   // measured-phase completions, in order
	drainMs []float64 // measured-phase Drain waits (wire only)

	attempted, failed int64
	firstErr          error
	dead              bool // transport lost: remaining ops fail without I/O
	cutShort          bool // stopped at the deadline with ops left
}

func newLane(id int, w *workload, in *inputs, tmpl *templates, s *server) (*lane, error) {
	l := &lane{id: id, w: w, pool: in.pool, tmpl: tmpl}
	l.sent = make([][]int32, len(w.trackers))
	for i := range l.sent {
		l.sent[i] = make([]int32, in.pool.blocks())
	}
	var err error
	if l.http, err = dialHTTP(s.httpAddr); err != nil {
		return nil, err
	}
	if w.wire {
		l.site, err = wire.Dial(wire.SiteConfig{Addr: s.wireAddr, Site: id, Tracker: w.trackers[0].name, Window: 32})
		if err != nil {
			l.http.close()
			return nil, err
		}
	}
	return l, nil
}

func (l *lane) close() {
	l.http.close()
	if l.site != nil {
		l.site.Close()
	}
}

func (l *lane) fail(err error, fatal bool) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
	if fatal {
		l.dead = true
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// opRec is one completed op of the measured phase: when its reply (for a
// wire block, the Drain that acked it) arrived, how long it took, and how
// many updates that reply acked.
type opRec struct {
	done    float64 // seconds since the phase began
	ms      float64 // send → reply
	query   bool
	updates int
}

// barrier is the ack of a wire lane's blocks: the applied watermark
// reaching the last one sent. Its latency is the SendBlock of that last
// block plus the Drain that waits for every block queued so far.
func (l *lane) barrier(t0, lastSend time.Time, unacked int) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err := l.site.Drain(ctx)
	cancel()
	if err == nil {
		err = l.site.Err()
	}
	if err != nil {
		l.fail(fmt.Errorf("Drain: %w", err), true)
		return
	}
	if !t0.IsZero() {
		l.recs = append(l.recs, opRec{done: time.Since(t0).Seconds(), ms: msSince(lastSend), updates: unacked * l.w.batch})
		l.drainMs = append(l.drainMs, msSince(start))
	}
}

// run executes ops in order. With a non-zero t0 it is the measured phase:
// completions are recorded against t0, and past deadline the lane stops
// early (a slow host must not overrun the driver; the ops left are not
// attempted). Counts are kept always. A panic in a lane is a failed run,
// not a crashed benchmark: the server and its data directory still get
// cleaned up.
func (l *lane) run(ops []op, t0, deadline time.Time) {
	defer func() {
		if r := recover(); r != nil {
			l.fail(fmt.Errorf("lane %d panicked: %v", l.id, r), true)
		}
	}()
	record := !t0.IsZero()
	var lastSend time.Time
	unacked := 0 // wire blocks sent since the last Drain
	for i, o := range ops {
		if record && i%16 == 0 && time.Now().After(deadline) {
			l.cutShort = true
			if l.site != nil && !l.dead {
				// Blocks already handed to the connection still arrive;
				// wait for them so the final count check sees them.
				l.barrier(t0, lastSend, unacked)
			}
			return
		}
		if o.kind != opBarrier {
			l.attempted++
		}
		if l.dead {
			if o.kind != opBarrier {
				l.failed++
			}
			continue
		}
		switch o.kind {
		case opIngest:
			if l.site != nil {
				lastSend = time.Now()
				if err := l.site.SendBlock(l.pool.rows[o.block]); err != nil {
					l.fail(fmt.Errorf("SendBlock: %w", err), true)
					continue
				}
				l.sent[o.tracker][o.block]++
				unacked++
				continue
			}
			start := time.Now()
			status, body, err := l.http.roundTrip(l.tmpl.ingest[o.tracker][o.block], l.pool.bodies[o.block])
			if err != nil {
				l.fail(fmt.Errorf("POST: %w", err), true)
				continue
			}
			if status != http.StatusOK {
				l.fail(fmt.Errorf("POST %s: status %d: %s", l.w.trackers[o.tracker].name, status, body), false)
				continue
			}
			if record {
				l.recs = append(l.recs, opRec{done: time.Since(t0).Seconds(), ms: msSince(start), updates: l.w.batch})
			}
			l.sent[o.tracker][o.block]++
		case opBarrier:
			l.barrier(t0, lastSend, unacked)
			unacked = 0
		case opQuery:
			start := time.Now()
			status, body, err := l.http.roundTrip(l.tmpl.query[o.tracker][o.variant], nil)
			if err != nil {
				l.fail(fmt.Errorf("GET: %w", err), true)
				continue
			}
			if status != http.StatusOK {
				l.fail(fmt.Errorf("GET %s: status %d: %s", l.w.trackers[o.tracker].name, status, body), false)
				continue
			}
			if record {
				l.recs = append(l.recs, opRec{done: time.Since(t0).Seconds(), ms: msSince(start), query: true})
			}
		}
	}
}
