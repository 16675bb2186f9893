package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// runConfig is one benchmark run: a workload, a seed, and how long to
// measure.
type runConfig struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool // per-layer pass: counters from a shorter server run, then the in-process ladder
	smoke   bool // three windows of measured work, one set-up: the harness's own test
	bin     string
	lay     layout
	plan    cpuPlan
	pinned  bool // the generator pinned itself
}

// runResult is what one run reports.
type runResult struct {
	metrics   metricSet
	attempted int64
	failed    int64
	problems  []string // violated checks and first transport errors
	notes     []string // pinned, data_fs, windows: context, not metrics
}

func (r *runResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// Run lengths. A workload's periodsPerSec is calibrated on the reference
// sandbox with the host calm, so periodsPerSec × --seconds periods per lane
// measure for about --seconds; a busy neighbour stretches that up to 1.9-fold.
// The script is fixed work and a run is meant to finish it: msgs_per_update
// and every count depend on how far the stream got. Only past runCapFactor
// × --seconds do the lanes stop early and the run report what it has, so
// that a host slower still cannot overrun the driver.
const (
	warmSeconds  = 0.5 // warm-up work before the measured phase, part of set-up
	runCapFactor = 2.1
	setupRepeats = 3 // set-ups per untraced run; setup_s is their median, as the benchmark driver's contract asks
)

// sizes are a run's lengths, in script periods per lane.
type sizes struct {
	warm, measured, poolBlocks, setups, tracePeriods int
}

func (c *runConfig) sizes() sizes {
	pps := c.w.periodsPerSec
	s := sizes{
		warm:         int(math.Ceil(pps * warmSeconds)),
		measured:     max(2, int(math.Round(pps*float64(c.seconds)))),
		poolBlocks:   poolBlocksFull,
		setups:       setupRepeats,
		tracePeriods: c.w.tracePeriods,
	}
	if c.trace {
		s.setups = 1
	}
	if c.smoke {
		// Three windows' worth of measured work, same code paths.
		s.warm, s.measured, s.setups = max(1, int(pps*0.2)), max(2, int(pps*3*windowSeconds)+1), 1
		s.poolBlocks = poolBlocksSmoke
		s.tracePeriods = max(1, s.tracePeriods/8)
	}
	return s
}

// session is one started server with its trackers created and its lanes
// connected.
type session struct {
	srv   *server
	ctl   *httpConn // control connection: creates, /metrics, final queries
	lanes [lanes]*lane
}

func (s *session) close() {
	for _, l := range s.lanes {
		if l != nil {
			l.close()
		}
	}
	if s.ctl != nil {
		s.ctl.close()
	}
	s.srv.stop()
}

func openSession(c *runConfig, in *inputs, tmpl *templates, runDir string) (*session, error) {
	srv, err := startServer(c.bin, c.w, c.plan, runDir)
	if err != nil {
		return nil, err
	}
	s := &session{srv: srv}
	if s.ctl, err = dialHTTP(srv.httpAddr); err != nil {
		s.close()
		return nil, err
	}
	send := func(method, path string, body []byte, want int) error {
		head := fmt.Sprintf("%s %s HTTP/1.1\r\n%sContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
			method, path, hostHeader, len(body))
		status, resp, err := s.ctl.roundTrip([]byte(head), body)
		if err != nil || status != want {
			return fmt.Errorf("bench: set-up: %s %s: status %d %s: %v", method, path, status, resp, err)
		}
		return nil
	}
	for _, td := range c.w.trackers {
		body, err := json.Marshal(td.spec)
		if err == nil {
			err = send("PUT", "/trackers/"+td.name, body, http.StatusCreated)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	for i := range s.lanes {
		if s.lanes[i], err = newLane(i, c.w, in, tmpl, srv); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// fetchMetrics reads the server's /metrics document.
func (s *session) fetchMetrics() (service.Metrics, error) {
	var m service.Metrics
	status, body, err := s.ctl.roundTrip([]byte("GET /metrics HTTP/1.1\r\n"+hostHeader+"\r\n"), nil)
	if err != nil {
		return m, err
	}
	if status != http.StatusOK {
		return m, fmt.Errorf("bench: /metrics: status %d", status)
	}
	return m, json.Unmarshal(body, &m)
}

// runPhase runs periods [from, to) of every lane's script, lanes in
// parallel, and waits for all of them. With measured set the lanes record
// their completions against the phase's start, this goroutine samples the
// server's CPU clock every windowSeconds, and the phase is cut short at
// capSeconds. It returns the samples and the moment the first lane
// finished.
func (s *session) runPhase(in *inputs, opsPerPeriod [lanes]int, from, to int, measured bool, capSeconds float64) ([]sample, float64, error) {
	var t0, deadline time.Time
	if measured {
		t0 = time.Now()
		deadline = t0.Add(time.Duration(capSeconds * float64(time.Second)))
	}
	var wg sync.WaitGroup
	var finished [lanes]float64
	for i, l := range s.lanes {
		ops := in.scripts[i][from*opsPerPeriod[i] : to*opsPerPeriod[i]]
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(ops, t0, deadline)
			finished[i] = time.Since(t0).Seconds()
		}()
	}
	if !measured {
		wg.Wait()
		return nil, 0, nil
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var samples []sample
	read := func() error {
		cpu, err := s.srv.cpuSeconds()
		samples = append(samples, sample{t: time.Since(t0).Seconds(), cpu: cpu})
		return err
	}
	if err := read(); err != nil {
		<-done
		return nil, 0, err
	}
	tick := time.NewTicker(time.Duration(windowSeconds * float64(time.Second)))
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-tick.C:
		case <-done:
			running = false
		}
		if err := read(); err != nil {
			<-done
			return nil, 0, err
		}
	}
	return samples, slices.Min(finished[:]), nil
}

// updates is the number of rows or items acked so far.
func (s *session) updates() int64 {
	var n int64
	for _, l := range s.lanes {
		for _, perBlock := range l.sent {
			for _, c := range perBlock {
				n += int64(c)
			}
		}
	}
	return n * int64(s.lanes[0].w.batch)
}

func (s *session) httpBytes() int64 {
	var n int64
	for _, l := range s.lanes {
		n += l.http.in + l.http.out
	}
	return n
}

// refKernelMs times a fixed pure-Go dot-product loop. The program under
// test is not involved, so a change in this number between runs means
// the host changed, not the code.
func refKernelMs() float64 {
	const n, reps = 4096, 1500
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], b[i] = float64(i%7)+0.5, float64(i%5)+0.25
	}
	t0 := time.Now()
	var sum float64
	for r := 0; r < reps; r++ {
		for i := range a {
			sum += a[i] * b[i]
		}
	}
	refSink = sum
	return msSince(t0)
}

var refSink float64

// runWorkload performs one run and returns its metrics: the end-to-end
// set, or with c.trace the per-layer set.
func runWorkload(c *runConfig) (*runResult, error) {
	res := &runResult{metrics: metricSet{}}
	sz := c.sizes()
	periods := sz.warm + sz.measured

	runDir, err := os.MkdirTemp(dataRoot(c.lay), "distbench-run-")
	if err != nil {
		return nil, err
	}
	atExit(func() { os.RemoveAll(runDir) })
	defer os.RemoveAll(runDir)

	in := genInputs(c.w, c.seed, periods, sz.poolBlocks)
	tmpl := buildTemplates(c.w, in.pool)
	var opsPerPeriod [lanes]int
	for i := range opsPerPeriod {
		opsPerPeriod[i] = len(in.scripts[i]) / periods
	}

	// The probe watches the host from the first set-up on, so that its
	// cheapest readings come from as long a stretch as the run has.
	host, err := startProbe(c.plan.serverCPUs)
	if err != nil {
		return nil, err
	}
	defer host.stop()

	// Set-up, several times over: spawn, create trackers, connect, warm
	// up. Only the last server goes on to be measured.
	var setups [][2]int64 // from, to on the monotonic clock
	var ses *session
	for i := 0; i < sz.setups; i++ {
		if ses != nil {
			ses.close()
		}
		from := clockNs(clockMonotonic)
		if ses, err = openSession(c, in, tmpl, runDir); err != nil {
			return nil, err
		}
		if _, _, err := ses.runPhase(in, opsPerPeriod, 0, sz.warm, false, 0); err != nil {
			return nil, err
		}
		setups = append(setups, [2]int64{from, clockNs(clockMonotonic)})
	}
	defer ses.close()

	// Measured phase.
	refBefore := refKernelMs()
	m0, err := ses.fetchMetrics()
	if err != nil {
		return nil, err
	}
	selfCPU0, _ := procCPUSeconds(os.Getpid())
	upd0, bytes0 := ses.updates(), ses.httpBytes()
	phaseStart := clockNs(clockMonotonic)
	samples, end, err := ses.runPhase(in, opsPerPeriod, sz.warm, periods, true, runCapFactor*float64(c.seconds))
	if err != nil {
		return nil, err
	}
	hostSamples := host.stop()
	wall := samples[len(samples)-1].t
	selfCPU1, _ := procCPUSeconds(os.Getpid())
	m1, err := ses.fetchMetrics()
	if err != nil {
		return nil, err
	}
	refAfter := refKernelMs()
	updates := float64(ses.updates() - upd0)
	transport := float64(ses.httpBytes() - bytes0)
	if m1.Wire != nil && m0.Wire != nil {
		transport += float64(m1.Wire.BytesIn + m1.Wire.BytesOut - m0.Wire.BytesIn - m0.Wire.BytesOut)
	}

	var ack, query, drain []float64
	var recs [][]opRec
	for _, l := range ses.lanes {
		recs = append(recs, l.recs)
		for _, r := range l.recs {
			if r.query {
				query = append(query, r.ms)
			} else {
				ack = append(ack, r.ms)
			}
		}
		drain = append(drain, l.drainMs...)
		res.attempted += l.attempted
		res.failed += l.failed
		if l.firstErr != nil {
			res.problem("lane %d: %v", l.id, l.firstErr)
		}
		if l.cutShort {
			res.notes = append(res.notes, fmt.Sprintf("lane %d stopped with script left: over %.1f× --seconds", l.id, runCapFactor))
		}
	}
	calmNs := calmCost(hostSamples)
	if calmNs == 0 {
		return nil, fmt.Errorf("bench: %s: the host probe took no sample", c.w.Name)
	}
	wins := cutWindows(recs, samples, func(from, to float64) float64 {
		return hostLoad(hostSamples, calmNs, phaseStart+int64(from*1e9), phaseStart+int64(to*1e9))
	}, end)
	if len(wins) == 0 {
		return nil, fmt.Errorf("bench: %s: measured phase shorter than one %.1f s window (%v)", c.w.Name, windowSeconds, res.problems)
	}
	var rates, loads []float64
	for _, w := range wins {
		rates = append(rates, w.rate())
		loads = append(loads, w.host)
	}
	var msgs, count int64
	for _, tm := range m1.Trackers {
		msgs += tm.UpMsgs + tm.DownMsgs
		count += tm.Count
	}
	if updates <= 0 || count <= 0 {
		return nil, fmt.Errorf("bench: %s: no update was acked (%v)", c.w.Name, res.problems)
	}

	chk := checkAnswers(c.w, in.pool, ses, res)

	res.notes = append(res.notes,
		fmt.Sprintf("pinned: %v", c.pinned && ses.srv.pinned),
		fmt.Sprintf("data_fs: %s", dataFSNote(c.w, runDir)),
		fmt.Sprintf("measured %.1f s in %d windows of %.1f s; %d acks, %d queries", wall, len(wins), windowSeconds, len(ack), len(query)),
		fmt.Sprintf("host: probe %.1f µs at its cheapest and %.1f µs in the median window; timings are reported for %.1f µs",
			calmNs/1e3, (1+median(loads))*calmNs/1e3, refProbeNs/1e3))
	if c.w.durable {
		res.notes = append(res.notes, fmt.Sprintf("tenancy: %d fault-ins, %d evictions in the measured phase",
			m1.Tenancy.Faults-m0.Tenancy.Faults, m1.Tenancy.Evictions-m0.Tenancy.Evictions))
	}

	if !c.trace {
		t := timingsAtCalm(wins, calmNs)
		var setupS []float64
		for _, sp := range setups {
			// A set-up is the same kind of work as the measured phase, and
			// the host slows it the same way.
			slow := hostSlowdown(hostLoad(hostSamples, calmNs, sp[0], sp[1]), calmNs)
			setupS = append(setupS, float64(sp[1]-sp[0])/1e9/slow)
		}
		res.notes = append(res.notes, fmt.Sprintf("set-ups: %.3f s each", setupS))
		res.metrics = metricSet{
			"setup_s":                  median(setupS),
			"updates_per_s":            t.updatesPerS,
			"ack_ms_p50":               t.ackMsP50,
			"query_ms_p50":             t.queryMsP50,
			"server_cpu_us_per_update": t.cpuUsPerUpdate,
			"wire_bytes_per_update":    transport / updates,
			"msgs_per_update":          float64(msgs) / float64(count),
		}
		return res, nil
	}

	for _, tail := range []struct {
		name string
		n    int
	}{{"ack_ms_p99", len(ack)}, {"query_ms_p99", len(query)}} {
		if !tailResolved(tail.n, 99) {
			res.notes = append(res.notes, fmt.Sprintf("distload.%s rests on %d samples: fewer than ten lie beyond it", tail.name, tail.n))
		}
	}
	clientShare := (selfCPU1 - selfCPU0) / wall
	if clientShare >= 0.5 {
		res.notes = append(res.notes, fmt.Sprintf("generator CPU share %.2f ≥ 0.5 of its own core: check that the server's core, not the generator's, is the one saturated", clientShare))
	}
	lm := metricSet{
		"distload.ack_ms_p99":             percentile(ack, 99),
		"distload.query_ms_p99":           percentile(query, 99),
		"distload.ops_attempted":          float64(res.attempted),
		"distload.ops_failed":             float64(res.failed),
		"distload.client_cpu_share":       clientShare,
		"distload.window_iqr_over_median": iqrOverMedian(rates),
		"distload.host_load":              median(loads),
		"distload.ref_kernel_ms":          (refBefore + refAfter) / 2,
		"distserve.peak_rss_mb":           ses.srv.peakRSSMB(),
		"distserve.start_ms":              ses.srv.startMs,
		"service.faults":                  float64(m1.Tenancy.Faults),
		"service.evictions":               float64(m1.Tenancy.Evictions),
		"service.fault_ratio":             float64(m1.Tenancy.Faults) / float64(res.attempted),
		"wire.drain_ms_p50":               median(drain),
		"core.cov_err_over_eps":           chk.covErrOverEps,
		"hh.err_over_eps":                 chk.hhErrOverEps,
		"quantile.rank_err_over_eps":      chk.rankErrOverEps,
	}
	for _, tm := range m1.Trackers {
		lm["service.batches"] += float64(tm.Batches)
		lm["service.rejected"] += float64(tm.Rejected)
		lm["core.up_msgs"] += float64(tm.UpMsgs)
		lm["core.down_msgs"] += float64(tm.DownMsgs)
	}
	if m1.Wire != nil {
		lm["wire.frames_in"] = float64(m1.Wire.FramesIn)
		lm["wire.frames_out"] = float64(m1.Wire.FramesOut)
		lm["wire.bytes_in"] = float64(m1.Wire.BytesIn)
		lm["wire.bytes_out"] = float64(m1.Wire.BytesOut)
		for _, l := range ses.lanes {
			lm["wire.retransmits"] += float64(l.site.Stats().Retransmits.Load())
		}
	}
	if d := m1.Durability; d != nil {
		lm["wal.appends"] = float64(d.WAL.Appends)
		lm["wal.flushes"] = float64(d.WAL.Flushes)
		lm["wal.segments"] = float64(d.WAL.Segments)
		if d.WAL.Appends > 0 {
			lm["wal.flushes_per_append"] = float64(d.WAL.Flushes) / float64(d.WAL.Appends)
		}
	}
	// The server's part is done; free its core and memory before the
	// in-process pass.
	ses.close()
	if err := tracedPass(c, in, opsPerPeriod, sz, runDir, lm, res); err != nil {
		return nil, err
	}
	for _, m := range perLayerSpecs {
		lm[m.Name] += 0 // a layer this workload does not run reports 0
	}
	res.metrics = lm
	return res, nil
}

// dataRoot is the directory run directories — and in them the durable
// workload's data directories — are created in: /dev/shm when it is a
// tmpfs with room, else bench/.run in the checkout. The WAL fsyncs every
// batch, and a device's fsync latency is the sandbox's, not the
// program's: on the reference sandbox's /dev/vda it took 45 % of
// durable-tenancy's time and spread its throughput 11.6 % from run to run
// (quartile distance over median, eight seeds), against 1.3 % on tmpfs.
// fsync calls are still counted (wal.flushes); what they cost a device is
// not measured.
func dataRoot(lay layout) string {
	const shm = "/dev/shm"
	var st syscall.Statfs_t
	if fsName(shm) == "tmpfs" && syscall.Statfs(shm, &st) == nil && st.Bavail*uint64(st.Bsize) >= 1<<30 {
		return shm
	}
	d := filepath.Join(lay.benchDir, ".run")
	os.MkdirAll(d, 0o755) // a failure shows as MkdirTemp's error in the caller
	return d
}

func dataFSNote(w *workload, runDir string) string {
	if !w.durable {
		return "none (memory-only server)"
	}
	return fsName(runDir)
}
