package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The probe is the benchmark's witness of the host. The reference
// sandbox's vCPUs share their physical cores with other guests: while the
// sibling hyperthread is busy, code that fills the core's issue ports runs
// 1.6–2× slower, for stretches from a tenth of a second to many minutes,
// with steal time 0. Some hours a run meets no such stretch; some hours
// nine windows in ten sit in one. A run's raw timings then say how busy
// the neighbours were, not how fast the program is.
//
// So a second process, pinned to the server's cores, times a fixed
// arithmetic kernel every probeEvery by its own thread's CPU clock. Being
// descheduled costs the kernel nothing; a slow core does. Its cost has two
// clear levels (78 µs and ~155 µs on the reference sandbox), and its mean
// cost over a stretch of time says how slow the core was in it:
// timingsAtCalm (windows.go) divides every duration by that, and by nothing
// the server did. A server that stalls now and then still shows in full.
//
// The probe costs the server about 0.8 % of a core, the same on every run.
// With more than one server core it witnesses whichever it is scheduled on.
const (
	probeEvery  = 10 * time.Millisecond
	probeFloats = 2048 // 16 KB: stays in L1, so the server's cache use does not move the cost
	probeReps   = 100

	// probeCap bounds one reading, as a multiple of the calm cost, before
	// it enters a mean: the disturbed level is 2×, and the one reading in a
	// thousand that an interrupt stretches to 5× or 10× would move a
	// forty-sample mean by a tenth.
	probeCap = 2.5
)

const (
	clockMonotonic     = 1
	clockThreadCPUTime = 3
)

func clockNs(id uintptr) int64 {
	var ts syscall.Timespec
	// The vDSO is not reachable from here, but a real system call per
	// reading is cheap beside a 78 µs kernel.
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

var probeSink float64

// probeMain is the probe process: it prints "<monotonic ns> <cost ns>"
// lines until its standard output closes or it is killed.
func probeMain() int {
	runtime.LockOSThread()
	a := make([]float64, probeFloats)
	for i := range a {
		a[i] = float64(i%7) + 0.5
	}
	out := bufio.NewWriter(os.Stdout)
	for {
		c0 := clockNs(clockThreadCPUTime)
		// Eight independent sums keep several multiply-adds in flight each
		// cycle; a single dependent chain leaves the core's ports idle and
		// hardly notices a busy sibling (8 % against 90 %).
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for r := 0; r < probeReps; r++ {
			for i := 0; i+8 <= len(a); i += 8 {
				s0 += a[i] * a[i]
				s1 += a[i+1] * a[i+1]
				s2 += a[i+2] * a[i+2]
				s3 += a[i+3] * a[i+3]
				s4 += a[i+4] * a[i+4]
				s5 += a[i+5] * a[i+5]
				s6 += a[i+6] * a[i+6]
				s7 += a[i+7] * a[i+7]
			}
		}
		cost := clockNs(clockThreadCPUTime) - c0
		probeSink = s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
		fmt.Fprintf(out, "%d %d\n", clockNs(clockMonotonic), cost)
		if out.Flush() != nil {
			return 0
		}
		time.Sleep(probeEvery)
	}
}

// probe is the running probe process, seen from the benchmark.
type probe struct {
	cmd      *exec.Cmd
	out      bytes.Buffer
	stopOnce sync.Once
}

// startProbe re-executes this binary as the probe, pinned to cpus.
func startProbe(cpus []int) (*probe, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &probe{cmd: exec.Command(self, "-probe")}
	p.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	p.cmd.Stdout = &p.out
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if _, err := startPinned(cpus, p.cmd.Start); err != nil {
		return nil, fmt.Errorf("bench: starting the host probe: %w", err)
	}
	atExit(func() { p.stop() })
	return p, nil
}

// probeSample is one timing of the kernel: when, on the monotonic clock,
// and what it cost.
type probeSample struct {
	at   int64
	cost float64 // ns
}

// stop ends the probe, waits for it, and returns what it saw. A second
// call returns nothing.
func (p *probe) stop() (samples []probeSample) {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Kill() // already-exited is fine
		_ = p.cmd.Wait()         // killed: the status carries nothing; Wait also drains stdout into p.out
		lines := bytes.Split(p.out.Bytes(), []byte("\n"))
		for _, line := range lines[:len(lines)-1] { // what follows the last newline is empty, or a line the kill cut short
			var s probeSample
			if n, _ := fmt.Sscanf(string(line), "%d %f", &s.at, &s.cost); n == 2 {
				samples = append(samples, s)
			}
		}
	})
	return samples
}

// calmCost is the probe's cost at its cheapest: the first percentile of
// everything it measured during the run, set-ups included; the plain
// minimum would be one lucky reading. It is the level host loads are
// counted from and single readings are capped against (hostLoad); a run the
// neighbours never let go of reads high here and its loads low by as much,
// and the product — the probe's mean cost, which is all the timings are
// divided by — is what it is either way.
func calmCost(samples []probeSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	costs := make([]float64, len(samples))
	for i, s := range samples {
		costs[i] = s.cost
	}
	sort.Float64s(costs)
	return costs[len(costs)/100]
}

// hostLoad is how far above its calm cost the probe ran, on average, over
// the readings taken in [from, to) on the monotonic clock: 0 on a core the
// neighbours left alone, about 1 with one of them on the sibling
// hyperthread throughout. NaN if the probe took no reading then.
func hostLoad(samples []probeSample, calmNs float64, from, to int64) float64 {
	lo := sort.Search(len(samples), func(i int) bool { return samples[i].at >= from })
	var sum float64
	n := 0
	for _, s := range samples[lo:] {
		if s.at >= to {
			break
		}
		sum += min(s.cost, probeCap*calmNs)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum/float64(n)/calmNs - 1
}
