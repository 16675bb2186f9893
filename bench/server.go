package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanups are the teardown steps of everything the benchmark has
// started (servers, data directories). runCleanups runs them once, from
// main's defer, from the signal handler, or after a failed check.
var (
	cleanupMu sync.Mutex
	cleanups  []func()
)

func atExit(f func()) {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	cleanups = append(cleanups, f)
}

func runCleanups() {
	cleanupMu.Lock()
	fs := cleanups
	cleanups = nil
	cleanupMu.Unlock()
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
}

// layout locates the repository checkout the benchmark runs in.
type layout struct {
	root     string // repository root (holds go.mod and cmd/distserve)
	benchDir string // this package's directory
}

// findLayout resolves the checkout from the working directory: the
// driver starts the benchmark at the repository root, `go -C bench run .`
// leaves it in bench/.
func findLayout() (layout, error) {
	wd, err := os.Getwd()
	if err != nil {
		return layout{}, err
	}
	for _, root := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(root, "cmd", "distserve", "main.go")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, "bench", "spec.go")); err != nil {
			continue
		}
		return layout{root: root, benchDir: filepath.Join(root, "bench")}, nil
	}
	return layout{}, fmt.Errorf("bench: no checkout with cmd/distserve and bench/ at or above %s", wd)
}

// buildServer compiles cmd/distserve into bench/.bin. It runs before the
// generator pins itself, so the compiler may use every core, and its
// time enters no metric.
func buildServer(lay layout) (string, error) {
	bin := filepath.Join(lay.benchDir, ".bin", "distserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/distserve")
	cmd.Dir = lay.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building distserve: %v\n%s", err, out)
	}
	return bin, nil
}

// cpuPlan splits the machine between the server and the generator: the
// server gets cores 0..n-2 and as many Ps, the generator the last core.
type cpuPlan struct {
	serverCPUs []int
	genCPU     int
}

func planCPUs() cpuPlan {
	n := runtime.NumCPU()
	p := cpuPlan{genCPU: n - 1}
	for c := 0; c < max(1, n-1); c++ {
		p.serverCPUs = append(p.serverCPUs, c)
	}
	return p
}

// server is one spawned distserve.
type server struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string // "" unless the workload streams over the wire
	dataDir  string // "" for a memory-only server
	startMs  float64
	pinned   bool
	stderr   bytes.Buffer

	waitExit chan struct{} // closed once the process has been reaped
	stopOnce sync.Once
}

// freeAddr asks the kernel for a free loopback port, so two benchmark
// runs on one machine never collide on a fixed one.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer spawns distserve for w and waits until /healthz answers.
// A lost port race (another process took the probed port first) shows as
// an early exit and is retried with fresh ports.
func startServer(bin string, w *workload, plan cpuPlan, runDir string) (*server, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := startServerOnce(bin, w, plan, runDir)
		if err == nil {
			return s, nil
		}
		last = err
	}
	return nil, last
}

func startServerOnce(bin string, w *workload, plan cpuPlan, runDir string) (*server, error) {
	s := &server{}
	var err error
	if s.httpAddr, err = freeAddr(); err != nil {
		return nil, err
	}
	args := []string{"-addr", s.httpAddr, "-checkpoint", "0", "-quiet"}
	if w.wire {
		if s.wireAddr, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-wire", s.wireAddr)
	}
	if w.durable {
		if s.dataDir, err = os.MkdirTemp(runDir, "data-"); err != nil {
			return nil, err
		}
		args = append(args, "-data", s.dataDir, "-wal=true", "-max-resident", strconv.Itoa(w.maxResident))
	} else {
		args = append(args, "-data", "")
	}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(len(plan.serverCPUs)))
	s.cmd.Stderr = &s.stderr
	// If the benchmark dies without running its cleanups, the kernel
	// still takes the server down with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	t0 := time.Now()
	s.pinned, err = startPinned(plan.serverCPUs, s.cmd.Start)
	if err != nil {
		s.removeData()
		return nil, fmt.Errorf("bench: starting distserve: %w", err)
	}
	atExit(s.stop)

	exited := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed server carries nothing
		close(exited)
	}()
	s.waitExit = exited

	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + s.httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-exited:
			s.stop()
			return nil, fmt.Errorf("bench: distserve exited during start-up: %s", strings.TrimSpace(s.stderr.String()))
		default:
		}
		if time.Since(t0) > 10*time.Second {
			s.stop()
			return nil, fmt.Errorf("bench: distserve not healthy after 10s: %s", strings.TrimSpace(s.stderr.String()))
		}
		time.Sleep(2 * time.Millisecond)
	}
	client.CloseIdleConnections()
	s.startMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	return s, nil
}

func (s *server) removeData() {
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// stop kills the server, waits until it has ended, and removes its data
// directory. Safe to call more than once.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		if s.cmd.Process != nil {
			_ = s.cmd.Process.Kill() // already-exited is fine
			<-s.waitExit
		}
		s.removeData()
	})
}

// cpuSeconds is the server's user+system CPU time so far, from
// /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	return procCPUSeconds(s.cmd.Process.Pid)
}

// clockTick is USER_HZ: Linux reports process times to user space in
// 1/100 s on every supported architecture.
const clockTick = 100

func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("bench: malformed /proc stat line")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: unparsable /proc stat times")
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMB is the server's high-water resident set (VmHWM).
func (s *server) peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// fsName names the filesystem holding path, for the run's record of
// where the WAL's fsyncs went.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
