package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask (up to 1024 CPUs).
type cpuMask [16]uint64

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

func getAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY,
		uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinProcess pins every thread this process has now to cpus; threads the
// runtime starts later inherit the mask from the pinned thread that
// creates them. It reports whether every thread took the mask.
func pinProcess(cpus []int) bool {
	m := maskOf(cpus)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return false
	}
	ok := true
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may exit between the listing and the call (ESRCH);
		// that thread needs no pin.
		if err := setAffinity(tid, &m); err != nil && err != syscall.ESRCH {
			ok = false
		}
	}
	return ok
}

// startPinned runs start — which must fork the child process — on a
// thread whose affinity is cpus, so the child inherits that mask, and
// restores the thread's own mask afterwards. It reports whether the
// child was started under the mask.
func startPinned(cpus []int, start func() error) (pinned bool, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old cpuMask
	want := maskOf(cpus)
	if getAffinity(0, &old) == nil && setAffinity(0, &want) == nil {
		pinned = true
		defer func() {
			if setAffinity(0, &old) != nil {
				pinned = false
			}
		}()
	}
	return pinned, start()
}
