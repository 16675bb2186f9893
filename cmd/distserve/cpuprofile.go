//go:build cpuprofile

package main

import (
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"time"
)

// With DISTSERVE_CPUPROFILE=<dir>, a -tags cpuprofile build profiles its CPU
// into dir in 0.5 s slices, cpu-<pid>-<n>.pprof, each renamed into place when
// whole: a SIGKILL (how the benchmark ends a server) loses only the last one.
func init() {
	dir := os.Getenv("DISTSERVE_CPUPROFILE")
	if dir == "" {
		return
	}
	go func() {
		for n := 0; ; n++ {
			name := fmt.Sprintf("%s/cpu-%d-%06d.pprof", dir, os.Getpid(), n)
			f, err := os.Create(name + ".tmp")
			if err == nil {
				err = pprof.StartCPUProfile(f)
			}
			if err == nil {
				time.Sleep(500 * time.Millisecond)
				pprof.StopCPUProfile()
				if err = f.Close(); err == nil {
					err = os.Rename(name+".tmp", name)
				}
			}
			if err != nil {
				log.Fatalf("distserve: cpu profile: %v", err)
			}
		}
	}()
}
