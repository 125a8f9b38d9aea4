//go:build benchmemstats

// This file is added to cmd/servesim at build time by the benchmark
// (go build -tags benchmemstats -overlay ...); it is not part of the daemon's
// source. On SIGUSR1 it writes the Go heap counters to the file named by
// E2EBENCH_MEMSTATS, so the benchmark can read the daemon's allocations. It
// adds no handler and touches no request path.

package main

import (
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func init() {
	path := os.Getenv("E2EBENCH_MEMSTATS")
	if path == "" {
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGUSR1)
	go func() {
		var seq int
		for range sig {
			seq++
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			tmp := path + ".tmp"
			body := fmt.Sprintf(`{"seq":%d,"total_alloc":%d,"mallocs":%d,"num_gc":%d}`, seq, ms.TotalAlloc, ms.Mallocs, ms.NumGC)
			if os.WriteFile(tmp, []byte(body), 0o644) == nil {
				os.Rename(tmp, path)
			}
		}
	}()
}
