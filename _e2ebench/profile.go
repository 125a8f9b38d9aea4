package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuByLayer sums the self time of a runtime/pprof CPU profile per program
// layer: `go tool pprof -top` lists each function's flat time (an inlined
// function counts as its own leaf), and each function is charged to its
// package, llmbw/internal/<layer>, the runtime (GC, malloc, scheduling) or
// "other".
func cpuByLayer(profilePath string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profilePath)
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", profilePath, err)
	}
	out := map[string]float64{}
	table := false
	for _, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "flat" && f[1] == "flat%" {
			table = true
			continue
		}
		if !table || len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof %s: flat column %q", profilePath, f[0])
		}
		out[layerOf(f[5])] += ms / 1e3
	}
	return out, nil
}

// layerOf maps a profiled function name to the layer it is charged to.
func layerOf(fn string) string {
	const prefix = "llmbw/internal/"
	switch {
	case strings.HasPrefix(fn, prefix):
		rest := fn[len(prefix):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal"):
		return "runtime"
	}
	return "other"
}
