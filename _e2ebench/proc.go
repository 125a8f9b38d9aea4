package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// Workers are fresh processes of this binary ("e2ebench worker <kind> ...").
// A pass or round of the in-process workloads runs in one worker, so every
// cache tier of the program starts empty: train.schedules,
// topology.blueprints and collective.shapes have no public reset.
//
// Protocol: the worker prints "ready" on its first stdout line once it can
// issue its first operation, then one JSON line with its outcome, and exits.

// workerRun is what the parent learns about one worker process.
type workerRun struct {
	Setup  time.Duration // process start to "ready"
	MaxRSS float64       // peak resident set, MB (ru_maxrss from wait4)
}

// runWorker starts a worker, waits for it, and decodes its outcome into out
// (nil for a worker that exits once ready).
func runWorker(args []string, out any) (workerRun, error) {
	var wr workerRun
	exe, err := os.Executable()
	if err != nil {
		return wr, err
	}
	cmd := exec.Command(exe, append([]string{"worker"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return wr, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return wr, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	gotReady := sc.Scan() && sc.Text() == "ready"
	wr.Setup = time.Since(start)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	waitErr := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		wr.MaxRSS = float64(ru.Maxrss) / 1024
	}
	switch {
	case waitErr != nil:
		return wr, fmt.Errorf("worker %v: %w", args, waitErr)
	case !gotReady:
		return wr, fmt.Errorf("worker %v: no ready line", args)
	}
	if out == nil {
		return wr, nil
	}
	if err := json.Unmarshal(last, out); err != nil {
		return wr, fmt.Errorf("worker %v: decoding outcome: %w", args, err)
	}
	return wr, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func workerMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "e2ebench worker: missing kind")
		return 2
	}
	var err error
	switch args[0] {
	case "paper":
		err = paperWorker(args[1:])
	case "dc":
		err = dcWorker(args[1:])
	default:
		err = fmt.Errorf("unknown worker kind %q", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench worker:", err)
		return 1
	}
	return 0
}

func signalReady() { os.Stdout.WriteString("ready\n") }

func emit(v any) error { return json.NewEncoder(os.Stdout).Encode(v) }

// phase is the host cost of a worker's timed phase.
type phase struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocB  uint64  `json:"alloc_bytes"`
	Mallocs uint64  `json:"mallocs"`
	GCs     uint32  `json:"gcs"`
	// PkgCPU is CPU seconds of self time per program layer, from a CPU
	// profile of the phase (traced passes only).
	PkgCPU map[string]float64 `json:"pkg_cpu,omitempty"`
}

// phaseMark is the start of a timed phase.
type phaseMark struct {
	t0   time.Time
	cpu  float64
	ms   runtime.MemStats
	prof *bytes.Buffer
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// startPhase opens a timed phase; with profile set it also starts a CPU
// profile of the process.
func startPhase(profile bool) (*phaseMark, error) {
	m := &phaseMark{}
	if profile {
		m.prof = new(bytes.Buffer)
		if err := pprof.StartCPUProfile(m.prof); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m.ms)
	m.cpu = selfCPU()
	m.t0 = time.Now()
	return m, nil
}

// end closes the phase. A profile, when taken, is written to profilePath
// and summed per layer from there.
func (m *phaseMark) end(profilePath string) (phase, error) {
	wall := time.Since(m.t0).Seconds()
	cpu := selfCPU() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := phase{
		WallS:   wall,
		CPUS:    cpu,
		AllocB:  ms.TotalAlloc - m.ms.TotalAlloc,
		Mallocs: ms.Mallocs - m.ms.Mallocs,
		GCs:     ms.NumGC - m.ms.NumGC,
	}
	if m.prof != nil {
		pprof.StopCPUProfile()
		if err := os.WriteFile(profilePath, m.prof.Bytes(), 0o644); err != nil {
			return p, err
		}
		pkg, err := cpuByLayer(profilePath)
		if err != nil {
			return p, err
		}
		p.PkgCPU = pkg
	}
	return p, nil
}
