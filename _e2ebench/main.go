// Command e2ebench is the repository benchmark: it runs one workload against
// the simulator's public entry points for a fixed time, checks every output,
// and prints one JSON result line.
//
//	e2ebench --workload paper-regen --seed 1 --seconds 30 --trace 0
//	e2ebench compare <base-dir> <head-dir>
//
// Workloads: paper-regen, dc-fabrics, whatif-daemon (see README.md). With
// --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// per-layer metrics of a traced run, including the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	Bin     string // directory holding the servesim binary
	Out     string // directory for spans, profiles and daemon logs
	Procs   int    // host cores: shard count, daemon -parallel, client connections
}

// report collects a workload's outcome. Check failures make the run
// incorrect; they are printed to stderr, one per line.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig, *report) error{
	"paper-regen":   runPaperRegen,
	"dc-fabrics":    runDCFabrics,
	"whatif-daemon": runWhatIfDaemon,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "worker":
			os.Exit(workerMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	workload := flag.String("workload", "", "workload to run: paper-regen | dc-fabrics | whatif-daemon | all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured duration in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	bin := flag.String("bin", "", "directory holding the servesim binary built for the benchmark")
	out := flag.String("out", ".bench_build/trace", "directory for spans, CPU profiles and daemon logs")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = []string{"paper-regen", "dc-fabrics", "whatif-daemon"}
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
			fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
			os.Exit(2)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Bin: *bin, Out: *out, Procs: runtime.NumCPU(),
	}
	for _, n := range names {
		if err := runOne(n, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
	}
}

// runOne runs a workload and prints its metrics, then its JSON result line.
func runOne(workload string, cfg runConfig) error {
	rep := newReport()
	if err := workloads[workload](cfg, rep); err != nil {
		return err
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	printHuman(workload, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printHuman writes the metrics one per line before the JSON result line.
func printHuman(workload string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: correct=%t attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// outPath names a file in the run's output directory.
func outPath(cfg runConfig, workload, suffix string) string {
	return filepath.Join(cfg.Out, fmt.Sprintf("%s-seed%d-trace%d.%s", workload, cfg.Seed, b2i(cfg.Trace), suffix))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// another reports whether a run starts round i: it keeps starting whole
// rounds until the run time is spent, and a traced run holds at least one
// traced and one untraced round.
func (c runConfig) another(i int, start time.Time) bool {
	return i == 0 || (c.Trace && i == 1) || time.Since(start).Seconds() < c.Seconds
}

// hostSteal returns the hypervisor steal time the host has accumulated, in
// seconds (the steal column of /proc/stat), or 0 where it cannot be read.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}

// logRound prints one round's cost to stderr, with the steal time the host
// took from all its CPUs meanwhile: the first thing to look at when a run
// reads slow.
func logRound(workload string, i int, wall, cpu, steal float64) {
	fmt.Fprintf(os.Stderr, "e2ebench: %s round %d: wall %.3f s, cpu %.3f s, host steal %.2f s\n", workload, i, wall, cpu, steal)
}
