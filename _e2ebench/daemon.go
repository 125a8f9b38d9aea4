package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"llmbw/internal/model"
	"llmbw/internal/scenario"
	"llmbw/internal/serve"
	"llmbw/internal/train"
)

// whatif-daemon: the real cmd/servesim binary, started fresh with empty
// caches and -parallel = nproc, driven by nproc client connections as a
// closed loop (each waits for its reply, as what-if scripts do). Rounds of
// daemonRound requests of fixed class make-up follow each other; the seed
// draws which configurations each round asks for. The result tiers are
// capped below the working set, so misses insert and evict beside the reads
// that hit.

const (
	daemonStarts  = 15 // set-ups per run; the last one serves the timed phase
	runCacheCap   = 24 // -cache: below the train.results working set
	serveCacheCap = 4  // -serve-cache: below the serve.results working set
)

// Round make-up: five requests of each known-fault class per round, so the
// failed share is the same in every run. The class shares are chosen, not
// taken from recorded traffic (the repository holds none); see the README.
var roundMix = []struct {
	class string
	n     int
}{
	{"run", 800}, {"sweep", 30}, {"serve", 70}, {"healthz", 50}, {"invalid", 35},
	{"fault-panic", 5}, {"fault-negative", 5}, {"fault-typo", 5},
}

// runSpec is a /run query and the train.Config the daemon builds from it.
type runSpec struct {
	Strategy   string `json:"strategy"`
	Nodes      int    `json:"nodes,omitempty"`
	Layers     int    `json:"layers,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	Warmup     int    `json:"warmup,omitempty"`
	Topo       string `json:"topo,omitempty"`
	Algo       string `json:"algo,omitempty"`
	Sizes      string `json:"sizes,omitempty"` // /sweep only
}

var strategyNames = map[string]train.Strategy{
	"ddp": train.DDP, "megatron": train.Megatron,
	"zero1": train.ZeRO1, "zero2": train.ZeRO2, "zero3": train.ZeRO3,
}

func (s runSpec) config() train.Config {
	return train.Config{Strategy: strategyNames[s.Strategy], Nodes: s.Nodes, Model: model.NewGPT(s.Layers),
		Iterations: s.Iterations, Warmup: s.Warmup, Topo: s.Topo, Algo: s.Algo}
}

// serveSpec is a /serve query and its serve.Config.
type serveSpec struct {
	Layers        int     `json:"layers"`
	Disaggregated bool    `json:"disaggregated,omitempty"`
	Requests      int     `json:"requests"`
	RatePerSec    float64 `json:"rate_per_sec"`
}

func (s serveSpec) config() serve.Config {
	return serve.Config{Model: model.NewGPT(s.Layers), Disaggregated: s.Disaggregated,
		Requests: s.Requests, RatePerSec: s.RatePerSec}
}

// The catalogue. /run configurations are listed hottest first; request i of
// a round draws rank r with probability proportional to 1/(r+1).
func runCatalogue() []runSpec {
	var out []runSpec
	for _, layers := range []int{4, 8} {
		for _, nodes := range []int{1, 2} {
			for _, s := range []string{"ddp", "zero1", "zero2", "zero3", "megatron"} {
				out = append(out, runSpec{Strategy: s, Nodes: nodes, Layers: layers, Iterations: 2, Warmup: 1})
			}
		}
	}
	for _, topo := range []string{"fat-tree:nodes=64", "rail-only:nodes=64", "dragonfly:nodes=64"} {
		for _, algo := range []string{"2level", "multiring"} {
			for _, s := range []string{"ddp", "zero3"} {
				out = append(out, runSpec{Strategy: s, Layers: 8, Iterations: 1, Warmup: 1, Topo: topo, Algo: algo})
			}
		}
	}
	// Interleave testbed and datacenter entries so both sit at every
	// popularity rank.
	var mixed []runSpec
	tb, dc := out[:20], out[20:]
	for len(tb)+len(dc) > 0 {
		for i := 0; i < 2 && len(tb) > 0; i++ {
			mixed, tb = append(mixed, tb[0]), tb[1:]
		}
		if len(dc) > 0 {
			mixed, dc = append(mixed, dc[0]), dc[1:]
		}
	}
	return mixed
}

func sweepCatalogue() []runSpec {
	return []runSpec{
		{Strategy: "zero2", Nodes: 1, Iterations: 2, Warmup: 1, Sizes: "0.3,0.6"},
		{Strategy: "zero3", Nodes: 2, Iterations: 2, Warmup: 1, Sizes: "0.3,0.6"},
		{Strategy: "ddp", Iterations: 1, Warmup: 1, Topo: "fat-tree:nodes=64", Algo: "2level", Sizes: "0.3,0.6"},
	}
}

func serveCatalogue() []serveSpec {
	var out []serveSpec
	for _, d := range []bool{false, true} {
		for _, n := range []int{24, 32} {
			for _, rate := range []float64{8, 16} {
				out = append(out, serveSpec{Layers: 12, Disaggregated: d, Requests: n, RatePerSec: rate})
			}
		}
	}
	return out
}

// invalidBodies are requests the daemon rejects with 400 today, as it must.
var invalidBodies = []struct{ path, body string }{
	{"/run", `{"strategy":"zero9","layers":4}`},
	{"/run", `{"strategy":"ddp","offload":"disk","layers":4}`},
	{"/run", `{"strategy":`},
	{"/serve", `{"arrival":"bursty"}`},
}

// Known-fault classes: each should get a 4xx and does not (see README).
var faultBodies = map[string]string{
	// memory.ZeROProfile panics in the handler; the client sees the
	// connection close without a reply.
	"fault-panic": `{"strategy":"zero1","offload":"nvme-opt"}`,
	// Answered 200 with iteration_seconds 0.
	"fault-negative": `{"strategy":"ddp","layers":4,"iterations":-5}`,
	// The misspelled field is ignored and the run answered 200.
	"fault-typo": `{"strategy":"ddp","layers":4,"iteratons":3}`,
}

// dreq is one request of a round.
type dreq struct {
	class string // run, sweep, serve, healthz, invalid, fault-*
	path  string
	body  []byte
	key   string // configuration identity (body) for result-tier requests
}

// makeRound draws one round's requests from the seed and the round number.
func makeRound(seed uint64, round int) []dreq {
	rng := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(round)))
	runs, sweeps, serves := runCatalogue(), sweepCatalogue(), serveCatalogue()
	weights := make([]float64, len(runs))
	total := 0.0
	for i := range weights {
		weights[i] = 1 / float64(i+1)
		total += weights[i]
	}
	pick := func() runSpec {
		x := rng.Float64() * total
		for i, w := range weights {
			if x < w {
				return runs[i]
			}
			x -= w
		}
		return runs[len(runs)-1]
	}
	var out []dreq
	for _, m := range roundMix {
		for i := 0; i < m.n; i++ {
			r := dreq{class: m.class}
			switch m.class {
			case "run":
				r.path, r.body = "/run", mustJSON(pick())
			case "sweep":
				r.path, r.body = "/sweep", mustJSON(sweeps[rng.Intn(len(sweeps))])
			case "serve":
				r.path, r.body = "/serve", mustJSON(serves[rng.Intn(len(serves))])
			case "healthz":
				r.path = "/healthz"
			case "invalid":
				inv := invalidBodies[rng.Intn(len(invalidBodies))]
				r.path, r.body = inv.path, []byte(inv.body)
			default:
				r.path, r.body = "/run", []byte(faultBodies[m.class])
			}
			if r.class == "run" || r.class == "sweep" || r.class == "serve" || r.class == "fault-negative" || r.class == "fault-typo" {
				r.key = r.path + " " + string(r.body)
			}
			out = append(out, r)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// dres is the outcome of one request.
type dres struct {
	req    dreq
	status int // 0: no reply
	ms     float64
	hash   string
	body   []byte // kept for /sweep replies, whose points the checks read
	err    string
}

// daemon is one running servesim process.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	memstats string
	seq      int
	exited   chan struct{}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches servesim and returns once /healthz answers 200,
// with the time that took.
func startDaemon(cfg runConfig, logf *os.File) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	bin := filepath.Join(cfg.Bin, "servesim")
	d := &daemon{base: fmt.Sprintf("http://127.0.0.1:%d", port), exited: make(chan struct{}),
		memstats: filepath.Join(cfg.Out, fmt.Sprintf("memstats-%d.json", port))}
	os.Remove(d.memstats)
	d.cmd = exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-parallel", strconv.Itoa(cfg.Procs), "-cache", strconv.Itoa(runCacheCap),
		"-serve-cache", strconv.Itoa(serveCacheCap), "-drain", "5s")
	d.cmd.Env = append(os.Environ(), "E2EBENCH_MEMSTATS="+d.memstats)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	probe := &http.Client{Timeout: time.Second}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { d.cmd.Wait(); close(d.exited) }()
	for {
		select {
		case <-d.exited:
			return nil, 0, errors.New("servesim exited during start-up")
		default:
		}
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("servesim did not become healthy within 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM, waits for the process, and returns its peak RSS in MB.
func (d *daemon) stop() float64 {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// cpu reads the daemon's user+sys CPU seconds from /proc/<pid>/stat.
func (d *daemon) cpu() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (ut + st) / clockTicks, nil
}

// heap asks the daemon for its Go heap counters (see overlay/).
type heapStats struct {
	Seq        int    `json:"seq"`
	TotalAlloc uint64 `json:"total_alloc"`
	Mallocs    uint64 `json:"mallocs"`
	NumGC      uint32 `json:"num_gc"`
}

func (d *daemon) heap() (heapStats, error) {
	d.seq++
	if err := d.cmd.Process.Signal(syscall.SIGUSR1); err != nil {
		return heapStats{}, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var h heapStats
		if b, err := os.ReadFile(d.memstats); err == nil && json.Unmarshal(b, &h) == nil && h.Seq == d.seq {
			return h, nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return heapStats{}, errors.New("servesim heap counters not written")
}

func (d *daemon) stats(client *http.Client) ([]scenario.Stats, error) {
	resp, err := client.Get(d.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var s struct {
		Caches []scenario.Stats `json:"caches"`
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s.Caches, err
}

// do issues one request on the client and records its outcome.
func do(client *http.Client, base string, r dreq) dres {
	out := dres{req: r}
	var req *http.Request
	var err error
	if r.body == nil {
		req, err = http.NewRequest(http.MethodGet, base+r.path, nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
	}
	if err != nil {
		out.err = err.Error()
		return out
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
		out.hash = digest(body)
		if r.class == "sweep" {
			out.body = body
		}
	}
	out.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		out.status, out.err = 0, err.Error()
	}
	return out
}

// roundCost is the daemon's host cost over one round.
type roundCost struct {
	wall, cpu float64
	heap      heapStats // counters at the round's end
}

func runWhatIfDaemon(cfg runConfig, rep *report) error {
	if cfg.Bin == "" {
		return errors.New("whatif-daemon needs -bin, the directory holding servesim")
	}
	logf, err := os.Create(outPath(cfg, "whatif-daemon", "daemon.log"))
	if err != nil {
		return err
	}
	defer logf.Close()

	var setups []float64
	var d *daemon
	for i := 0; i < daemonStarts; i++ {
		dd, took, err := startDaemon(cfg, logf)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if i < daemonStarts-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	client := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: cfg.Procs, DisableCompression: true}}
	tr := newTracer(cfg.Trace)
	var (
		results []dres
		costs   []roundCost
	)
	h0, err := d.heap()
	if err != nil {
		return err
	}
	start := time.Now()
	for round := 0; cfg.another(round, start); round++ {
		reqs := makeRound(cfg.Seed, round)
		traced := cfg.Trace && round%2 == 0
		cpu0, err := d.cpu()
		if err != nil {
			return err
		}
		steal := hostSteal()
		t0 := time.Now()
		out := make([]dres, len(reqs))
		var next int
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < cfg.Procs; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= len(reqs) {
						return
					}
					sp := -1
					if traced {
						sp = tr.begin("http."+reqs[i].class, reqs[i].path, len(results)+i, -1)
					}
					out[i] = do(client, d.base, reqs[i])
					tr.end(sp)
				}
			}()
		}
		wg.Wait()
		wall := time.Since(t0).Seconds()
		cpu1, err := d.cpu()
		if err != nil {
			return err
		}
		h, err := d.heap()
		if err != nil {
			return err
		}
		costs = append(costs, roundCost{wall: wall, cpu: cpu1 - cpu0, heap: h})
		logRound("whatif-daemon", round, wall, cpu1-cpu0, hostSteal()-steal)
		results = append(results, out...)
	}
	tiersNow, err := d.stats(client)
	if err != nil {
		return err
	}
	stopped = true
	peakRSS := d.stop()

	checkDaemon(rep, results, tiersNow)

	var runMs []float64
	for _, r := range results {
		if r.req.class == "run" && r.status == http.StatusOK {
			runMs = append(runMs, r.ms)
		}
	}
	var walls, cpus, allocs, mallocs, gcs []float64
	last := h0
	for _, c := range costs {
		walls = append(walls, c.wall)
		cpus = append(cpus, c.cpu)
		allocs = append(allocs, float64(c.heap.TotalAlloc-last.TotalAlloc)/1e6)
		mallocs = append(mallocs, float64(c.heap.Mallocs-last.Mallocs)/1e3)
		gcs = append(gcs, float64(c.heap.NumGC-last.NumGC))
		last = c.heap
	}
	if !cfg.Trace {
		t, pct, ok := tail(runMs)
		if !ok {
			rep.fail("only %d /run replies: no tail percentile", len(runMs))
		}
		fmt.Printf("whatif-daemon: tail_ms is p%.2f of %d /run replies over %d rounds\n", pct, len(runMs), len(costs))
		rep.set("setup_s", "s", median(setups))
		rep.set("wall_s", "s", median(walls))
		rep.set("cpu_s", "s", median(cpus))
		rep.set("ops_per_s", "ops/s", float64(rep.attempted-rep.failed)/sum(walls))
		rep.set("p50_ms", "ms", median(runMs))
		rep.set("tail_ms", "ms", t)
		rep.set("alloc_mb", "MB", median(allocs))
		rep.set("allocs_k", "thousands", median(mallocs))
		rep.set("peak_rss_mb", "MB", peakRSS)
		return nil
	}

	setLayerDefaults(rep)
	setTiers(rep, tiersNow)
	rep.set("runtime.gc_cycles", "count", median(gcs))
	for class, xs := range classLatencies(results) {
		rep.set("servesim."+class+"_p50_ms", "ms", median(xs))
	}
	var tw, uw []float64
	for i, c := range costs {
		if i%2 == 0 {
			tw = append(tw, c.wall)
		} else {
			uw = append(uw, c.wall)
		}
	}
	setOverhead(rep, tw, uw)
	return writeSpans(outPath(cfg, "whatif-daemon", "spans.json"), map[string][]span{"client": tr.list()})
}
