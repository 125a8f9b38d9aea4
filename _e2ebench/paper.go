package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"time"

	"llmbw/internal/collective"
	"llmbw/internal/core"
	"llmbw/internal/fabric"
	"llmbw/internal/memory"
	"llmbw/internal/model"
	"llmbw/internal/scenario"
	"llmbw/internal/topology"
	"llmbw/internal/train"
)

// paper-regen: every pass regenerates the 20 paper figures and tables and
// the 14 ext-* studies serially, in `bwchar all-ext` order, with default
// core.Options, in a fresh worker process. One operation is one experiment.

// paperOp is one experiment of a pass.
type paperOp struct {
	ID   string  `json:"id"`
	Ms   float64 `json:"ms"`
	Hash string  `json:"hash"`
	Err  string  `json:"err,omitempty"`
}

// paperOutcome is a paper worker's report of one pass.
type paperOutcome struct {
	Ops      []paperOp        `json:"ops"`
	Phase    phase            `json:"phase"`
	Tiers    []scenario.Stats `json:"tiers"`
	Problems []string         `json:"problems"`
	Spans    []span           `json:"spans,omitempty"`
	Probe    *paperProbe      `json:"probe,omitempty"`
}

// paperProbe holds the per-layer probes of a traced paper-regen run.
type paperProbe struct {
	RunMs      []float64 `json:"run_ms"`      // cold train.Run at N iterations
	Run2Ms     []float64 `json:"run2_ms"`     // the same at 2N
	Iters      int       `json:"iters"`       // N
	FillPasses int64     `json:"fill_passes"` // Network.Reshares at N
	SimS       float64   `json:"sim_s"`       // Engine.Now at the end of the N run
	ReplayUs   []float64 `json:"replay_us"`   // 1 GB 8-rank all-reduce replays
	Compiled   int       `json:"plans_compiled"`
	Replays    int64     `json:"replays"`
}

// paperExtraSetups is the number of start-up-only workers run beside each
// pass.
const paperExtraSetups = 3

func experiments() []core.Experiment { return append(core.Experiments(), core.Extensions()...) }

func paperWorker(args []string) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	profile := fs.String("profile", "", "write a CPU profile of the pass here and report CPU per layer")
	traceOn := fs.Bool("trace", false, "record spans")
	probe := fs.Bool("probe", false, "run the train and collective probes instead of a pass")
	setupOnly := fs.Bool("setup-only", false, "exit once ready (a set-up time sample)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exps := experiments()
	tr := newTracer(*traceOn)
	signalReady()
	switch {
	case *setupOnly:
		return nil
	case *probe:
		p, err := paperProbes(tr)
		if err != nil {
			return err
		}
		return emit(paperOutcome{Probe: p, Spans: tr.list()})
	}

	var out paperOutcome
	mark, err := startPhase(*profile != "")
	if err != nil {
		return err
	}
	pass := tr.begin("pass", "", -1, -1)
	var buf bytes.Buffer
	for i, e := range exps {
		buf.Reset()
		fmt.Fprintf(&buf, "\n######## %s — %s ########\n", e.ID, e.Title)
		sp := tr.begin("core.Experiment.Run", e.ID, i, pass)
		t0 := time.Now()
		err := e.Run(&buf, core.Options{})
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(sp)
		op := paperOp{ID: e.ID, Ms: ms, Hash: digest(buf.Bytes())}
		if err != nil {
			op.Err = err.Error()
		}
		out.Ops = append(out.Ops, op)
	}
	tr.end(pass)
	if out.Phase, err = mark.end(*profile); err != nil {
		return err
	}
	out.Tiers = scenario.Snapshot()
	out.Problems = paperChecks()
	out.Spans = tr.list()
	return emit(out)
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}

// Checks made apart from the program: bounds every run must respect and the
// paper's orderings. The runs are the experiments' own, served by the
// result tier the pass filled.

// a100PeakFLOPs is the A100's dense FP16 Tensor-Core peak (paper Table II).
const a100PeakFLOPs = 312e12

// nvlinkEgress bounds one A100's send bandwidth: 12 NVLink 3.0 links at
// 25 GB/s per direction (paper Table III).
const nvlinkEgress = 12 * 25e9

// tableIII is the paper's aggregate bidirectional bandwidth per node and
// interconnect (Table III), bytes/s.
var tableIII = map[fabric.Class]float64{
	fabric.DRAM:     8 * 2 * 25.6e9,
	fabric.XGMI:     3 * 72e9,
	fabric.PCIeGPU:  4 * 64e9,
	fabric.NVLink:   12 * 4 * 50e9,
	fabric.PCIeNIC:  2 * 64e9,
	fabric.PCIeNVME: 8 * 16e9,
	fabric.RoCE:     2 * 50e9,
}

func paperChecks() []string {
	var probs []string
	failf := func(format string, args ...any) { probs = append(probs, fmt.Sprintf(format, args...)) }
	opt := core.Options{}
	run := func(cfg train.Config) *train.Result {
		res, err := core.RunMax(cfg, opt)
		if err != nil {
			failf("%s: %v", cfg.Name(), err)
			return nil
		}
		checkTrainResult(res, true, failf)
		return res
	}
	dp := []train.Strategy{train.DDP, train.ZeRO1, train.ZeRO2, train.ZeRO3}
	tflops := map[[2]int]float64{}
	for _, nodes := range []int{1, 2} {
		// Fig 6: ZeRO-3 > ZeRO-2 > ZeRO-1 > DDP in achieved model size.
		var prev int64 = -1
		for _, s := range dp {
			size := core.MaxModel(train.Config{Strategy: s, Nodes: nodes}).Params()
			if size <= prev {
				failf("fig6 ordering: %v on %d node(s) fits %d params, not above the previous stage's %d", s, nodes, size, prev)
			}
			prev = size
		}
		for _, s := range append(dp, train.Megatron) {
			if res := run(train.Config{Strategy: s, Nodes: nodes}); res != nil {
				tflops[[2]int{int(s), nodes}] = res.AttainedTFLOPs
			}
		}
	}
	// Fig 7: dual-node Megatron-LM attains less than single-node.
	if m1, m2 := tflops[[2]int{int(train.Megatron), 1}], tflops[[2]int{int(train.Megatron), 2}]; !(m2 < m1) {
		failf("fig7 ordering: dual-node Megatron-LM %.1f TFLOP/s not below single-node %.1f", m2, m1)
	}
	run(train.Config{Strategy: train.ZeRO3, Offload: memory.CPUOffload})
	run(train.Config{Strategy: train.ZeRO3, Offload: memory.NVMeOptimizer})
	// ZeRO-Infinity is slower than GPU-only ZeRO-3 on the same model (the
	// Fig 5 configuration: the small model, two traced iterations).
	small := core.MaxModel(train.Config{Strategy: train.DDP})
	fig5 := func(off memory.Offload) *train.Result {
		res, err := train.RunCached(train.Config{Strategy: train.ZeRO3, Offload: off, Model: small, Trace: true, Iterations: 2, Warmup: 1})
		if err != nil {
			failf("fig5 ZeRO-3 offload %v: %v", off, err)
			return nil
		}
		checkTrainResult(res, true, failf)
		return res
	}
	if gpu, inf := fig5(memory.NoOffload), fig5(memory.NVMeOptimizer); gpu != nil && inf != nil && !(inf.IterTime > gpu.IterTime) {
		failf("ZeRO-Infinity iteration %v not slower than GPU-only ZeRO-3 %v", inf.IterTime, gpu.IterTime)
	}
	return probs
}

// checkTrainResult applies the bounds every training run must respect:
// attained TFLOP/s at most GPUs × 312; per interconnect avg and 90th at most
// the peak, and (on the testbed) the peak at most its Table III capacity;
// and for data-parallel runs without offload, an iteration no shorter than
// the 6·Ψ·tokens compute bound or the 2(n−1)/n ring-volume bound.
//
// avg <= 90th is not a property of the method: a bursty series (the NVMe
// offload runs) idles through most windows and has its mean above its 90th
// percentile.
func checkTrainResult(res *train.Result, testbed bool, failf func(string, ...any)) {
	cfg := res.Config
	name := cfg.Name()
	world := cfg.WorldSize()
	if !(res.AttainedTFLOPs > 0) || !le(res.AttainedTFLOPs*1e12, float64(world)*a100PeakFLOPs) {
		failf("%s: attained %.1f TFLOP/s outside (0, %d GPUs x 312]", name, res.AttainedTFLOPs, world)
	}
	for _, class := range fabric.MeasuredClasses() {
		st := res.Stats[class]
		if st.Avg < 0 || st.P90 < 0 || !le(st.Avg, st.Peak) || !le(st.P90, st.Peak) {
			failf("%s: %v avg/90th/peak %g/%g/%g out of order", name, class, st.Avg, st.P90, st.Peak)
		}
		if testbed && !le(st.Peak, tableIII[class]) {
			failf("%s: %v peak %.1f GB/s above its Table III capacity %.1f GB/s", name, class, st.Peak/1e9, tableIII[class]/1e9)
		}
	}
	if cfg.Offload != memory.NoOffload || cfg.Strategy == train.Megatron || cfg.Trace {
		return
	}
	psi := float64(cfg.Model.Params())
	iter := res.IterTime.ToSeconds()
	tokens := float64(cfg.BatchPerGPU * cfg.Model.SeqLen)
	computeBound := 6 * psi * tokens / a100PeakFLOPs
	n := float64(world)
	ringBound := 2 * (n - 1) / n * (model.FP16Bytes * psi) / nvlinkEgress
	if !le(math.Max(computeBound, ringBound), iter) {
		failf("%s: iteration %.4fs below its compute bound %.4fs or ring-volume bound %.4fs", name, iter, computeBound, ringBound)
	}
}

// paperProbes measures the train and collective layers directly: the same
// testbed configuration at N and 2N iterations (marginal cost per
// iteration, and the intercept), with a recording FaultInjection hook for
// the fabric and engine counters, and a 1 GB all-reduce over 8 ranks
// replayed on a cluster the benchmark builds.
func paperProbes(tr *tracer) (*paperProbe, error) {
	const n = 8
	p := &paperProbe{Iters: n}
	big := core.MaxModel(train.Config{Strategy: train.ZeRO3, Nodes: 2})
	for rep := 0; rep < 7; rep++ {
		for _, iters := range []int{n, 2 * n} {
			var cl *topology.Cluster
			cfg := train.Config{Strategy: train.ZeRO3, Nodes: 2, Model: big, Iterations: iters, Warmup: 1,
				FaultInjection: func(c *topology.Cluster) { cl = c }}
			sp := tr.begin("train.Run", fmt.Sprintf("ZeRO-3 2 nodes %d iterations", iters), -1, -1)
			t0 := time.Now()
			_, err := train.Run(cfg)
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			if iters == n {
				p.RunMs = append(p.RunMs, ms)
				p.FillPasses = cl.Net.Reshares()
				p.SimS = cl.Eng.Now().ToSeconds()
			} else {
				p.Run2Ms = append(p.Run2Ms, ms)
			}
		}
	}
	cl := topology.New(topology.DefaultConfig(2))
	g := collective.NewGroup(cl, collective.NodeMajorRanks(2, topology.GPUsPerNode))
	for i := 0; i < 21; i++ {
		done := false
		sp := tr.begin("collective.Group.Start", "all-reduce 1 GB x 8 ranks", i, -1)
		t0 := time.Now()
		g.Start(collective.AllReduce, 1e9, func() { done = true })
		cl.Eng.Run()
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		tr.end(sp)
		if !done {
			return nil, fmt.Errorf("collective probe: all-reduce %d did not complete", i)
		}
		if i > 0 { // the first issue compiles the plan
			p.ReplayUs = append(p.ReplayUs, us)
		}
	}
	p.Compiled, p.Replays = g.PlanStats()
	return p, nil
}

// runPaperRegen is the orchestrator: whole passes until the run time is
// spent. A traced run alternates traced and untraced passes, so the tracing
// overhead is measured inside one run.
func runPaperRegen(cfg runConfig, rep *report) error {
	var (
		passes     []paperOutcome
		phases     []phase
		runs       []workerRun
		spanGroups = map[string][]span{}
		probe      *paperProbe
		setups     []float64
	)
	start := time.Now()
	for i := 0; cfg.another(i, start); i++ {
		// Process start-up is a few milliseconds; extra set-ups per pass
		// give its median enough samples.
		for j := 0; j < paperExtraSetups; j++ {
			wr, err := runWorker([]string{"paper", "-setup-only"}, nil)
			if err != nil {
				return err
			}
			setups = append(setups, wr.Setup.Seconds())
		}
		traced := cfg.Trace && i%2 == 0
		var args []string
		if traced {
			args = []string{"-trace", "-profile", outPath(cfg, "paper-regen", fmt.Sprintf("pass%d.pprof", i))}
		}
		var out paperOutcome
		steal := hostSteal()
		wr, err := runWorker(append([]string{"paper"}, args...), &out)
		if err != nil {
			return err
		}
		logRound("paper-regen", i, out.Phase.WallS, out.Phase.CPUS, hostSteal()-steal)
		passes = append(passes, out)
		phases = append(phases, out.Phase)
		runs = append(runs, wr)
		if traced {
			spanGroups[fmt.Sprintf("pass%d", i)] = out.Spans
		}
	}
	if cfg.Trace {
		var out paperOutcome
		if _, err := runWorker([]string{"paper", "-probe", "-trace"}, &out); err != nil {
			return err
		}
		probe = out.Probe
		spanGroups["probe"] = out.Spans
	}

	// Correctness: no experiment fails, every pass prints the same bytes as
	// the first, and the bound and ordering checks hold in every pass.
	exps := experiments()
	for pi, p := range passes {
		if len(p.Ops) != len(exps) {
			rep.fail("pass %d ran %d of %d experiments", pi, len(p.Ops), len(exps))
			continue
		}
		for i, op := range p.Ops {
			rep.attempted++
			if op.Err != "" {
				rep.failed++
				rep.fail("pass %d: %s: %s", pi, op.ID, op.Err)
			} else if op.Hash != passes[0].Ops[i].Hash {
				rep.fail("pass %d: %s output differs from pass 0", pi, op.ID)
			}
		}
		for _, pr := range p.Problems {
			rep.fail("pass %d: %s", pi, pr)
		}
	}

	perKind := map[string][]float64{}
	for _, p := range passes {
		for _, op := range p.Ops {
			perKind[op.ID] = append(perKind[op.ID], op.Ms)
		}
	}
	if !cfg.Trace {
		setWorkerEndToEnd(rep, phases, runs, setups, perKind)
		return nil
	}

	setLayerDefaults(rep)
	for id, xs := range perKind {
		rep.set("core.exp_ms."+id, "ms", median(xs))
	}
	setProfileLayers(rep, phases)
	setTiers(rep, passes[len(passes)-1].Tiers)
	if probe != nil {
		n := float64(probe.Iters)
		run1, run2 := median(probe.RunMs), median(probe.Run2Ms)
		iter := (run2 - run1) / n
		rep.set("train.run_ms", "ms", run1)
		rep.set("train.iter_ms", "ms", iter)
		rep.set("train.build_ms", "ms", run1-n*iter)
		rep.set("fabric.fill_passes", "count", float64(probe.FillPasses))
		rep.set("train.simulated_s", "s", probe.SimS)
		rep.set("collective.replay_us", "us", median(probe.ReplayUs))
		rep.set("collective.plans_compiled", "count", float64(probe.Compiled))
		rep.set("collective.replays", "count", float64(probe.Replays))
	}
	traced, untraced := splitTraced(phases)
	setOverhead(rep, traced, untraced)
	return writeSpans(outPath(cfg, "paper-regen", "spans.json"), spanGroups)
}
