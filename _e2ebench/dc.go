package main

import (
	"bytes"
	"flag"
	"fmt"
	"time"

	"llmbw/internal/model"
	"llmbw/internal/scenario"
	"llmbw/internal/serve"
	"llmbw/internal/topology"
	"llmbw/internal/train"
)

// dc-fabrics: every round runs, in a fresh worker process, cold train.Run
// on fat-tree, rail-only and dragonfly at 1024 nodes for flat, 2level and
// multiring collectives × DDP and ZeRO-3 at Shards = nproc, then DC
// serve.Run on 256-node fat-tree and rail-only. One operation is one run.

const (
	dcTrainNodes = 1024
	dcServeNodes = 256
	// dcLayers is a model both DDP and ZeRO-3 fit on the generated fabrics'
	// 40 GB GPUs.
	dcLayers = 16
)

// dcOp names one dc-fabrics operation.
type dcOp struct {
	Topo  string
	Algo  string // empty for serving runs
	Strat train.Strategy
}

func (o dcOp) serving() bool { return o.Algo == "" }

func (o dcOp) label() string {
	if o.serving() {
		return "serve/" + o.Topo
	}
	return fmt.Sprintf("%s/%s/%s", o.Topo, o.Algo, o.Strat)
}

func dcOps() []dcOp {
	var ops []dcOp
	for _, k := range dcKinds {
		for _, a := range []string{"flat", "2level", "multiring"} {
			for _, s := range []train.Strategy{train.DDP, train.ZeRO3} {
				ops = append(ops, dcOp{Topo: fmt.Sprintf("%s:nodes=%d", k, dcTrainNodes), Algo: a, Strat: s})
			}
		}
	}
	for _, k := range []string{"fat-tree", "rail-only"} {
		ops = append(ops, dcOp{Topo: fmt.Sprintf("%s:nodes=%d", k, dcServeNodes)})
	}
	return ops
}

func (o dcOp) trainConfig(shards int) train.Config {
	return train.Config{Strategy: o.Strat, Topo: o.Topo, Algo: o.Algo, Model: model.NewGPT(dcLayers),
		Iterations: 1, Warmup: 1, Shards: shards}
}

func (o dcOp) serveConfig(shards int) serve.Config {
	return serve.Config{Topo: o.Topo, Shards: shards}
}

// run executes the operation and returns its JSON summary, the bytes the
// batch CLIs and servesim emit for it.
func (o dcOp) run(shards int, failf func(string, ...any)) ([]byte, error) {
	var buf bytes.Buffer
	if o.serving() {
		res, err := serve.Run(o.serveConfig(shards))
		if err != nil {
			return nil, err
		}
		checkServeResult(res, failf)
		err = res.WriteJSON(&buf)
		return buf.Bytes(), err
	}
	res, err := train.Run(o.trainConfig(shards))
	if err != nil {
		return nil, err
	}
	checkTrainResult(res, false, failf)
	err = res.WriteJSON(&buf)
	return buf.Bytes(), err
}

// checkServeResult applies properties every serving result must have.
func checkServeResult(res *serve.Result, failf func(string, ...any)) {
	ordered := func(what string, p serve.Percentiles) {
		if !(p.P50 > 0 && p.P50 <= p.P95 && p.P95 <= p.P99 && p.P99 <= p.Max && p.Mean <= p.Max) {
			failf("%s: %s percentiles out of order: %+v", res.Name, what, p)
		}
	}
	ordered("TTFT", res.TTFT)
	ordered("TBT", res.TBT)
	if res.Measured <= 0 || res.SLOOk > res.Measured || !le(res.GoodputRPS, res.ThroughputRPS) || !(res.TokensPerSec > 0) {
		failf("%s: measured %d, SLO-ok %d, goodput %g of throughput %g req/s, %g tokens/s",
			res.Name, res.Measured, res.SLOOk, res.GoodputRPS, res.ThroughputRPS, res.TokensPerSec)
	}
}

// dcOpResult is one operation of a dc worker round.
type dcOpResult struct {
	Label string  `json:"label"`
	Ms    float64 `json:"ms"`
	Hash  string  `json:"hash"`
	Err   string  `json:"err,omitempty"`
}

type dcOutcome struct {
	NewDCMs  map[string]float64 `json:"newdc_ms"`
	Ops      []dcOpResult       `json:"ops"`
	Phase    phase              `json:"phase"`
	Tiers    []scenario.Stats   `json:"tiers"`
	Problems []string           `json:"problems"`
	Spans    []span             `json:"spans,omitempty"`
}

func dcWorker(args []string) error {
	fs := flag.NewFlagSet("dc", flag.ContinueOnError)
	shards := fs.Int("shards", 1, "simulation shards per run")
	profile := fs.String("profile", "", "write a CPU profile of the round here and report CPU per layer")
	traceOn := fs.Bool("trace", false, "record spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var out dcOutcome
	failf := func(format string, a ...any) { out.Problems = append(out.Problems, fmt.Sprintf(format, a...)) }
	tr := newTracer(*traceOn)

	// Set-up: generate each fabric once (validating its spec) and prebuild
	// the blueprints the round's runs instantiate.
	out.NewDCMs = map[string]float64{}
	for _, k := range dcKinds {
		spec, err := topology.ParseTopoSpec(fmt.Sprintf("%s:nodes=%d", k, dcTrainNodes))
		if err != nil {
			return err
		}
		sp := tr.begin("topology.NewDC", k, -1, -1)
		t0 := time.Now()
		dc, err := topology.NewDC(spec)
		out.NewDCMs[k] = float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(sp)
		if err != nil {
			return err
		}
		if len(dc.Links()) == 0 {
			failf("%s: generated fabric has no links", k)
		}
		for _, colocated := range []bool{false, true} {
			if _, err := topology.DCBlueprintFor(spec, *shards, colocated); err != nil {
				return err
			}
		}
	}
	signalReady()

	mark, err := startPhase(*profile != "")
	if err != nil {
		return err
	}
	round := tr.begin("round", "", -1, -1)
	for i, op := range dcOps() {
		name := "train.Run"
		if op.serving() {
			name = "serve.Run"
		}
		sp := tr.begin(name, op.label(), i, round)
		t0 := time.Now()
		b, err := op.run(*shards, failf)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(sp)
		r := dcOpResult{Label: op.label(), Ms: ms, Hash: digest(b)}
		if err != nil {
			r.Err = err.Error()
		}
		out.Ops = append(out.Ops, r)
	}
	tr.end(round)
	if out.Phase, err = mark.end(*profile); err != nil {
		return err
	}
	out.Tiers = scenario.Snapshot()
	out.Spans = tr.list()
	return emit(out)
}

func runDCFabrics(cfg runConfig, rep *report) error {
	var (
		rounds     []dcOutcome
		phases     []phase
		runs       []workerRun
		spanGroups = map[string][]span{}
	)
	shards := fmt.Sprint(cfg.Procs)
	start := time.Now()
	for i := 0; cfg.another(i, start); i++ {
		traced := cfg.Trace && i%2 == 0
		args := []string{"dc", "-shards", shards}
		if traced {
			args = append(args, "-trace", "-profile", outPath(cfg, "dc-fabrics", fmt.Sprintf("round%d.pprof", i)))
		}
		var out dcOutcome
		steal := hostSteal()
		wr, err := runWorker(args, &out)
		if err != nil {
			return err
		}
		logRound("dc-fabrics", i, out.Phase.WallS, out.Phase.CPUS, hostSteal()-steal)
		rounds = append(rounds, out)
		phases = append(phases, out.Phase)
		runs = append(runs, wr)
		if traced {
			spanGroups[fmt.Sprintf("round%d", i)] = out.Spans
		}
	}

	ops := dcOps()
	for ri, r := range rounds {
		if len(r.Ops) != len(ops) {
			rep.fail("round %d ran %d of %d operations", ri, len(r.Ops), len(ops))
			continue
		}
		for i, op := range r.Ops {
			rep.attempted++
			if op.Err != "" {
				rep.failed++
				rep.fail("round %d: %s: %s", ri, op.Label, op.Err)
			} else if op.Hash != rounds[0].Ops[i].Hash {
				rep.fail("round %d: %s summary differs from round 0", ri, op.Label)
			}
		}
		for _, p := range r.Problems {
			rep.fail("round %d: %s", ri, p)
		}
	}
	// Byte-identity across shard counts: one seed-chosen run per fabric kind
	// and one serving run, recomputed here on a single shard.
	for k := range dcKinds {
		checkOneShard(rep, rounds[0], ops, k*6+int((cfg.Seed+uint64(k))%6))
	}
	checkOneShard(rep, rounds[0], ops, len(ops)-2+int(cfg.Seed%2))

	perKind := map[string][]float64{}
	var trainMs, serveMs []float64
	newdc := map[string][]float64{}
	for _, r := range rounds {
		for i, op := range r.Ops {
			perKind[op.Label] = append(perKind[op.Label], op.Ms)
			if ops[i].serving() {
				serveMs = append(serveMs, op.Ms)
			} else {
				trainMs = append(trainMs, op.Ms)
			}
		}
		for k, ms := range r.NewDCMs {
			newdc[k] = append(newdc[k], ms)
		}
	}
	if !cfg.Trace {
		setWorkerEndToEnd(rep, phases, runs, nil, perKind)
		return nil
	}

	setLayerDefaults(rep)
	setProfileLayers(rep, phases)
	setTiers(rep, rounds[len(rounds)-1].Tiers)
	for k, xs := range newdc {
		rep.set("topology.newdc_ms."+k, "ms", median(xs))
	}
	rep.set("train.run_ms", "ms", median(trainMs))
	rep.set("serve.run_ms", "ms", median(serveMs))
	if err := shardProbe(cfg, rep); err != nil {
		return err
	}
	traced, untraced := splitTraced(phases)
	setOverhead(rep, traced, untraced)
	return writeSpans(outPath(cfg, "dc-fabrics", "spans.json"), spanGroups)
}

// checkOneShard reruns operation i on one shard in this process and requires
// its summary to be byte-identical to the round's nproc-shard run.
func checkOneShard(rep *report, round dcOutcome, ops []dcOp, i int) {
	if i >= len(round.Ops) || round.Ops[i].Err != "" {
		return
	}
	b, err := ops[i].run(1, rep.fail)
	if err != nil {
		rep.fail("%s on 1 shard: %v", ops[i].label(), err)
		return
	}
	if digest(b) != round.Ops[i].Hash {
		rep.fail("%s: summary on 1 shard differs from the sharded run", ops[i].label())
	}
}

// shardProbe times the same 1024-node run (multiring ZeRO-3 on the fat-tree)
// on one shard and on nproc shards, after one untimed run of each builds
// its blueprint, and reports the speed-up with its bases, the CPU used per
// wall second of the sharded run, and simulated seconds per host second.
func shardProbe(cfg runConfig, rep *report) error {
	op := dcOp{Topo: fmt.Sprintf("fat-tree:nodes=%d", dcTrainNodes), Algo: "multiring", Strat: train.ZeRO3}
	var serial, sharded, cpuPerWall []float64
	var simS float64
	for i := 0; i < 4; i++ {
		for _, shards := range []int{1, cfg.Procs} {
			cpu0 := selfCPU()
			t0 := time.Now()
			res, err := train.Run(op.trainConfig(shards))
			wall := time.Since(t0).Seconds()
			cpu := selfCPU() - cpu0
			if err != nil {
				return err
			}
			if i == 0 {
				continue
			}
			if shards == 1 {
				serial = append(serial, wall*1e3)
			} else {
				sharded = append(sharded, wall*1e3)
				cpuPerWall = append(cpuPerWall, cpu/wall)
				simS = res.MeasureEnd.ToSeconds()
			}
		}
	}
	s, p := median(serial), median(sharded)
	rep.set("sim.serial_ms", "ms", s)
	rep.set("sim.sharded_ms", "ms", p)
	rep.set("sim.shard_speedup", "ratio", ratio(s, p))
	rep.set("sim.cpu_per_wall", "ratio", median(cpuPerWall))
	rep.set("sim.simulated_s", "s", simS)
	rep.set("sim.sim_s_per_host_s", "ratio", ratio(simS, p/1e3))
	return nil
}
