package main

import (
	"slices"

	"llmbw/internal/scenario"
)

// Per-layer metrics of the traced runs. Every traced run reports every name
// below; a metric of a layer the workload does not call into reads 0 (the
// README maps each metric to the workload that measures it).

// profiledLayers are the program packages whose CPU self time the traced
// runs report, plus the Go runtime (GC, malloc, scheduling).
var profiledLayers = []string{
	"telemetry", "sim", "fabric", "collective", "schedule", "train",
	"serve", "topology", "scenario", "memory", "nvme", "runtime",
}

// tiers are the scenario cache tiers.
var tiers = []string{
	"train.results", "train.schedules", "topology.blueprints",
	"collective.shapes", "serve.results",
}

var dcKinds = []string{"fat-tree", "rail-only", "dragonfly"}

// servesimClasses are the request classes whose median latency the daemon
// workload reports.
var servesimClasses = []string{"healthz", "run_hit", "run_miss", "sweep", "serve", "invalid"}

type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric with its unit.
func layerMetrics() []layerMetric {
	var out []layerMetric
	for _, e := range experiments() {
		out = append(out, layerMetric{"core.exp_ms." + e.ID, "ms"})
	}
	for _, l := range profiledLayers {
		out = append(out, layerMetric{l + ".cpu_s", "s"})
	}
	out = append(out,
		layerMetric{"runtime.gc_cycles", "count"},
		layerMetric{"fabric.fill_passes", "count"},
		layerMetric{"train.run_ms", "ms"},
		layerMetric{"train.iter_ms", "ms"},
		layerMetric{"train.build_ms", "ms"},
		layerMetric{"train.simulated_s", "s"},
		layerMetric{"collective.replay_us", "us"},
		layerMetric{"collective.plans_compiled", "count"},
		layerMetric{"collective.replays", "count"},
		layerMetric{"sim.shard_speedup", "ratio"},
		layerMetric{"sim.serial_ms", "ms"},
		layerMetric{"sim.sharded_ms", "ms"},
		layerMetric{"sim.cpu_per_wall", "ratio"},
		layerMetric{"sim.simulated_s", "s"},
		layerMetric{"sim.sim_s_per_host_s", "ratio"},
		layerMetric{"serve.run_ms", "ms"},
		layerMetric{"trace.wall_traced_s", "s"},
		layerMetric{"trace.wall_untraced_s", "s"},
		layerMetric{"trace.overhead_s", "s"},
	)
	for _, k := range dcKinds {
		out = append(out, layerMetric{"topology.newdc_ms." + k, "ms"})
	}
	for _, t := range tiers {
		for _, c := range []string{"hits", "misses", "evictions", "invalidations"} {
			out = append(out, layerMetric{"scenario." + t + "." + c, "count"})
		}
		out = append(out, layerMetric{"scenario." + t + ".hit_ratio", "ratio"})
	}
	for _, c := range servesimClasses {
		out = append(out, layerMetric{"servesim." + c + "_p50_ms", "ms"})
	}
	return out
}

// setLayerDefaults reports every per-layer metric as 0; the workload then
// overwrites the ones it measures.
func setLayerDefaults(rep *report) {
	for _, m := range layerMetrics() {
		rep.set(m.name, m.unit, 0)
	}
}

// setProfileLayers reports the median, over the traced (profiled) passes or
// rounds, of each layer's CPU self time and of the GC cycles run.
func setProfileLayers(rep *report, phases []phase) {
	var traced []phase
	for _, p := range phases {
		if p.PkgCPU != nil {
			traced = append(traced, p)
		}
	}
	for _, l := range profiledLayers {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, p.PkgCPU[l])
		}
		rep.set(l+".cpu_s", "s", median(xs))
	}
	var gcs []float64
	for _, p := range traced {
		gcs = append(gcs, float64(p.GCs))
	}
	rep.set("runtime.gc_cycles", "count", median(gcs))
}

// splitTraced returns the wall times of the profiled and the unprofiled
// phases.
func splitTraced(phases []phase) (traced, untraced []float64) {
	for _, p := range phases {
		if p.PkgCPU != nil {
			traced = append(traced, p.WallS)
		} else {
			untraced = append(untraced, p.WallS)
		}
	}
	return traced, untraced
}

// setTiers reports the scenario tier counters of one process.
func setTiers(rep *report, list []scenario.Stats) {
	for _, st := range list {
		if !slices.Contains(tiers, st.Name) {
			continue
		}
		p := "scenario." + st.Name + "."
		rep.set(p+"hits", "count", float64(st.Hits))
		rep.set(p+"misses", "count", float64(st.Misses))
		rep.set(p+"evictions", "count", float64(st.Evictions))
		rep.set(p+"invalidations", "count", float64(st.Invalidations))
		rep.set(p+"hit_ratio", "ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)))
	}
}

// setWorkerEndToEnd reports the end-to-end metrics of a workload whose
// rounds run in worker processes. setups holds extra set-up samples beside
// the workers' own. Operations are of unlike kinds, so no percentile is taken
// over them: each kind's median comes first; p50 is the median of those and
// the tail the slowest kind's median (no kind has the eleven samples a
// same-kind tail percentile needs in one run).
func setWorkerEndToEnd(rep *report, phases []phase, runs []workerRun, setups []float64, perKind map[string][]float64) {
	var walls, cpus, allocs, mallocs, rss []float64
	for i, p := range phases {
		walls = append(walls, p.WallS)
		cpus = append(cpus, p.CPUS)
		allocs = append(allocs, float64(p.AllocB)/1e6)
		mallocs = append(mallocs, float64(p.Mallocs)/1e3)
		rss = append(rss, runs[i].MaxRSS)
		setups = append(setups, runs[i].Setup.Seconds())
	}
	var kinds []float64
	slowest := 0.0
	for _, xs := range perKind {
		m := median(xs)
		kinds = append(kinds, m)
		slowest = max(slowest, m)
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("wall_s", "s", median(walls))
	rep.set("cpu_s", "s", median(cpus))
	rep.set("ops_per_s", "ops/s", float64(rep.attempted-rep.failed)/sum(walls))
	rep.set("p50_ms", "ms", median(kinds))
	rep.set("tail_ms", "ms", slowest)
	rep.set("alloc_mb", "MB", median(allocs))
	rep.set("allocs_k", "thousands", median(mallocs))
	rep.set("peak_rss_mb", "MB", median(rss))
}

// setOverhead reports the tracing overhead: the median wall time of the
// traced passes or rounds against that of the untraced ones run beside them.
func setOverhead(rep *report, traced, untraced []float64) {
	t, u := median(traced), median(untraced)
	rep.set("trace.wall_traced_s", "s", t)
	rep.set("trace.wall_untraced_s", "s", u)
	rep.set("trace.overhead_s", "s", t-u)
}
