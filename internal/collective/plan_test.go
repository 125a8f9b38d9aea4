package collective

import (
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
	"llmbw/internal/topology"
)

// issueSequenceTimes runs a fixed mix of collective issues — replays, a
// single-ring shape, a rate-limited shape — back to back on a fresh cluster
// and returns each completion time.
func issueSequenceTimes(nodes int) []sim.Time {
	c := topology.New(topology.DefaultConfig(nodes))
	g := NewGroup(c, NodeMajorRanks(nodes, 4))
	seq := []struct {
		op      Op
		payload float64
		limit   float64
		rings   int
	}{
		{AllReduce, 2e9, 0, 2},
		{ReduceScatter, 1e9, 0, 1},
		{AllGather, 1e9, 0, 1},
		{AllReduce, 2e9, 0, 2}, // replay of the first shape
		{AllReduce, 2e9, 5e9, 2},
		{ReduceScatter, 1e9, 0, 1}, // replay
	}
	var times []sim.Time
	c.Eng.Go("driver", func(p *sim.Proc) {
		for _, s := range seq {
			s := s
			p.Await(func(resume func()) { g.StartRings(s.op, s.payload, s.limit, s.rings, resume) })
			times = append(times, p.Now())
		}
	})
	c.Eng.Run()
	return times
}

// TestPlanMatchesDirectIssue pins compiled and replayed plans to the
// completion times (in nanoseconds) the rebuild-per-issue path they replaced
// produced, on single- and dual-node clusters. The times were frozen while
// both paths still existed and were proven identical.
func TestPlanMatchesDirectIssue(t *testing.T) {
	want := map[int][]sim.Time{
		1: {15024000, 18786000, 22548000, 37572000, 337596000, 341358000},
		2: {201979077, 289507077, 377035077, 579014154, 929070154, 1016598154},
	}
	for _, nodes := range []int{1, 2} {
		got := issueSequenceTimes(nodes)
		if len(got) != len(want[nodes]) {
			t.Fatalf("nodes=%d: %d issues completed, want %d", nodes, len(got), len(want[nodes]))
		}
		for i, w := range want[nodes] {
			if got[i] != w {
				t.Errorf("nodes=%d issue %d: completed at %d ns, golden %d ns",
					nodes, i, int64(got[i]), int64(w))
			}
		}
	}
}

// TestPlanStatsReuse pins the pooling behaviour: sequential issues of one
// shape compile exactly one plan and replay it thereafter; a new shape
// compiles its own.
func TestPlanStatsReuse(t *testing.T) {
	c, g := singleNodeGroup(t)
	for i := 0; i < 5; i++ {
		g.Start(AllReduce, 1e9, func() {})
		c.Eng.Run()
	}
	if compiled, replays := g.PlanStats(); compiled != 1 || replays != 4 {
		t.Errorf("after 5 same-shape issues: compiled=%d replays=%d, want 1/4", compiled, replays)
	}
	g.Start(AllReduce, 2e9, func() {})
	c.Eng.Run()
	if compiled, replays := g.PlanStats(); compiled != 2 || replays != 4 {
		t.Errorf("after a new shape: compiled=%d replays=%d, want 2/4", compiled, replays)
	}
}

// TestConcurrentSameShapeIssues: two overlapping issues of the same shape
// (ZeRO-3's parameter prefetch pattern) must each hold a private plan — the
// second may not reset the first's in-flight byte counters.
func TestConcurrentSameShapeIssues(t *testing.T) {
	c, g := singleNodeGroup(t)
	var firstAt, secondAt sim.Time
	g.Start(AllReduce, 2e9, func() { firstAt = c.Eng.Now() })
	g.Start(AllReduce, 2e9, func() { secondAt = c.Eng.Now() })
	c.Eng.Run()
	if firstAt == 0 || secondAt == 0 {
		t.Fatalf("overlapping issues did not both complete: %v, %v", firstAt, secondAt)
	}
	if compiled, _ := g.PlanStats(); compiled != 2 {
		t.Errorf("overlapping same-shape issues compiled %d plans, want 2", compiled)
	}
	// Both plans are now pooled; a third issue replays instead of compiling.
	g.Start(AllReduce, 2e9, func() {})
	c.Eng.Run()
	if compiled, replays := g.PlanStats(); compiled != 2 || replays != 1 {
		t.Errorf("post-drain issue: compiled=%d replays=%d, want 2/1", compiled, replays)
	}
}

// TestPlanRefreshesCapsOnCapacityChange: a pooled plan caches cross-node
// stream caps derived from RoCE link capacities; after SetCapacity the next
// replay must recompute them exactly as a plan compiled fresh on the changed
// cluster does.
func TestPlanRefreshesCapsOnCapacityChange(t *testing.T) {
	c := topology.New(topology.DefaultConfig(2))
	ranks := NodeMajorRanks(2, 4)
	g := NewGroup(c, ranks)
	issue := func(g *Group) sim.Time {
		start := c.Eng.Now()
		var doneAt sim.Time
		g.Start(AllReduce, 2e9, func() { doneAt = c.Eng.Now() })
		c.Eng.Run()
		return doneAt - start
	}
	before := issue(g)
	l := c.LinksOfClass(fabric.RoCE, 0)[0]
	c.Net.SetCapacity(l, l.Capacity()/2)
	replayed := issue(g)
	if compiled, replays := g.PlanStats(); compiled != 1 || replays != 1 {
		t.Fatalf("compiled=%d replays=%d, want the second issue to replay the first plan", compiled, replays)
	}
	fresh := issue(NewGroup(c, ranks))
	if replayed != fresh {
		t.Errorf("replay after SetCapacity took %v, a freshly compiled plan %v", replayed, fresh)
	}
	if replayed <= before {
		t.Errorf("halving a RoCE link did not slow the all-reduce: %v before, %v after", before, replayed)
	}
}

// TestPlanReplaySteadyStateZeroAlloc pins the tentpole allocation contract:
// once a shape's plan is compiled and the fabric warmed, issuing it again
// allocates nothing — single-node and dual-node (cross-leg caps in play).
func TestPlanReplaySteadyStateZeroAlloc(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		cfg := topology.DefaultConfig(nodes)
		cfg.Window = sim.Time(1) << 60 // keep telemetry buckets from growing
		c := topology.New(cfg)
		g := NewGroup(c, NodeMajorRanks(nodes, 4))
		done := func() {}
		iterate := func() {
			g.Start(AllReduce, 1e9, done)
			c.Eng.Run()
		}
		for i := 0; i < 3; i++ {
			iterate() // compile the plan, warm pools and slice capacities
		}
		if avg := testing.AllocsPerRun(50, iterate); avg != 0 {
			t.Errorf("nodes=%d: steady-state plan replay allocates %v allocs/run, want 0", nodes, avg)
		}
		if compiled, replays := g.PlanStats(); compiled != 1 || replays < 50 {
			t.Errorf("nodes=%d: compiled=%d replays=%d, want one plan replayed throughout", nodes, compiled, replays)
		}
	}
}

// TestHandlePoolReuse: a released handle is handed back by the next NewHandle
// call with its state reset.
func TestHandlePoolReuse(t *testing.T) {
	c, g := singleNodeGroup(t)
	h := g.StartAsync(AllReduce, 1e9)
	c.Eng.Run()
	if !h.Done() {
		t.Fatal("collective did not complete")
	}
	h.Release()
	h2 := g.NewHandle()
	if h2 != h {
		t.Error("NewHandle did not reuse the released handle")
	}
	if h2.Done() {
		t.Error("recycled handle still marked done")
	}
	fired := false
	h2.Then(func() { fired = true })
	h2.Fire()
	if !fired {
		t.Error("recycled handle dropped its waiter")
	}
}

// TestHandleReleaseDuringFire: releasing a handle from one of its own Fire
// callbacks (the comm-queue auto-release pattern) must defer the recycle
// until the callback sweep finishes.
func TestHandleReleaseDuringFire(t *testing.T) {
	_, g := singleNodeGroup(t)
	h := g.NewHandle()
	order := []string{}
	h.Then(func() { h.Release(); order = append(order, "release") })
	h.Then(func() { order = append(order, "second") })
	h.Fire()
	if len(order) != 2 || order[1] != "second" {
		t.Fatalf("waiters ran as %v; release during Fire must not cut the sweep short", order)
	}
	if got := g.NewHandle(); got != h {
		t.Error("handle released during Fire was not recycled")
	}
}

// TestUnpooledHandleReleaseNoOp: handles from NewPendingHandle have no owner;
// Release must be a safe no-op.
func TestUnpooledHandleReleaseNoOp(t *testing.T) {
	h := NewPendingHandle(sim.New())
	h.Fire()
	h.Release() // must not panic or pool the handle anywhere
	if !h.Done() {
		t.Error("unpooled handle lost its done state on Release")
	}
}
