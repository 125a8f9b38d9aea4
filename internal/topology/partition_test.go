package topology

import (
	"fmt"
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
)

func TestRoundRobinEvenness(t *testing.T) {
	for items := 0; items <= 64; items++ {
		for parts := 1; parts <= 17; parts++ {
			got := RoundRobin(items, parts)
			if len(got) != parts {
				t.Fatalf("RoundRobin(%d,%d) has %d parts", items, parts, len(got))
			}
			sum, min, max := 0, got[0], got[0]
			for _, n := range got {
				sum += n
				if n < min {
					min = n
				}
				if n > max {
					max = n
				}
			}
			if sum != items {
				t.Fatalf("RoundRobin(%d,%d) sums to %d", items, parts, sum)
			}
			if max-min > 1 {
				t.Fatalf("RoundRobin(%d,%d) uneven: %v", items, parts, got)
			}
		}
	}
}

func TestRoundRobinDegenerate(t *testing.T) {
	if got := RoundRobin(0, 0); len(got) != 0 {
		t.Errorf("RoundRobin(0,0) = %v, want empty", got)
	}
	if got := RoundRobin(0, -3); len(got) != 0 {
		t.Errorf("RoundRobin(0,-3) = %v, want empty", got)
	}
}

func TestMakePartitionShapes(t *testing.T) {
	cases := []struct {
		nodes, shards int
		wantCounts    []int
	}{
		{1, 1, []int{1}},
		{2, 1, []int{2}},
		{4, 2, []int{2, 2}},
		{5, 2, []int{3, 2}},
		{16, 4, []int{4, 4, 4, 4}},
		{3, 8, []int{1, 1, 1}}, // shard count clamps to node count
	}
	for _, tc := range cases {
		p := MakePartition(tc.nodes, tc.shards)
		if len(p.Counts) != len(tc.wantCounts) {
			t.Errorf("MakePartition(%d,%d): %d shards, want %d", tc.nodes, tc.shards, len(p.Counts), len(tc.wantCounts))
			continue
		}
		node := 0
		for s, want := range tc.wantCounts {
			if p.Counts[s] != want {
				t.Errorf("MakePartition(%d,%d): shard %d holds %d nodes, want %d", tc.nodes, tc.shards, s, p.Counts[s], want)
			}
			if p.First[s] != node {
				t.Errorf("MakePartition(%d,%d): shard %d starts at %d, want %d", tc.nodes, tc.shards, s, p.First[s], node)
			}
			for i := 0; i < p.Counts[s]; i++ {
				if p.Of[node] != s {
					t.Errorf("MakePartition(%d,%d): node %d on shard %d, want %d", tc.nodes, tc.shards, node, p.Of[node], s)
				}
				node++
			}
		}
		if p.Lookahead != LatRoCE {
			t.Errorf("lookahead = %v, want LatRoCE", p.Lookahead)
		}
	}
}

// TestShardedClusterGlobalNaming requires a partitioned cluster to expose
// exactly the monolithic cluster's link identities — same names, same
// Link.Node — regardless of where the partition boundaries fall. That is
// the property that makes telemetry byte-identical across shard counts.
func TestShardedClusterGlobalNaming(t *testing.T) {
	const nodes = 5
	mono := New(DefaultConfig(nodes))
	want := make(map[string]int)
	for _, class := range fabric.MeasuredClasses() {
		for _, l := range mono.LinksOfClass(class, -1) {
			want[l.Name] = l.Node
		}
	}
	sc := NewShardedCluster(DefaultConfig(nodes), 2)
	defer sc.Eng.Close()
	got := make(map[string]int)
	for _, g := range sc.Groups {
		for _, class := range fabric.MeasuredClasses() {
			for _, l := range g.LinksOfClass(class, -1) {
				if _, dup := got[l.Name]; dup {
					t.Errorf("link %s appears in two sub-clusters", l.Name)
				}
				got[l.Name] = l.Node
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("partitioned cluster has %d links, monolithic has %d", len(got), len(want))
	}
	for name, node := range want {
		if gn, ok := got[name]; !ok || gn != node {
			t.Errorf("link %s: node %d in partitioned cluster, want %d", name, gn, node)
		}
	}
}

func TestShardedClusterLookup(t *testing.T) {
	sc := NewShardedCluster(DefaultConfig(5), 2) // blocks [0,1,2] and [3,4]
	defer sc.Eng.Close()
	if s := sc.ShardOf(2); s != 0 {
		t.Errorf("ShardOf(2) = %d, want 0", s)
	}
	if s := sc.ShardOf(3); s != 1 {
		t.Errorf("ShardOf(3) = %d, want 1", s)
	}
	g, ln := sc.GroupOf(4)
	if g != sc.Groups[1] || ln != 1 {
		t.Errorf("GroupOf(4) = group %p local %d, want group 1 local 1", g, ln)
	}
	// Global naming means the local accessor on the sub-cluster returns the
	// globally named link.
	if name := g.RoCELink(NIC{Node: ln, Socket: 0}).Name; name != "n4/roce0" {
		t.Errorf("node 4's NIC link is %q, want n4/roce0", name)
	}
	if h := sc.Handoff(0, 4); h.Latency() != LatRoCE {
		t.Errorf("handoff latency %v, want LatRoCE", h.Latency())
	}
	if sc.Handoff(0, 1) != sc.Handoff(1, 2) {
		t.Errorf("same-shard-pair handoffs should be shared")
	}
}

// ringWorkload drives a store-and-forward NIC ring over a partitioned
// cluster: every node streams to its successor, GPU→NIC on the sender, a
// LatRoCE wire hop, NIC→DRAM on the receiver, resending on completion.
// Per-node byte counts are deliberately asymmetric: a same-shard hop lands
// with a local sequence number while a cross-shard hop lands in the
// injection band, so only tie-free workloads are comparable across shard
// counts (the serial/parallel A/B at one shard count is exact regardless).
func ringWorkload(sc *ShardedCluster, rounds int) *[][]string {
	n := sc.Part.Nodes
	logs := make([][]string, n)
	for node := 0; node < n; node++ {
		node := node
		next := (node + 1) % n
		src, ls := sc.GroupOf(node)
		dst, ld := sc.GroupOf(next)
		h := sc.Handoff(node, next)
		srcPath := src.GPUToNIC(GPU{Node: ls, Index: 0}, NIC{Node: ls, Socket: 0}).Links
		dstPath := []*fabric.Link{dst.PCIeNICLink(NIC{Node: ld, Socket: 0}), dst.DRAMLink(ld, 0)}
		bytes := 1e9 + float64(node)*64e6
		left := rounds
		var send func()
		var done func()
		done = func() {
			logs[node] = append(logs[node], fmt.Sprintf("%v n%d", dst.Eng.Now(), node))
			if left--; left > 0 {
				// done runs on the receiver's shard, but Send must run on
				// the sender's — so the "ack" travels back across the shard
				// boundary like any other cross-partition event, paying the
				// wire latency.
				sc.Eng.Inject(sc.ShardOf(next), sc.ShardOf(node), sc.Part.Lookahead, send)
			}
		}
		send = func() {
			h.Send(fmt.Sprintf("ring n%d", node), bytes, srcPath, dstPath, done)
		}
		src.Eng.Schedule(0, send)
	}
	return &logs
}

// TestShardedClusterRingIdentical runs the ring on 1, 2 and 4 shards, in
// serial-merge and parallel-window mode each, and requires every run to
// produce identical completion logs and identical per-node RoCE telemetry.
func TestShardedClusterRingIdentical(t *testing.T) {
	old := sim.Sharded
	defer func() { sim.Sharded = old }()
	const nodes = 4
	type result struct {
		key   string
		logs  [][]string
		stats string
	}
	var results []result
	for _, shards := range []int{1, 2, 4} {
		for _, parallel := range []bool{false, true} {
			sim.Sharded = parallel
			cfg := DefaultConfig(nodes)
			cfg.Window = sim.Time(1) << 40
			sc := NewShardedCluster(cfg, shards)
			logs := ringWorkload(sc, 5)
			end := sc.RunSim()
			stats := fmt.Sprintf("end=%v", end)
			for node := 0; node < nodes; node++ {
				g, _ := sc.GroupOf(node)
				st := g.ClassStats(fabric.RoCE, node, 0, end)
				stats += fmt.Sprintf(" n%d=%+v", node, st)
			}
			results = append(results, result{
				key:   fmt.Sprintf("shards=%d parallel=%v", shards, parallel),
				logs:  *logs,
				stats: stats,
			})
		}
	}
	ref := results[0]
	for _, r := range results[1:] {
		if fmt.Sprint(r.logs) != fmt.Sprint(ref.logs) {
			t.Errorf("%s completion logs differ from %s:\n%v\nvs\n%v", r.key, ref.key, r.logs, ref.logs)
		}
		if r.stats != ref.stats {
			t.Errorf("%s telemetry differs from %s:\n%s\nvs\n%s", r.key, ref.key, r.stats, ref.stats)
		}
	}
}
