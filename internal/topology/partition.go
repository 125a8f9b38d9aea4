package topology

import (
	"fmt"

	"llmbw/internal/fabric"
	"llmbw/internal/sim"
)

// Partition assigns cluster nodes to simulation shards in contiguous
// balanced blocks. Node boundaries are the natural cut: every intra-node
// link stays inside one shard's fair-share domain and the only cross-shard
// traffic is NIC-to-NIC, whose one-way wire latency (LatRoCE) becomes the
// conservative lookahead window.
type Partition struct {
	Nodes     int
	Shards    int
	Of        []int    // node -> shard
	First     []int    // shard -> first global node of its block
	Counts    []int    // shard -> nodes in its block
	Lookahead sim.Time // inter-shard lookahead (the NIC wire latency)
}

// RoundRobin deals items one at a time into parts slices (item i lands in
// part i%parts): every part gets either ⌊items/parts⌋ or ⌈items/parts⌉
// items. It sizes shard blocks here and the training strategies' gradient
// buckets and prefetch groups (PyTorch's bucket assignment produces the same
// distribution). parts == 0 is only meaningful for items == 0 and yields an
// empty split.
func RoundRobin(items, parts int) []int {
	if parts < 0 {
		parts = 0
	}
	out := make([]int, parts)
	for i := 0; i < items; i++ {
		out[i%parts]++
	}
	return out
}

// MakePartition splits nodes into shards contiguous blocks whose sizes
// differ by at most one (RoundRobin's distribution). A shard count
// above the node count is clamped: an empty shard would contribute nothing
// but horizon bookkeeping.
func MakePartition(nodes, shards int) Partition {
	if nodes < 1 {
		panic("topology: partition needs at least one node")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	p := Partition{
		Nodes:     nodes,
		Shards:    shards,
		Of:        make([]int, nodes),
		First:     make([]int, shards),
		Counts:    RoundRobin(nodes, shards),
		Lookahead: LatRoCE,
	}
	node := 0
	for s, cnt := range p.Counts {
		p.First[s] = node
		for i := 0; i < cnt; i++ {
			p.Of[node] = s
			node++
		}
	}
	return p
}

// MakeRailPartition splits nodes into shards contiguous blocks aligned to
// seams — the block sizes (pods of a datacenter fabric, rails of a rail
// group) that a shard boundary must not cut through, because the links
// inside one block form a single fair-share domain. Shard counts above the
// block count clamp to it (a shard that would start mid-block, or own no
// block at all, cannot exist). Blocks are distributed round-robin over the
// shards, so shard sizes differ by at most one block. A single-block seam
// list therefore always yields one shard, however many were requested —
// the single-node-rail degenerate case.
func MakeRailPartition(seams []int, shards int, lookahead sim.Time) Partition {
	if lookahead < sim.Nanosecond {
		panic(fmt.Sprintf("topology: rail partition lookahead %v must be at least 1ns", lookahead))
	}
	if len(seams) == 0 {
		panic("topology: rail partition needs at least one block")
	}
	nodes := 0
	for i, b := range seams {
		if b < 1 {
			panic(fmt.Sprintf("topology: rail partition block %d has %d nodes", i, b))
		}
		nodes += b
	}
	if shards < 1 {
		shards = 1
	}
	if shards > len(seams) {
		shards = len(seams)
	}
	p := Partition{
		Nodes:     nodes,
		Shards:    shards,
		Of:        make([]int, nodes),
		First:     make([]int, shards),
		Counts:    make([]int, shards),
		Lookahead: lookahead,
	}
	node, block := 0, 0
	for s, cnt := range RoundRobin(len(seams), shards) {
		p.First[s] = node
		for i := 0; i < cnt; i++ {
			for j := 0; j < seams[block]; j++ {
				p.Of[node] = s
				node++
			}
			p.Counts[s] += seams[block]
			block++
		}
	}
	return p
}

// ShardedCluster is a multi-node cluster partitioned across the shards of
// one sharded engine: one sub-cluster (own fabric.Network, own link graph,
// global node naming) per shard, fully connected by lookahead edges at the
// NIC wire latency, with a store-and-forward Handoff per directed shard
// pair for the cross-partition traffic. It is the substrate for workloads
// whose inter-node exchanges are NIC hand-offs rather than single
// end-to-end fluid flows — the shape that actually parallelizes.
type ShardedCluster struct {
	Part   Partition
	Eng    *sim.ShardedEngine
	Groups []*Cluster // one per shard

	handoffs [][]*fabric.Handoff // [from shard][to shard]
}

// NewShardedCluster partitions cfg.Nodes over shards sub-engines. The
// cfg.Shards field is ignored (it selects the colocated mode of New);
// drives are split into the sub-cluster owning their node.
func NewShardedCluster(cfg Config, shards int) *ShardedCluster {
	part := MakePartition(cfg.Nodes, shards)
	se := sim.NewSharded(part.Shards)
	for i := 0; i < part.Shards; i++ {
		for j := 0; j < part.Shards; j++ {
			if i != j {
				se.Connect(i, j, part.Lookahead)
			}
		}
	}
	sc := &ShardedCluster{Part: part, Eng: se}
	for s := 0; s < part.Shards; s++ {
		sub := cfg
		sub.Shards = 0
		sub.Nodes = part.Counts[s]
		sub.FirstNode = part.First[s]
		sub.Drives = nil
		for _, d := range cfg.Drives {
			if part.Of[d.Node] == s {
				d.Node -= part.First[s]
				sub.Drives = append(sub.Drives, d)
			}
		}
		g := build(se.Shard(s), sub)
		g.Sharded = se
		sc.Groups = append(sc.Groups, g)
	}
	sc.handoffs = make([][]*fabric.Handoff, part.Shards)
	for i := range sc.handoffs {
		sc.handoffs[i] = make([]*fabric.Handoff, part.Shards)
		for j := range sc.handoffs[i] {
			sc.handoffs[i][j] = fabric.NewHandoff(se, i, j, part.Lookahead,
				sc.Groups[i].Net, sc.Groups[j].Net)
		}
	}
	return sc
}

// ShardOf returns the shard owning a global node.
func (sc *ShardedCluster) ShardOf(node int) int {
	sc.checkNode(node)
	return sc.Part.Of[node]
}

// GroupOf returns the sub-cluster owning a global node and the node's local
// index within it (the index the Cluster accessors take).
func (sc *ShardedCluster) GroupOf(node int) (*Cluster, int) {
	s := sc.ShardOf(node)
	return sc.Groups[s], node - sc.Part.First[s]
}

// Handoff returns the store-and-forward channel used for traffic from one
// global node's partition to another's. Same-shard pairs get the local
// (plain-delay) handoff, so callers can route all inter-node traffic
// uniformly regardless of where the partition boundaries fall — which is
// what keeps the simulated numerics identical at every shard count.
func (sc *ShardedCluster) Handoff(fromNode, toNode int) *fabric.Handoff {
	return sc.handoffs[sc.ShardOf(fromNode)][sc.ShardOf(toNode)]
}

// RunSim drives the simulation to completion and shuts the workers down.
func (sc *ShardedCluster) RunSim() sim.Time {
	defer sc.Eng.Close()
	return sc.Eng.Run()
}

func (sc *ShardedCluster) checkNode(node int) {
	if node < 0 || node >= sc.Part.Nodes {
		panic(fmt.Sprintf("topology: no such node %d", node))
	}
}
