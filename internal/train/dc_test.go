package train

import (
	"bytes"
	"strings"
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/memory"
	"llmbw/internal/model"
)

func dcBase(strategy Strategy) Config {
	return Config{
		Strategy:   strategy,
		Model:      model.NewGPT(8),
		Topo:       "rail-only:nodes=8,pod=1",
		Iterations: 2,
		Warmup:     1,
	}
}

// TestDCShardedMatchesUnsharded extends the sharded A/B matrix to a
// multi-node collective workload on a generated fabric — the workload the
// PDES engine was built for. Every strategy × algorithm pairing must
// serialize identically at 1/2/4/8 shards, serial merge and parallel
// windows alike.
func TestDCShardedMatchesUnsharded(t *testing.T) {
	for _, strategy := range []Strategy{DDP, ZeRO3} {
		for _, algo := range []string{"flat", "2level", "multiring"} {
			cfg := dcBase(strategy)
			cfg.Algo = algo
			plain := runSharded(t, cfg, 0, false)
			for _, m := range []struct {
				name     string
				shards   int
				parallel bool
			}{
				{"shards=2 serial-merge", 2, false},
				{"shards=2 parallel", 2, true},
				{"shards=4 parallel", 4, true},
				{"shards=8 parallel", 8, true},
			} {
				if got := runSharded(t, cfg, m.shards, m.parallel); !bytes.Equal(plain, got) {
					t.Errorf("%v/%s: %s output differs from the plain run:\n%s\nvs\n%s",
						strategy, algo, m.name, got, plain)
				}
			}
		}
	}
}

// TestDCStrategiesRun smoke-tests every supported strategy × fabric family
// and sanity-checks the scale model: traffic lands on the NIC class and the
// iteration takes positive time.
func TestDCStrategiesRun(t *testing.T) {
	for _, strategy := range []Strategy{DDP, ZeRO1, ZeRO2, ZeRO3} {
		for _, topo := range []string{"fat-tree:nodes=8", "rail-only:nodes=8", "dragonfly:nodes=8"} {
			cfg := dcBase(strategy)
			cfg.Topo = topo
			cfg.Nodes = 0 // adopt the spec's node count
			cfg.Shards = 2
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v on %s: %v", strategy, topo, err)
			}
			if res.IterTime <= 0 || res.AttainedTFLOPs <= 0 {
				t.Errorf("%v on %s: iter=%v tflops=%v", strategy, topo, res.IterTime, res.AttainedTFLOPs)
			}
			if res.Stats[fabric.RoCE].Avg <= 0 {
				t.Errorf("%v on %s: no NIC traffic measured", strategy, topo)
			}
			if !strings.Contains(res.Config.Name(), "@") {
				t.Errorf("%v on %s: Name %q lacks the fabric suffix", strategy, topo, res.Config.Name())
			}
		}
	}
}

// TestDCValidate pins the datacenter configuration surface: spec/algo
// errors, node-count conflicts, unsupported testbed machinery, and the
// cache key distinguishing topo/algo.
func TestDCValidate(t *testing.T) {
	ok := dcBase(DDP)
	if err := ok.Validate(); err != nil {
		t.Fatalf("base DC config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad spec", func(c *Config) { c.Topo = "mesh:nodes=4" }},
		{"bad algo", func(c *Config) { c.Algo = "bisect" }},
		{"node conflict", func(c *Config) { c.Nodes = 4 }},
		{"megatron", func(c *Config) { c.Strategy = Megatron }},
		{"offload", func(c *Config) { c.Strategy = ZeRO3; c.Offload = memory.CPUOffload }},
		{"checkpoint", func(c *Config) { c.CheckpointEvery = 1 }},
		{"trace", func(c *Config) { c.Trace = true }},
		{"purpose-built", func(c *Config) { c.PurposeBuilt = true }},
		{"roce override", func(c *Config) { c.RoCEBW = 1e9 }},
		{"rewrite", func(c *Config) { c.Rewrite = RewriteSerializeComm }},
		{"algo on testbed", func(c *Config) { c.Topo = ""; c.Nodes = 1; c.Algo = "flat" }},
	}
	for _, tc := range cases {
		cfg := dcBase(DDP)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
	// Cache keys: canonical topo spelling shares an entry; algo and topo
	// distinguish entries.
	a, okA := dcBase(DDP).cacheKey()
	canon := dcBase(DDP)
	canon.Topo = "rail:nodes=8,pod=1"
	b, okB := canon.cacheKey()
	if !okA || !okB || a != b {
		t.Errorf("canonicalized topo specs should share a cache key:\n%s\n%s", a, b)
	}
	alt := dcBase(DDP)
	alt.Algo = "multiring"
	c, _ := alt.cacheKey()
	if c == a {
		t.Error("cache key ignores Algo")
	}
	ft := dcBase(DDP)
	ft.Topo = "fat-tree:nodes=8,pod=1"
	d, _ := ft.cacheKey()
	if d == a {
		t.Error("cache key ignores Topo")
	}
}
