package train

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"llmbw/internal/fabric"
	"llmbw/internal/model"
)

// TestSummaryJSONByteStable runs the identical configuration on two fresh
// simulated clusters and requires byte-identical serialized summaries: the
// regression test for the ordered-map-emit audit of summary.go (the
// BandwidthGBps map serializes through encoding/json, whose sorted-key
// contract this locks in) and runner.go (Stats/Series are filled and read in
// fabric.MeasuredClasses order).
func TestSummaryJSONByteStable(t *testing.T) {
	cfg := Config{Strategy: ZeRO1, Model: model.NewGPT(8), Iterations: 1, Warmup: 0}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Errorf("summaries of identical runs differ:\n%s\n----\n%s", bufs[0].Bytes(), bufs[1].Bytes())
	}

	// The serialized interconnect keys must come out sorted — the property
	// that makes a map-valued field safe to emit at all.
	var s struct {
		BW map[string][3]float64 `json:"bandwidth_gbps"`
	}
	if err := json.Unmarshal(bufs[0].Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if len(s.BW) != len(fabric.MeasuredClasses()) {
		t.Errorf("bandwidth map has %d keys, want %d", len(s.BW), len(fabric.MeasuredClasses()))
	}
	names := make([]string, 0, len(s.BW))
	for name := range s.BW {
		names = append(names, name)
	}
	sort.Strings(names)
	last := -1
	for _, name := range names {
		at := bytes.Index(bufs[0].Bytes(), []byte(`"`+name+`"`))
		if at < 0 {
			t.Fatalf("class %s missing from summary JSON:\n%s", name, bufs[0].String())
		}
		if at < last {
			t.Errorf("class %s serialized out of sorted order", name)
		}
		last = at
	}
}

// TestFastPathsMatchLegacyPaths pins the serialized training summary of
// three shapes — the comm-queue pipelines (ZeRO-3), fused dual-ring
// collectives (DDP) and model-parallel all-reduces (Megatron) — to the output
// of the rebuild-per-issue collectives, per-flow admission and imperative
// drivers that compiled plans, batched admission and compiled schedules
// replaced. The golden was frozen while all eight combinations of those paths
// still existed and were proven byte-identical.
func TestFastPathsMatchLegacyPaths(t *testing.T) {
	var buf bytes.Buffer
	for _, cfg := range []Config{
		{Strategy: DDP, Model: model.NewGPT(8), Iterations: 2, Warmup: 1},
		{Strategy: Megatron, Model: model.NewGPT(8), Iterations: 1, Warmup: 0, Nodes: 2},
		{Strategy: ZeRO3, Model: model.NewGPT(8), Iterations: 2, Warmup: 1, Nodes: 2},
	} {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== %s\n", cfg.Name())
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "fastpaths", buf.Bytes())
}

// TestResultStatsCoverMeasuredClasses pins the key set of the Result.Stats /
// Result.Series maps to fabric.MeasuredClasses: every consumer iterates that
// fixed paper-order slice, so a key outside it would be silently invisible
// in reports.
func TestResultStatsCoverMeasuredClasses(t *testing.T) {
	res, err := Run(Config{Strategy: DDP, Model: model.NewGPT(8), Iterations: 1, Warmup: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := fabric.MeasuredClasses()
	if len(res.Stats) != len(want) || len(res.Series) != len(want) {
		t.Fatalf("stats/series key counts = %d/%d, want %d", len(res.Stats), len(res.Series), len(want))
	}
	for _, class := range want {
		if _, ok := res.Stats[class]; !ok {
			t.Errorf("Stats missing class %s", class)
		}
		if _, ok := res.Series[class]; !ok {
			t.Errorf("Series missing class %s", class)
		}
	}
}
