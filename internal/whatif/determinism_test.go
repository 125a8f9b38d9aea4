package whatif

import (
	"bytes"
	"sort"
	"testing"

	"llmbw/internal/sim"
)

// TestXbarScenarioKeysComplete pins XbarReport's fixed display list to the
// key set XbarAblation actually produces: the report iterates xbarScenarios
// instead of the maps (map order is randomized), so a scenario added to the
// ablation but not the list would silently vanish from the table.
func TestXbarScenarioKeysComplete(t *testing.T) {
	with, without := XbarAblation(100 * sim.Millisecond)
	for _, m := range []map[string]float64{with, without} {
		if len(m) != len(xbarScenarios) {
			t.Fatalf("ablation has %d scenarios, display list has %d", len(m), len(xbarScenarios))
		}
		got := make([]string, 0, len(m))
		for k := range m {
			got = append(got, k)
		}
		sort.Strings(got)
		want := append([]string(nil), xbarScenarios...)
		sort.Strings(want)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("scenario key mismatch: map has %q, display list has %q", got[i], want[i])
			}
		}
	}
}

// xbarReportGolden is XbarReport's output at a 100 ms stress duration,
// frozen while the rebuild-per-issue collectives and per-flow admission
// still existed and rendered it byte-identically to compiled plans and
// batched admission.
const xbarReportGolden = `== Ablation: I/O-die crossbar contention (attained fraction of RoCE theoretical) ==
scenario               with crossbar  without  paper (with)
---------------------  -------------  -------  ------------
CPU-RoCE same-socket   10%            10%      93%
CPU-RoCE cross-socket  5%             10%      47%
GPU-RoCE same-socket   5%             10%      52%
GPU-RoCE cross-socket  3%             10%      42%
finding: removing the modelled SerDes-crossbar contention restores every
scenario to near-theoretical — the degradations of Fig 4 are entirely the
crossbar, supporting the paper's Section III-C4 hypothesis.
`

// TestXbarReportStableAcrossIssuePaths pins the crossbar ablation to the
// bytes every collective issue and flow admission path produced: the what-if
// studies must be blind to the issue machinery.
func TestXbarReportStableAcrossIssuePaths(t *testing.T) {
	var buf bytes.Buffer
	if err := XbarReport(&buf, 100*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != xbarReportGolden {
		t.Errorf("XbarReport drifted from its golden:\n%s\n----\n%s", got, xbarReportGolden)
	}
}

// TestXbarReportByteStable renders the crossbar ablation twice from scratch
// and requires identical bytes — the regression test for the
// ordered-map-emit audit of this package's map-backed report.
func TestXbarReportByteStable(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		if err := XbarReport(&bufs[i], 100*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Errorf("XbarReport output differs across identical runs:\n%s\n----\n%s",
			bufs[0].String(), bufs[1].String())
	}
}
