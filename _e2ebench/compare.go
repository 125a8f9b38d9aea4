package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compare reads two sets of runs and reports, per workload and end-to-end
// metric, each side's median and quartiles, the pairs the change won, and a
// verdict:
//
//   - failing: a run of the change has correct=false, or the change fails
//     a larger share of its attempted operations than the parent; no
//     metric of that workload is then called improved or no worse;
//   - improved: at least 10 pairs, the change wins at least 9 of every 10
//     (ties count for neither), and the medians differ by more than the
//     parent's interquartile range;
//   - unresolved: the parent's own spread is wider than the bound, and not
//     every run of the change reads better than every run of the parent;
//   - worse: the change's median is worse by more than the bound;
//   - no worse: otherwise.
//
// A set is a directory of files named <workload>-<seed>.txt, each holding
// one run's standard output (the result is its last line). Runs pair up by
// workload and seed. Bounds and directions come from BENCHMARK.json in the
// working directory.

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare <base-dir> <head-dir>")
		return 2
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare: BENCHMARK.json:", err)
		return 1
	}
	base, err := loadSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	head, err := loadSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	var workloads []string
	for w := range base {
		if _, ok := head[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		bs, hs := base[w], head[w]
		fmt.Printf("== %s: %d base runs, %d head runs; failed %s vs %s\n", w, len(bs), len(hs), failShare(bs), failShare(hs))
		failing := failingReason(bs, hs)
		fmt.Printf("%-12s %-12s %-30s %-30s %-7s %s\n", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "won", "verdict")
		for _, m := range spec.EndToEnd {
			var bv, hv []float64
			var won, pairs int
			lower := m.Better == "lower"
			for seed, br := range bs {
				bm, ok := br.Metrics[m.Name]
				if !ok {
					continue
				}
				bv = append(bv, bm.Value)
				hr, ok := hs[seed]
				if !ok {
					continue
				}
				hm, ok := hr.Metrics[m.Name]
				if !ok {
					continue
				}
				pairs++
				if (lower && hm.Value < bm.Value) || (!lower && hm.Value > bm.Value) {
					won++
				}
			}
			for _, hr := range hs {
				if hm, ok := hr.Metrics[m.Name]; ok {
					hv = append(hv, hm.Value)
				}
			}
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v := failing
			if v == "" {
				v = verdict(bv, hv, won, pairs, lower, m.Bound)
			}
			fmt.Printf("%-12s %-12s %-30s %-30s %-7s %s\n", m.Name, m.Unit, summary(bv), summary(hv),
				fmt.Sprintf("%d/%d", won, pairs), v)
		}
	}
	return 0
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

func verdict(base, head []float64, won, pairs int, lower bool, bound float64) string {
	mb, mh := median(base), median(head)
	q1, q3 := quartiles(base)
	better := func(a, b float64) bool { return (lower && a < b) || (!lower && a > b) }
	if pairs >= 10 && float64(won) >= 0.9*float64(pairs) && better(mh, mb) && abs(mh-mb) > q3-q1 {
		return "improved"
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	if mb != 0 && (q3-q1)/abs(mb) > bound && !allBetter {
		return "unresolved (parent spread wider than the bound)"
	}
	worseBy := (mh - mb) / abs(mb)
	if !lower {
		worseBy = -worseBy
	}
	if mb != 0 && worseBy > bound {
		return fmt.Sprintf("worse (%.1f%% > bound %.0f%%)", 100*worseBy, 100*bound)
	}
	return "no worse"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func failCounts(runs map[string]result) (failed, attempted int) {
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return failed, attempted
}

func failShare(runs map[string]result) string {
	f, a := failCounts(runs)
	return fmt.Sprintf("%d/%d", f, a)
}

// failingReason is the verdict for every metric of a workload whose head
// runs did not all check out, or "" when they did.
func failingReason(base, head map[string]result) string {
	incorrect := 0
	for _, r := range head {
		if !r.Correct {
			incorrect++
		}
	}
	if incorrect > 0 {
		return fmt.Sprintf("failing (%d head runs not correct)", incorrect)
	}
	fb, ab := failCounts(base)
	fh, ah := failCounts(head)
	if int64(fh)*int64(ab) > int64(fb)*int64(ah) {
		return fmt.Sprintf("failing (head fails %d/%d operations, base %d/%d)", fh, ah, fb, ab)
	}
	return ""
}

// loadSet reads a directory of run outputs into workload -> seed -> result.
func loadSet(dir string) (map[string]map[string]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]result{}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".txt")
		i := strings.LastIndexByte(name, '-')
		if i < 0 {
			continue
		}
		w, seed := name[:i], name[i+1:]
		line, err := lastLine(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if out[w] == nil {
			out[w] = map[string]result{}
		}
		out[w][seed] = r
	}
	return out, nil
}

func lastLine(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	last := ""
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last, sc.Err()
}
