package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"

	"llmbw/internal/model"
	"llmbw/internal/scenario"
	"llmbw/internal/serve"
	"llmbw/internal/train"
)

// trainKeys returns the train.results keys a reply touched: one for a /run
// (including the two known-fault classes the daemon answers), one per
// summary of a /sweep reply. ok is false for requests that never reach the
// result tier.
func trainKeys(r dres) (keys []string, ok bool) {
	if r.status != http.StatusOK {
		return nil, false
	}
	switch r.req.class {
	case "run", "fault-negative", "fault-typo":
		var spec runSpec
		if err := json.Unmarshal(r.req.body, &spec); err != nil {
			return nil, false
		}
		k, _ := spec.config().ScenarioKey()
		return []string{k}, true
	case "sweep":
		var spec runSpec
		var sums []train.Summary
		if json.Unmarshal(r.req.body, &spec) != nil || json.Unmarshal(r.body, &sums) != nil {
			return nil, false
		}
		for _, s := range sums {
			spec.Layers = s.Layers
			k, _ := spec.config().ScenarioKey()
			keys = append(keys, k)
		}
		return keys, true
	}
	return nil, false
}

// checkDaemon checks every reply: the status each class must get, byte
// identity of every 200 reply with the library's emitter for the same
// configuration (computed here, in this process), and the /stats counters
// against the lookups the client caused. The known-fault classes count as
// failed while the daemon answers them wrongly.
func checkDaemon(rep *report, results []dres, tiersNow []scenario.Stats) {
	okHealth := digest([]byte("ok\n"))
	bodies := map[string]string{} // key -> first 200 reply digest
	var trainCalls, serveCalls int64
	trainDistinct, serveDistinct := map[string]bool{}, map[string]bool{}
	for _, r := range results {
		rep.attempted++
		c := r.req.class
		if strings.HasPrefix(c, "fault-") {
			if r.status < 400 || r.status >= 500 {
				rep.failed++
			}
			if keys, ok := trainKeys(r); ok {
				trainCalls++
				trainDistinct[keys[0]] = true
			}
			continue
		}
		want := http.StatusOK
		if c == "invalid" {
			want = http.StatusBadRequest
		}
		if r.status != want {
			rep.failed++
			rep.fail("%s %s: status %d (%s), want %d", r.req.path, r.req.body, r.status, r.err, want)
			continue
		}
		switch c {
		case "healthz":
			if r.hash != okHealth {
				rep.fail("/healthz: unexpected body")
			}
			continue
		case "invalid":
			continue
		case "serve":
			var spec serveSpec
			if err := json.Unmarshal(r.req.body, &spec); err != nil {
				rep.fail("/serve %s: %v", r.req.body, err)
				continue
			}
			serveCalls++
			serveDistinct[spec.config().ScenarioKey()] = true
		default:
			keys, _ := trainKeys(r)
			trainCalls += int64(len(keys))
			for _, k := range keys {
				trainDistinct[k] = true
			}
		}
		if first, seen := bodies[r.req.key]; !seen {
			bodies[r.req.key] = r.hash
		} else if first != r.hash {
			rep.fail("%s %s: reply differs from an earlier reply to the same query", r.req.path, r.req.body)
		}
	}
	for key, got := range bodies {
		path, body, _ := strings.Cut(key, " ")
		want, err := referenceReply(path, []byte(body))
		if err != nil {
			rep.fail("%s %s: reference: %v", path, body, err)
		} else if digest(want) != got {
			rep.fail("%s %s: reply differs from the library's emitter for the same configuration", path, body)
		}
	}
	checkTier(rep, tiersNow, "train.results", trainCalls, len(trainDistinct))
	checkTier(rep, tiersNow, "serve.results", serveCalls, len(serveDistinct))
}

// checkTier requires hits+misses to equal the lookups the client caused,
// every distinct configuration to have been computed at least once, and
// misses (computations started) to equal the entries left plus those
// evicted.
func checkTier(rep *report, list []scenario.Stats, name string, calls int64, distinct int) {
	for _, st := range list {
		if st.Name != name {
			continue
		}
		if st.Hits+st.Misses != calls {
			rep.fail("/stats %s: hits %d + misses %d != %d lookups issued", name, st.Hits, st.Misses, calls)
		}
		if st.Misses < int64(distinct) {
			rep.fail("/stats %s: %d misses for %d distinct configurations", name, st.Misses, distinct)
		}
		if st.Invalidations != 0 || st.Misses != int64(st.Entries)+st.Evictions {
			rep.fail("/stats %s: misses %d != entries %d + evictions %d (invalidations %d)",
				name, st.Misses, st.Entries, st.Evictions, st.Invalidations)
		}
		return
	}
	rep.fail("/stats: no %s tier", name)
}

// referenceReply renders the reply the daemon must give, with the same
// emitters the batch CLIs use: Result.WriteJSON for /run and /serve,
// WriteSummariesJSON over the fitting sizes for /sweep.
func referenceReply(path string, body []byte) ([]byte, error) {
	var buf bytes.Buffer
	switch path {
	case "/serve":
		var spec serveSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, err
		}
		res, err := serve.RunCached(spec.config())
		if err != nil {
			return nil, err
		}
		err = res.WriteJSON(&buf)
		return buf.Bytes(), err
	case "/sweep":
		var spec runSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return nil, err
		}
		base := spec.config()
		base.Model = model.GPT{}
		maxLayers := base.Profile().MaxLayers(model.DefaultBatchSize, 4)
		layers, err := model.ParseSizes(spec.Sizes, maxLayers)
		if err != nil {
			return nil, err
		}
		var results []*train.Result
		for _, l := range layers {
			if l > maxLayers {
				continue
			}
			cfg := base
			cfg.Model = model.NewGPT(l)
			res, err := train.RunCached(cfg)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
		err = train.WriteSummariesJSON(&buf, results)
		return buf.Bytes(), err
	}
	var spec runSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, err
	}
	res, err := train.RunCached(spec.config())
	if err != nil {
		return nil, err
	}
	err = res.WriteJSON(&buf)
	return buf.Bytes(), err
}

// classLatencies groups reply latencies by the servesim request classes.
// A /run is a miss when its configuration is asked for the first time in
// the run; it is a hit when fewer distinct train.results keys than the
// cache cap (less a margin for the concurrent connections' reordering) were
// touched since its previous request, so LRU must still hold it. Others are
// left out of both.
func classLatencies(results []dres) map[string][]float64 {
	out := map[string][]float64{}
	var seq []string // train.results keys in issue order
	last := map[string]int{}
	for _, r := range results {
		c := r.req.class
		keys, touches := trainKeys(r)
		switch {
		case c == "invalid" && r.status == http.StatusBadRequest,
			(c == "healthz" || c == "sweep" || c == "serve") && r.status == http.StatusOK:
			out[c] = append(out[c], r.ms)
		case c == "run" && touches:
			if prev, seen := last[keys[0]]; !seen {
				out["run_miss"] = append(out["run_miss"], r.ms)
			} else if distinctSince(seq, prev, runCacheCap-4) {
				out["run_hit"] = append(out["run_hit"], r.ms)
			}
		}
		for _, k := range keys {
			last[k] = len(seq)
			seq = append(seq, k)
		}
	}
	return out
}

// distinctSince reports whether fewer than limit distinct keys follow
// position prev in seq.
func distinctSince(seq []string, prev, limit int) bool {
	seen := map[string]bool{}
	for i := prev + 1; i < len(seq); i++ {
		seen[seq[i]] = true
		if len(seen) >= limit {
			return false
		}
	}
	return true
}
