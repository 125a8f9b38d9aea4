package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer's public function.
// Spans are kept in memory and written out when the run ends.
type span struct {
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Op     int    `json:"op"`     // operation id, shared by the spans of one operation
	Parent int    `json:"parent"` // index of the causing span in the same list, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans relative to its creation time. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// begin opens a span and returns its index (-1 when not tracing).
func (t *tracer) begin(name, attr string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Attr: attr, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// list returns the recorded spans.
func (t *tracer) list() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes a run's spans, grouped per process (the benchmark's own
// and one list per worker pass), as JSON.
func writeSpans(path string, groups map[string][]span) error {
	b, err := json.Marshal(groups)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
