package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the harness around its calls into the layer's public functions; Parent
// is the index of the span that caused this one (-1 for an op's root)
// and every span of one op shares Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced window runs the very same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover, over the spans recorded from index from on
// (one pass of a run; parents never precede their pass).
func selfTimes(spans []span, from int) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans[from:] {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans[from:] {
		out[s.Name] += time.Duration(s.End - s.Start - child[from+i])
	}
	return out
}

// spanCounts returns how many spans from index from on carry each name.
func spanCounts(spans []span, from int) map[string]int {
	out := map[string]int{}
	for _, s := range spans[from:] {
		out[s.Name]++
	}
	return out
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
