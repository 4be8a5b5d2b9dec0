package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation (a corpus item, or an HTTP request and the shard dispatches
// it caused) share op; parent is the id of the span that caused this
// one, 0 for a root.
type span struct {
	id, parent, op int64
	name           string
	start, end     time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ids   atomic.Int64
}

func newTracer() *tracer { return &tracer{} }

// newID allocates a span (or op) identifier; 0 on a nil tracer.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns every span called name, in recording order.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) samples {
	var out samples
	for _, s := range t.named(name) {
		out = append(out, s.dur())
	}
	return out
}

// len returns the number of spans recorded.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanJSON is one line of a span dump.
type spanJSON struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Op      int64  `json:"op,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_unix_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// writeSpans dumps the spans of every tracer to path, one JSON object per
// line. Span ids are unique within a tracer only.
func writeSpans(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		t.mu.Lock()
		for _, s := range t.spans {
			if err := enc.Encode(spanJSON{s.id, s.parent, s.op, s.name, s.start.UnixNano(), int64(s.dur())}); err != nil {
				t.mu.Unlock()
				f.Close()
				return err
			}
		}
		t.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
