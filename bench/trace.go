package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the bench made into a layer.
type span struct {
	Name    string
	Start   time.Duration // since the recorder's origin
	End     time.Duration
	Parent  int // index of the span that caused it, -1 for a root
	Request int // spans of one request share this id
	Lane    int // worker / connection that ran it
}

// recorder is the bench's own in-memory span store. Spans are recorded only
// from the bench's files, around the calls it makes into each layer; they are
// written out once, when the workload ends. A nil recorder records nothing,
// so untraced runs share the code path at no cost.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, request, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Request: request, Lane: lane})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span and returns fn's wall time, which the caller
// needs whether or not a recorder is attached.
func (r *recorder) timed(name string, parent, request, lane int, fn func()) time.Duration {
	id := r.begin(name, parent, request, lane)
	t := time.Now()
	fn()
	d := time.Since(t)
	r.end(id)
	return d
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	if r == nil {
		return self
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		if s.End >= 0 {
			self[s.Name] += s.End - s.Start - child[i]
		}
	}
	return self
}

// write stores the spans in Chrome trace-event format (load the file in
// chrome://tracing or ui.perfetto.dev).
func (r *recorder) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"id": i, "parent": s.Parent, "request": s.Request},
		})
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
