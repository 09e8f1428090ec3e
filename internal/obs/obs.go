// Package obs is the dependency-free observability seam: a span tracer with
// context.Context propagation, a ring of recent traces, and per-epoch solver
// telemetry aggregated into ring-buffered reports.
//
// The design constraint is the hot path: the placement loops are
// allocation-free today and must stay that way, so every handle in this
// package is nil-safe — a disabled tracer hands out nil *Trace and zero
// Span values whose methods are no-ops, and the only cost left on the
// disabled path is one atomic load. Rings are preallocated at construction;
// steady-state tracing recycles trace slots instead of growing.
package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one integer annotation on a span (shard index, record count,
// byte size — span attributes in this system are always numeric).
type Attr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// span is the internal mutable form; snapshots copy it out.
type span struct {
	name   string
	parent int32
	start  int64 // ns since trace start
	end    int64 // ns since trace start; 0 while open
	attrs  [4]Attr
	nattrs int
}

// Trace is one request's (or one epoch's) span tree. A nil *Trace is a
// valid no-op handle: every method short-circuits, so call sites never
// branch on whether tracing is enabled.
type Trace struct {
	tr    *Tracer
	id    string
	name  string
	start time.Time

	mu       sync.Mutex
	spans    []span
	status   int
	endNs    int64
	finished bool
}

// Span addresses one span inside a trace. The zero Span is a no-op handle.
type Span struct {
	t   *Trace
	idx int32
}

// Tracer owns the trace rings. Safe for concurrent use.
type Tracer struct {
	enabled atomic.Bool
	slowNs  int64 // set once by NewTracer
	seq     atomic.Uint64
	base    string

	mu       sync.Mutex
	ring     []*Trace // recent traces, circular
	next     int
	slow     []*Trace // slow or 5xx traces, circular, kept longer
	slowNext int
	started  uint64
}

// DefaultRing is the trace-ring capacity NewTracer uses for size <= 0.
const DefaultRing = 256

// DefaultSlowThreshold marks traces slower than this for the slow ring.
const DefaultSlowThreshold = 500 * time.Millisecond

// NewTracer returns an enabled tracer keeping the last size traces (and
// size/4 slow traces). size <= 0 means DefaultRing; slow <= 0 means
// DefaultSlowThreshold.
func NewTracer(size int, slow time.Duration) *Tracer {
	if size <= 0 {
		size = DefaultRing
	}
	if slow <= 0 {
		slow = DefaultSlowThreshold
	}
	slowSize := size / 4
	if slowSize < 4 {
		slowSize = 4
	}
	t := &Tracer{
		slowNs: int64(slow),
		base:   strconv.FormatInt(time.Now().UnixNano(), 36),
		ring:   make([]*Trace, size),
		slow:   make([]*Trace, slowSize),
	}
	t.enabled.Store(true)
	return t
}

// SetEnabled flips tracing. Disabled, StartTrace returns nil and the whole
// span API degenerates to nil checks.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// NewID mints a process-unique trace id. It works even when tracing is
// disabled, so request ids in responses never depend on the tracer state.
func (t *Tracer) NewID() string {
	if t == nil {
		return ""
	}
	return t.base + "-" + strconv.FormatUint(t.seq.Add(1), 16)
}

// StartTrace opens a trace with a root span of the same name and installs
// it in the recent-trace ring immediately, so in-flight requests are
// visible to GET /v1/debug/traces before they finish. id == "" mints one.
// Returns nil (a valid no-op handle) when tracing is disabled.
func (t *Tracer) StartTrace(name, id string) *Trace {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	if id == "" {
		id = t.NewID()
	}
	tr := &Trace{tr: t, id: id, name: name, start: time.Now()}
	tr.spans = make([]span, 1, 16)
	tr.spans[0] = span{name: name, parent: -1}
	t.mu.Lock()
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	t.started++
	t.mu.Unlock()
	return tr
}

// Started returns the number of traces ever started.
func (t *Tracer) Started() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started
}

// ID returns the trace id ("" on a nil trace).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Root returns the root span handle.
func (tr *Trace) Root() Span {
	if tr == nil {
		return Span{}
	}
	return Span{t: tr, idx: 0}
}

// Finish closes the trace (and its root span) with an HTTP-like status
// code. Slow traces and traces with status >= 500 are copied into the
// longer-lived slow ring so a burst of fast requests cannot evict the
// interesting ones before anybody looks.
func (tr *Trace) Finish(status int) {
	if tr == nil {
		return
	}
	now := time.Since(tr.start).Nanoseconds()
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return
	}
	tr.finished = true
	tr.status = status
	tr.endNs = now
	if tr.spans[0].end == 0 {
		tr.spans[0].end = now
	}
	tr.mu.Unlock()
	t := tr.tr
	if now >= t.slowNs || status >= 500 {
		t.mu.Lock()
		t.slow[t.slowNext] = tr
		t.slowNext = (t.slowNext + 1) % len(t.slow)
		t.mu.Unlock()
	}
}

func (tr *Trace) newSpan(name string, parent int32) Span {
	now := time.Since(tr.start).Nanoseconds()
	tr.mu.Lock()
	idx := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{name: name, parent: parent, start: now})
	tr.mu.Unlock()
	return Span{t: tr, idx: idx}
}

// StartChild opens a child span. On the zero Span it is a no-op returning
// another zero Span, so deep call chains need no enabled checks.
func (s Span) StartChild(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.newSpan(name, s.idx)
}

// End closes the span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.start).Nanoseconds()
	s.t.mu.Lock()
	if s.t.spans[s.idx].end == 0 {
		s.t.spans[s.idx].end = now
	}
	s.t.mu.Unlock()
}

// SetInt attaches an integer attribute (up to 4 per span; extras dropped).
func (s Span) SetInt(key string, v int64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.idx]
	if sp.nattrs < len(sp.attrs) {
		sp.attrs[sp.nattrs] = Attr{Key: key, Val: v}
		sp.nattrs++
	}
	s.t.mu.Unlock()
}

// Trace returns the owning trace (nil on the zero Span).
func (s Span) Trace() *Trace { return s.t }

// ctxKey is the context key for the current span.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying s as the current span. A zero span
// returns ctx unchanged, so the disabled path allocates nothing.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	if s.t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the current span, or the zero no-op Span.
func SpanFromContext(ctx context.Context) Span {
	if ctx == nil {
		return Span{}
	}
	s, _ := ctx.Value(ctxKey{}).(Span)
	return s
}

// SpanSnapshot is the exported, immutable form of one span.
type SpanSnapshot struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// TraceSnapshot is the exported, immutable form of one trace.
type TraceSnapshot struct {
	ID         string         `json:"id"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationNs int64          `json:"duration_ns"`
	Status     int            `json:"status,omitempty"`
	Finished   bool           `json:"finished"`
	Spans      []SpanSnapshot `json:"spans"`
}

func (tr *Trace) snapshot() TraceSnapshot {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := TraceSnapshot{
		ID:         tr.id,
		Name:       tr.name,
		Start:      tr.start,
		DurationNs: tr.endNs,
		Status:     tr.status,
		Finished:   tr.finished,
		Spans:      make([]SpanSnapshot, len(tr.spans)),
	}
	if !tr.finished {
		out.DurationNs = time.Since(tr.start).Nanoseconds()
	}
	for i := range tr.spans {
		sp := &tr.spans[i]
		ss := SpanSnapshot{
			ID:      i,
			Parent:  int(sp.parent),
			Name:    sp.name,
			StartNs: sp.start,
			EndNs:   sp.end,
		}
		if sp.nattrs > 0 {
			ss.Attrs = append([]Attr(nil), sp.attrs[:sp.nattrs]...)
		}
		out.Spans[i] = ss
	}
	return out
}

// Snapshot returns up to limit recent traces, newest first (limit <= 0
// means everything retained). The slow ring is appended after the recent
// ring, deduplicated by identity.
func (t *Tracer) Snapshot(limit int) []TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	recent := collectRing(t.ring, t.next)
	slow := collectRing(t.slow, t.slowNext)
	t.mu.Unlock()
	seen := make(map[*Trace]bool, len(recent)+len(slow))
	var out []TraceSnapshot
	for _, tr := range append(recent, slow...) {
		if seen[tr] {
			continue
		}
		seen[tr] = true
		out = append(out, tr.snapshot())
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Lookup finds a retained trace by id.
func (t *Tracer) Lookup(id string) (TraceSnapshot, bool) {
	if t == nil || id == "" {
		return TraceSnapshot{}, false
	}
	t.mu.Lock()
	trs := append(collectRing(t.ring, t.next), collectRing(t.slow, t.slowNext)...)
	t.mu.Unlock()
	for _, tr := range trs {
		if tr.id == id {
			return tr.snapshot(), true
		}
	}
	return TraceSnapshot{}, false
}

// collectRing returns ring entries newest first. next points at the slot
// the NEXT insert will take, so next-1 is the newest.
func collectRing(ring []*Trace, next int) []*Trace {
	out := make([]*Trace, 0, len(ring))
	for i := 0; i < len(ring); i++ {
		tr := ring[(next-1-i+2*len(ring))%len(ring)]
		if tr == nil {
			break
		}
		out = append(out, tr)
	}
	return out
}
