package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilHandlesNoOp(t *testing.T) {
	var tr *Trace
	tr.Finish(200)
	if got := tr.ID(); got != "" {
		t.Fatalf("nil trace id = %q", got)
	}
	sp := tr.Root()
	child := sp.StartChild("x")
	child.SetInt("k", 1)
	child.End()
	if child.Trace() != nil {
		t.Fatal("zero span has a trace")
	}
	ctx := ContextWithSpan(context.Background(), sp)
	if ctx != context.Background() {
		t.Fatal("zero span should not decorate the context")
	}
	if got := SpanFromContext(ctx); got.t != nil {
		t.Fatal("expected zero span back")
	}
	var tt *Tracer
	if tt.StartTrace("x", "") != nil {
		t.Fatal("nil tracer started a trace")
	}
	var ring *EpochRing
	ring.Add(EpochRecord{})
	if ring.Snapshot(0) != nil || ring.Totals().Epochs != 0 {
		t.Fatal("nil ring not inert")
	}
}

func TestDisabledTracerStartsNothing(t *testing.T) {
	tr := NewTracer(8, time.Second)
	tr.SetEnabled(false)
	if tr.StartTrace("req", "") != nil {
		t.Fatal("disabled tracer returned a live trace")
	}
	if id := tr.NewID(); id == "" {
		t.Fatal("NewID must work while disabled")
	}
	tr.SetEnabled(true)
	if tr.StartTrace("req", "") == nil {
		t.Fatal("re-enabled tracer returned nil")
	}
}

func TestSpanTreeAndLookup(t *testing.T) {
	tc := NewTracer(8, time.Second)
	trace := tc.StartTrace("POST /v1/reallocate", "req-1")
	root := trace.Root()
	ctx := ContextWithSpan(context.Background(), root)

	apply := SpanFromContext(ctx).StartChild("apply")
	shard := apply.StartChild("shard_epoch")
	shard.SetInt("shard", 3)
	shard.End()
	apply.End()
	wait := SpanFromContext(ctx).StartChild("fsync_wait")
	wait.End()
	trace.Finish(200)

	snap, ok := tc.Lookup("req-1")
	if !ok {
		t.Fatal("trace not retained")
	}
	if !snap.Finished || snap.Status != 200 || snap.ID != "req-1" {
		t.Fatalf("bad snapshot header: %+v", snap)
	}
	if len(snap.Spans) != 4 {
		t.Fatalf("want 4 spans (root+apply+shard+fsync), got %d", len(snap.Spans))
	}
	byName := map[string]SpanSnapshot{}
	for _, s := range snap.Spans {
		byName[s.Name] = s
	}
	if byName["apply"].Parent != 0 {
		t.Fatalf("apply parent = %d, want root 0", byName["apply"].Parent)
	}
	if byName["shard_epoch"].Parent != byName["apply"].ID {
		t.Fatal("shard_epoch is not a child of apply")
	}
	if byName["fsync_wait"].Parent != 0 {
		t.Fatal("fsync_wait is not a child of root")
	}
	if len(byName["shard_epoch"].Attrs) != 1 || byName["shard_epoch"].Attrs[0] != (Attr{Key: "shard", Val: 3}) {
		t.Fatalf("shard attr missing: %+v", byName["shard_epoch"].Attrs)
	}
	if byName["shard_epoch"].EndNs == 0 {
		t.Fatal("ended span has zero end")
	}
}

func TestRingEvictionKeepsSlowTraces(t *testing.T) {
	tc := NewTracer(4, time.Hour)
	bad := tc.StartTrace("failing", "bad-1")
	bad.Finish(500) // 5xx goes to the slow ring regardless of duration
	for i := 0; i < 10; i++ {
		tc.StartTrace("fast", "").Finish(200)
	}
	if _, ok := tc.Lookup("bad-1"); !ok {
		t.Fatal("5xx trace evicted despite slow ring")
	}
	snaps := tc.Snapshot(0)
	if len(snaps) != 5 { // 4 recent + 1 slow
		t.Fatalf("snapshot size = %d, want 5", len(snaps))
	}
	if got := tc.Snapshot(2); len(got) != 2 {
		t.Fatalf("limit ignored: %d", len(got))
	}
	if tc.Started() != 11 {
		t.Fatalf("started = %d, want 11", tc.Started())
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tc := NewTracer(2, time.Hour)
	trace := tc.StartTrace("epoch", "")
	root := trace.Root()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			sp := root.StartChild("shard_epoch")
			sp.SetInt("shard", int64(n))
			sp.End()
		}(i)
	}
	wg.Wait()
	trace.Finish(200)
	snap, ok := tc.Lookup(trace.ID())
	if !ok || len(snap.Spans) != 9 {
		t.Fatalf("want 9 spans, got %d (found %v)", len(snap.Spans), ok)
	}
}

func TestTraceSnapshotJSONRoundTrips(t *testing.T) {
	tc := NewTracer(2, time.Hour)
	trace := tc.StartTrace("req", `evil"id\n`)
	trace.Root().StartChild("apply").End()
	trace.Finish(400)
	snap, _ := tc.Lookup(`evil"id\n`)
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != snap.ID || len(back.Spans) != len(snap.Spans) {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestEpochRingWrapAndTotals(t *testing.T) {
	r := NewEpochRing(4)
	for i := 0; i < 6; i++ {
		rec := EpochRecord{
			Solved:  i%2 == 0,
			SolveNs: 10,
			TotalNs: 25,
			Solver:  SolverStats{VPPacks: 2, VPPacksSolved: 1, VPStepsPruned: 3},
		}
		r.Add(rec)
	}
	snaps := r.Snapshot(0)
	if len(snaps) != 4 {
		t.Fatalf("retained %d, want ring size 4", len(snaps))
	}
	if snaps[0].Seq != 6 || snaps[3].Seq != 3 {
		t.Fatalf("newest-first ordering broken: %d..%d", snaps[0].Seq, snaps[3].Seq)
	}
	tot := r.Totals()
	if tot.Epochs != 6 || tot.FailedEpochs != 3 {
		t.Fatalf("totals: %+v", tot)
	}
	if tot.SolveNs != 60 || tot.TotalNs != 150 {
		t.Fatalf("time totals: %+v", tot)
	}
	if tot.Solver.VPPacks != 12 || tot.Solver.VPPacksSolved != 6 || tot.Solver.VPStepsPruned != 18 {
		t.Fatalf("solver totals: %+v", tot.Solver)
	}
	if got := r.Snapshot(2); len(got) != 2 || got[0].Seq != 6 {
		t.Fatalf("limited snapshot: %+v", got)
	}
}

func TestSolverStatsAdd(t *testing.T) {
	a := SolverStats{VPPacks: 1, VPStepsPruned: 3}
	a.Add(SolverStats{VPPacks: 4, VPStepsPruned: 6, VPPacksSolved: 7})
	want := SolverStats{VPPacks: 5, VPStepsPruned: 9, VPPacksSolved: 7}
	if a != want {
		t.Fatalf("Add: got %+v want %+v", a, want)
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hello", "trace_id", "t-1")
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("json handler emitted non-JSON: %v (%q)", err, buf.String())
	}
	if obj["trace_id"] != "t-1" {
		t.Fatalf("missing trace_id: %v", obj)
	}

	buf.Reset()
	lg, err = NewLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	if buf.Len() != 0 {
		t.Fatalf("info leaked through warn level: %q", buf.String())
	}
	lg.Warn("kept")
	if !strings.Contains(buf.String(), "kept") {
		t.Fatalf("warn suppressed: %q", buf.String())
	}

	if _, err := NewLogger(&buf, "nope", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
	if lv, err := ParseLevel(""); err != nil || lv != slog.LevelInfo {
		t.Fatalf("default level: %v %v", lv, err)
	}
}

func TestObserverNilSafety(t *testing.T) {
	var o *Observer
	if o.TracerOf() != nil || o.EpochsOf() != nil {
		t.Fatal("nil observer leaked components")
	}
	o = &Observer{Tracer: NewTracer(0, 0), Epochs: NewEpochRing(0)}
	if o.TracerOf() != o.Tracer || o.EpochsOf() != o.Epochs {
		t.Fatal("observer accessors did not return its components")
	}
}
