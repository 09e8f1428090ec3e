package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vmalloc/internal/faultfs"
	"vmalloc/internal/journal"
	"vmalloc/internal/obs"
	"vmalloc/internal/testutil/faultinject"
)

// newObservedServer builds a store with a live observer and serves it
// through the fully instrumented handler (metrics + tracing middleware).
func newObservedServer(t *testing.T, opts *Options) (*Store, *obs.Observer, *httptest.Server) {
	t.Helper()
	if opts == nil {
		opts = &Options{Fsync: journal.FsyncNone}
	}
	o := &obs.Observer{Tracer: obs.NewTracer(0, 0), Epochs: obs.NewEpochRing(0)}
	opts.Obs = o
	s, err := Open(t.TempDir(), testNodes(6, 31), opts)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(s, o)
	ts := httptest.NewServer(NewHandler(s, m, o, nil))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, o, ts
}

// TestRequestIDPropagation pins the correlation contract: a client-supplied
// X-Request-Id is echoed verbatim, a missing one is minted, and error
// envelopes carry the id in request_id.
func TestRequestIDPropagation(t *testing.T) {
	_, o, ts := newObservedServer(t, nil)

	// Client-supplied id propagates and names the trace.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	req.Header.Set(RequestIDHeader, "client-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "client-supplied-42" {
		t.Fatalf("X-Request-Id not echoed: got %q", got)
	}
	if _, ok := o.Tracer.Lookup("client-supplied-42"); !ok {
		t.Fatal("client-supplied id did not name the trace")
	}

	// A missing id is minted.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get(RequestIDHeader)
	if minted == "" {
		t.Fatal("no X-Request-Id minted")
	}
	if _, ok := o.Tracer.Lookup(minted); !ok {
		t.Fatalf("minted id %q has no retained trace", minted)
	}

	// Error envelopes carry the id too.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/services/9999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expected 404, got %d", resp.StatusCode)
	}
	if env.RequestID == "" || env.RequestID != resp.Header.Get(RequestIDHeader) {
		t.Fatalf("error envelope request_id %q != header %q", env.RequestID, resp.Header.Get(RequestIDHeader))
	}
}

// TestDebugEndpoints drives an epoch and checks the retained-telemetry
// surface: the epoch ring records it with solver counters and a trace id
// that resolves to the span view of the same epoch.
func TestDebugEndpoints(t *testing.T) {
	_, _, ts := newObservedServer(t, nil)

	if code, raw := doJSON(t, "POST", ts.URL+"/v1/services", addRequest{True: ptr(smallService(0.05))}, nil); code != http.StatusCreated {
		t.Fatalf("add: %d %s", code, raw)
	}
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/reallocate", nil, nil); code != http.StatusOK {
		t.Fatalf("reallocate: %d %s", code, raw)
	}

	var epochs debugEpochsResponse
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/debug/epochs", nil, &epochs); code != http.StatusOK {
		t.Fatalf("debug/epochs: %d %s", code, raw)
	}
	if epochs.Totals.Epochs < 1 || len(epochs.Epochs) < 1 {
		t.Fatalf("epoch ring empty after reallocate: totals %+v, %d records", epochs.Totals, len(epochs.Epochs))
	}
	rec := epochs.Epochs[0]
	if !rec.Solved || rec.TotalNs <= 0 {
		t.Fatalf("implausible epoch record: %+v", rec)
	}
	if rec.Solver.VPPacks == 0 {
		t.Fatalf("epoch record carries no solver work: %+v", rec.Solver)
	}
	if rec.TraceID == "" {
		t.Fatal("epoch record has no trace id")
	}

	// The trace id resolves to the span view of the same epoch.
	var traces []obs.TraceSnapshot
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/debug/traces?id="+rec.TraceID, nil, &traces); code != http.StatusOK {
		t.Fatalf("debug/traces?id: %d %s", code, raw)
	}
	if len(traces) != 1 || traces[0].ID != rec.TraceID {
		t.Fatalf("trace lookup returned %d traces", len(traces))
	}
	var hasEpochSpan bool
	for _, sp := range traces[0].Spans {
		if sp.Name == "epoch" {
			hasEpochSpan = true
		}
	}
	if !hasEpochSpan {
		t.Fatalf("epoch trace has no epoch span: %+v", traces[0].Spans)
	}

	// Unknown ids 404; the listing endpoint serves newest-first.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/debug/traces?id=no-such-trace", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace id: got %d, want 404", code)
	}
	traces = nil
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/debug/traces?limit=2", nil, &traces); code != http.StatusOK || len(traces) == 0 {
		t.Fatalf("trace listing: %d %s", code, raw)
	}
}

// TestDebugSurfacesNotInstrumented pins the exclusion rule: scraping
// /metrics or polling /v1/debug/* must not start traces (polling the trace
// ring must not evict what it reads) and must not land in the latency
// histograms.
func TestDebugSurfacesNotInstrumented(t *testing.T) {
	_, o, ts := newObservedServer(t, nil)

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(raw)
	}

	before := o.Tracer.Started()
	get("/metrics")
	get("/v1/debug/traces")
	get("/v1/debug/epochs")
	if after := o.Tracer.Started(); after != before {
		t.Fatalf("debug/scrape surfaces started %d traces", after-before)
	}
	get("/v1/stats") // instrumented: exactly one new trace
	if after := o.Tracer.Started(); after != before+1 {
		t.Fatalf("instrumented request started %d traces, want 1", after-before)
	}

	body := get("/metrics")
	for _, excluded := range []string{`path="/metrics"`, `path="/v1/debug/traces"`, `path="/v1/debug/epochs"`} {
		if strings.Contains(body, excluded) {
			t.Fatalf("latency instrumentation includes excluded surface %s", excluded)
		}
	}
	if !strings.Contains(body, `path="/v1/stats"`) {
		t.Fatal("instrumented route missing from metrics")
	}
}

// TestInjectedFaultTraceable is the end-to-end incident-debugging contract:
// with fsync faults injected, a failed mutation's 5xx response carries an
// X-Request-Id (header and envelope) whose spans are retrievable from
// GET /v1/debug/traces — including the commit-pipeline spans that show
// where it died.
func TestInjectedFaultTraceable(t *testing.T) {
	inj := faultinject.NewInjector(faultfs.OS{}, 1)
	_, _, ts := newObservedServer(t, &Options{Fsync: journal.FsyncBatch, FS: inj})

	// A healthy mutation first, so the failure below is the journal's fault.
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/services", addRequest{True: ptr(smallService(0.05))}, nil); code != http.StatusCreated {
		t.Fatalf("healthy add: %d %s", code, raw)
	}

	inj.FailSyncs(0)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/services", strings.NewReader(
		`{"true": {"req_elem": [0.05, 0.05], "req_agg": [0.05, 0.05],
		           "need_elem": [0.05, 0], "need_agg": [0.05, 0]}}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 500 {
		t.Fatalf("injected fsync fault did not 5xx: %d %s", resp.StatusCode, env.Error)
	}
	id := resp.Header.Get(RequestIDHeader)
	if id == "" {
		t.Fatal("5xx response carries no X-Request-Id")
	}
	if env.RequestID != id {
		t.Fatalf("envelope request_id %q != header %q", env.RequestID, id)
	}

	var traces []obs.TraceSnapshot
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/debug/traces?id="+id, nil, &traces); code != http.StatusOK {
		t.Fatalf("trace of failed request not retained: %d %s", code, raw)
	}
	tr := traces[0]
	if tr.Status < 500 {
		t.Fatalf("retained trace status %d, want the 5xx", tr.Status)
	}
	var hasApply bool
	for _, sp := range tr.Spans {
		if sp.Name == "apply" {
			hasApply = true
		}
	}
	if !hasApply {
		t.Fatalf("failed request's trace is missing commit-pipeline spans: %+v", tr.Spans)
	}
}
