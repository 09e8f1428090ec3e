package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"vmalloc"
	"vmalloc/internal/journal"
	"vmalloc/internal/obs"
	"vmalloc/internal/workload"
)

func batchOf(svcs ...vmalloc.Service) batchRequest {
	var req batchRequest
	for i := range svcs {
		req.Services = append(req.Services, addRequest{True: &svcs[i]})
	}
	return req
}

// TestHTTPBatchAdmission drives the bulk endpoint end to end on a sharded
// store: every entry admitted, ids unique, and the batch lands on every
// placement domain.
func TestHTTPBatchAdmission(t *testing.T) {
	s := openStore(t, t.TempDir(), testNodes(8, 51), 4)
	ts := httptest.NewServer(NewHandler(s, nil, nil, nil))
	t.Cleanup(func() { ts.Close(); s.Close() })

	const n = 64
	svcs := make([]vmalloc.Service, n)
	for i := range svcs {
		svcs[i] = smallService(0.001 + float64(i)*1e-5)
	}
	var resp batchResponse
	code, raw := doJSON(t, "POST", ts.URL+"/v1/services:batch", batchOf(svcs...), &resp)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, raw)
	}
	if resp.Admitted != n || resp.Rejected != 0 || resp.Invalid != 0 {
		t.Fatalf("summary = %+v", resp)
	}
	seen := map[int]bool{}
	for i, r := range resp.Results {
		if r.ID == nil || r.Node == nil || r.Error != "" {
			t.Fatalf("entry %d not admitted: %+v", i, r)
		}
		if seen[*r.ID] {
			t.Fatalf("duplicate id %d", *r.ID)
		}
		seen[*r.ID] = true
	}
	if st := s.Stats(); st.Services != n || st.Adds != n || st.Batches != 1 {
		t.Fatalf("stats after batch: %+v", st)
	}
	stats, err := s.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if st.Services == 0 {
			t.Fatalf("shard %d got no services; batch did not span the shards: %+v", st.Shard, stats)
		}
	}
}

// TestHTTPBatchEmpty: an empty or missing services list is a 400, not a
// zero-record commit.
func TestHTTPBatchEmpty(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{`{"services":[]}`, `{}`} {
		resp, err := http.Post(ts.URL+"/v1/services:batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestHTTPBatchPartial pins partial success: valid entries commit, invalid
// and rejected entries report per-entry errors with the status the same
// request would have drawn on the single endpoint.
func TestHTTPBatchPartial(t *testing.T) {
	s, ts := newTestServer(t)

	wrongDim := vmalloc.Service{
		ReqElem: vmalloc.Of(0.1, 0.1, 0.1), ReqAgg: vmalloc.Of(0.1, 0.1, 0.1),
		NeedElem: vmalloc.Of(0, 0, 0), NeedAgg: vmalloc.Of(0, 0, 0),
	}
	req := batchOf(smallService(0.01), wrongDim, smallService(5000), smallService(0.02))
	req.Services = append(req.Services, addRequest{Est: ptr(smallService(0.01))}) // missing "true"

	var resp batchResponse
	code, raw := doJSON(t, "POST", ts.URL+"/v1/services:batch", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("partial batch: %d %s", code, raw)
	}
	if resp.Admitted != 2 || resp.Rejected != 1 || resp.Invalid != 2 {
		t.Fatalf("summary = %+v (%s)", resp, raw)
	}
	wantStatus := []int{0, http.StatusBadRequest, http.StatusConflict, 0, http.StatusBadRequest}
	for i, want := range wantStatus {
		got := resp.Results[i]
		if want == 0 {
			if got.ID == nil || got.Error != "" {
				t.Fatalf("entry %d should be admitted: %+v", i, got)
			}
			continue
		}
		if got.Status != want || got.Error == "" || got.ID != nil {
			t.Fatalf("entry %d = %+v, want status %d", i, got, want)
		}
	}
	if st := s.Stats(); st.Services != 2 || st.Rejected != 1 {
		t.Fatalf("stats after partial batch: %+v", st)
	}
}

// TestBatchSingleEquivalence is the one-admission-code-path guarantee: a
// store fed one bulk call and a store fed the same services one by one must
// end bit-identical — same ids, same nodes, same durable state.
func TestBatchSingleEquivalence(t *testing.T) {
	const n = 48
	specs := make([]AddSpec, n)
	for i := range specs {
		svc := smallService(0.002 + float64(i)*1e-5)
		specs[i] = AddSpec{True: svc, Est: svc}
	}
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			open := func(dir string) API {
				opts := &Options{Fsync: journal.FsyncNone, Shards: shards}
				if shards > 0 {
					s, err := OpenSharded(dir, testNodes(9, 53), opts)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { s.Close() })
					return s
				}
				s, err := Open(dir, testNodes(9, 53), opts)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}
			one := open(t.TempDir())
			two := open(t.TempDir())

			outs, err := one.AddBatch(context.Background(), specs)
			if err != nil {
				t.Fatal(err)
			}
			for i, spec := range specs {
				id, node, err := two.AddWithEstimate(spec.True, spec.Est)
				o := outs[i]
				if (err == nil) != (o.Err == nil) || id != o.ID || (err == nil && node != o.Node) {
					t.Fatalf("entry %d: batch (%d,%d,%v) vs single (%d,%d,%v)",
						i, o.ID, o.Node, o.Err, id, node, err)
				}
			}
			_, a, err := one.State()
			if err != nil {
				t.Fatal(err)
			}
			_, b, err := two.State()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("batched and sequential states diverge:\nbatch:  %s\nsingle: %s", a, b)
			}
		})
	}
}

// TestBatchKillRecovery is the crash acceptance test for bulk admission:
// after an acked batch, a kill -9 and reopen must recover every admitted
// service — the group append is all-in-the-log, not best-effort.
func TestBatchKillRecovery(t *testing.T) {
	forEachK(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		s := openStore(t, dir, testNodes(8, 57), shards)

		specs := make([]AddSpec, 80)
		for i := range specs {
			svc := smallService(0.001 + float64(i)*1e-5)
			specs[i] = AddSpec{True: svc, Est: svc}
		}
		outs, err := s.AddBatch(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		acked := 0
		for _, o := range outs {
			if o.Err == nil {
				acked++
			}
		}
		if acked == 0 {
			t.Fatal("no admissions acked; test is vacuous")
		}
		want := append([]byte(nil), stateJSON(t, s)...)
		s.Kill()

		r := openStore(t, dir, nil, 0)
		defer r.Close()
		if got := stateJSON(t, r); !bytes.Equal(got, want) {
			t.Fatalf("recovered state differs from acked pre-kill state:\npre:  %s\npost: %s", want, got)
		}
		if st := r.Stats(); st.Services != acked {
			t.Fatalf("recovered %d services, want %d acked", st.Services, acked)
		}
		if r.Stats().Replayed == 0 {
			t.Fatal("kill -9 recovery replayed nothing; the batch was not in the WAL")
		}
	})
}

// TestMetricsEndpoint wires the instrumented handler over a sharded store and
// checks the exposition covers the acceptance surface: per-endpoint request
// counters and latency, per-shard gauges, journal I/O counters.
func TestMetricsEndpoint(t *testing.T) {
	s := openStore(t, t.TempDir(), testNodes(8, 59), 2)
	ts := httptest.NewServer(NewHandler(s, NewMetrics(s, nil), nil, nil))
	t.Cleanup(func() { ts.Close(); s.Close() })

	if code, raw := doJSON(t, "POST", ts.URL+"/v1/services",
		addRequest{True: ptr(smallService(0.01))}, nil); code != http.StatusCreated {
		t.Fatalf("add: %d %s", code, raw)
	}
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/services:batch",
		batchOf(smallService(0.01), smallService(0.01)), nil); code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, raw)
	}

	code, body := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		`vmallocd_http_requests_total{method="POST",path="/v1/services",code="201"} 1`,
		`vmallocd_http_requests_total{method="POST",path="/v1/services:batch",code="200"} 1`,
		`vmallocd_http_request_seconds_count{method="POST",path="/v1/services:batch"} 1`,
		"vmallocd_services 3",
		`vmallocd_admissions_total{result="admitted"} 3`,
		"vmallocd_admission_batches_total 2",
		"vmallocd_journal_records_total 3",
		"vmallocd_journal_fsyncs_total",
		"vmallocd_journal_commit_records_sum 3",
		`vmallocd_shard_headroom{shard="0"}`,
		`vmallocd_shard_headroom{shard="1"}`,
		`vmallocd_shard_services{shard=`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// allRoutes returns "METHOD /path" for every endpoint a fully-equipped
// vmallocd can serve (follower surface included, metrics enabled), in
// registration order.
func allRoutes() []string {
	ss := struct {
		API
		follower
	}{}
	rs := routes(ss, &Metrics{}, &obs.Observer{})
	out := make([]string, len(rs))
	for i, rt := range rs {
		out[i] = rt.method + " " + rt.pattern
	}
	return out
}

// TestRoutesDocumented diffs the route table against docs/api.md: every
// endpoint vmallocd can serve must appear in the API reference verbatim as
// "METHOD /path".
func TestRoutesDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatalf("reading docs/api.md: %v", err)
	}
	routes := allRoutes()
	if len(routes) < 13 {
		t.Fatalf("route table suspiciously small: %q", routes)
	}
	for _, r := range routes {
		if !bytes.Contains(doc, []byte(r)) {
			t.Errorf("docs/api.md does not document %q", r)
		}
	}
}

// BenchmarkDecodeBatchBody decodes the body of a 512-service bulk admission
// on a 64-host paper-scale park — the pre-load request of a serving run —
// through the handler's own decodeBody.
func BenchmarkDecodeBatchBody(b *testing.B) {
	p := workload.Generate(workload.Scenario{Hosts: 64, Services: 512, COV: 0.5, Slack: 0.5, Seed: 1})
	for i := range p.Services {
		p.Services[i].Name = ""
	}
	body, err := json.Marshal(batchOf(p.Services...))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var req batchRequest
		r := httptest.NewRequest("POST", "/v1/services:batch", bytes.NewReader(body))
		if !decodeBody(httptest.NewRecorder(), r, &req) || len(req.Services) != 512 {
			b.Fatal("decoding failed")
		}
	}
}
