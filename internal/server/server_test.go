package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vmalloc"
	"vmalloc/internal/journal"
)

func newTestServer(t *testing.T) (*Store, *httptest.Server) {
	t.Helper()
	s, err := Open(t.TempDir(), testNodes(6, 31), &Options{Fsync: journal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s, nil, nil, nil))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func smallService(cpu float64) vmalloc.Service {
	req := vmalloc.Of(cpu, cpu)
	return vmalloc.Service{
		ReqElem: req.Clone(), ReqAgg: req.Clone(),
		NeedElem: vmalloc.Of(cpu, 0), NeedAgg: vmalloc.Of(cpu, 0),
	}
}

func TestHTTPLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	// Admit.
	var add addResponse
	code, raw := doJSON(t, "POST", ts.URL+"/v1/services", addRequest{True: ptr(smallService(0.05))}, &add)
	if code != http.StatusCreated {
		t.Fatalf("add: %d %s", code, raw)
	}

	// Admit with a distinct estimate.
	est := smallService(0.05)
	est.NeedAgg = vmalloc.Of(0.08, 0)
	var add2 addResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/services",
		addRequest{True: ptr(smallService(0.05)), Est: &est}, &add2); code != http.StatusCreated {
		t.Fatalf("add with estimate: %d %s", code, raw)
	}

	// Threshold.
	if code, raw := doJSON(t, "PUT", ts.URL+"/v1/threshold", map[string]float64{"threshold": 0.2}, nil); code != http.StatusOK {
		t.Fatalf("threshold: %d %s", code, raw)
	}

	// Reallocate.
	var ep epochResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/reallocate", nil, &ep); code != http.StatusOK || !ep.Solved {
		t.Fatalf("reallocate: %d %s", code, raw)
	}
	if ep.Services != 2 || len(ep.Placement) != 2 {
		t.Fatalf("epoch response: %+v", ep)
	}

	// Update needs.
	needs := needsRequest{
		TrueElem: vmalloc.Of(0.07, 0), TrueAgg: vmalloc.Of(0.07, 0),
		EstElem: vmalloc.Of(0.07, 0), EstAgg: vmalloc.Of(0.07, 0),
	}
	url := fmt.Sprintf("%s/v1/services/%d/needs", ts.URL, add.ID)
	if code, raw := doJSON(t, "PUT", url, needs, nil); code != http.StatusOK {
		t.Fatalf("update needs: %d %s", code, raw)
	}

	// Min yield.
	var my map[string]float64
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/minyield?policy=allocweights", nil, &my); code != http.StatusOK {
		t.Fatalf("minyield: %d %s", code, raw)
	}
	if y := my["min_yield"]; y <= 0 || y > 1 {
		t.Fatalf("min yield %v out of range", y)
	}

	// Repair with default budget (empty body).
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/repair", nil, &ep); code != http.StatusOK {
		t.Fatalf("repair: %d %s", code, raw)
	}

	// Snapshot exposes the live services in stable JSON.
	var st vmalloc.ClusterState
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/snapshot", nil, &st); code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, raw)
	}
	if len(st.Services) != 2 {
		t.Fatalf("snapshot has %d services, want 2", len(st.Services))
	}
	if err := st.Validate(); err != nil {
		t.Fatalf("snapshot state invalid: %v", err)
	}

	// Forced checkpoint.
	var seq map[string]uint64
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/snapshot", nil, &seq); code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", code, raw)
	}

	// Remove, then the id is gone.
	if code, raw := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/services/%d", ts.URL, add.ID), nil, nil); code != http.StatusOK {
		t.Fatalf("remove: %d %s", code, raw)
	}
	if code, _ := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/services/%d", ts.URL, add.ID), nil, nil); code != http.StatusNotFound {
		t.Fatalf("second remove: %d, want 404", code)
	}

	// Stats reflect the history.
	var stats Stats
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, raw)
	}
	if stats.Adds != 2 || stats.Removes != 1 || stats.Epochs != 2 || stats.Services != 1 {
		t.Fatalf("stats: %+v", stats)
	}

	// Health.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
}

func TestHTTPValidation(t *testing.T) {
	_, ts := newTestServer(t)

	// Malformed body.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/services", bytes.NewBufferString("{not json"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp.StatusCode)
	}

	// Missing true service.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/services", map[string]any{}, nil); code != http.StatusBadRequest {
		t.Fatalf("missing service: %d", code)
	}

	// Negative vector entries rejected by the stable decoder.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/services", map[string]any{
		"true": map[string]any{"req_elem": []float64{-1, 0}, "req_agg": []float64{1, 1},
			"need_elem": []float64{0, 0}, "need_agg": []float64{0, 0}},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative vector: %d", code)
	}

	// Wrong dimensionality caught by cluster validation.
	bad := vmalloc.Service{ReqElem: vmalloc.Of(1), ReqAgg: vmalloc.Of(1),
		NeedElem: vmalloc.Of(1), NeedAgg: vmalloc.Of(1)}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/services", addRequest{True: &bad}, nil); code != http.StatusBadRequest {
		t.Fatalf("wrong dims: %d", code)
	}

	// Impossible service: 409.
	huge := smallService(1e9)
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/services", addRequest{True: &huge}, nil); code != http.StatusConflict {
		t.Fatalf("impossible service: %d, want 409", code)
	}

	// Bad threshold.
	if code, _ := doJSON(t, "PUT", ts.URL+"/v1/threshold", map[string]float64{"threshold": -1}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative threshold: %d", code)
	}

	// Bad policy.
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/minyield?policy=nope", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad policy: %d", code)
	}

	// Bad id.
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/services/abc", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad id: %d", code)
	}
	if code, _ := doJSON(t, "PUT", ts.URL+"/v1/services/999/needs", needsRequest{
		TrueElem: vmalloc.Of(0.1, 0), TrueAgg: vmalloc.Of(0.1, 0),
		EstElem: vmalloc.Of(0.1, 0), EstAgg: vmalloc.Of(0.1, 0),
	}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown id needs: %d, want 404", code)
	}
}

// TestHTTPConcurrentMutations exercises the commit pipeline under the race
// detector: concurrent admissions, reads and epochs must serialize cleanly
// and every accepted admission must be durable and distinct.
func TestHTTPConcurrentMutations(t *testing.T) {
	s, ts := newTestServer(t)
	const workers, perWorker = 8, 12
	var wg sync.WaitGroup
	ids := make(chan int, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var add addResponse
				code, raw := doJSON(t, "POST", ts.URL+"/v1/services",
					addRequest{True: ptr(smallService(0.001 + 0.0001*float64(w)))}, &add)
				switch code {
				case http.StatusCreated:
					ids <- add.ID
				case http.StatusConflict:
					// full cluster is a legal outcome
				default:
					t.Errorf("worker %d: add returned %d %s", w, code, raw)
					return
				}
				if i%4 == 0 {
					doJSON(t, "GET", ts.URL+"/v1/snapshot", nil, nil)
					doJSON(t, "GET", ts.URL+"/v1/stats", nil, nil)
				}
			}
		}(w)
	}
	// One epoch runner in parallel with the admissions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			doJSON(t, "POST", ts.URL+"/v1/reallocate", nil, nil)
		}
	}()
	wg.Wait()
	close(ids)

	seen := map[int]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d handed out", id)
		}
		seen[id] = true
	}
	if len(seen) == 0 {
		t.Fatal("no admissions succeeded")
	}
	stats := s.Stats()
	if stats.Adds != uint64(len(seen)) {
		t.Fatalf("stats.Adds=%d, accepted %d", stats.Adds, len(seen))
	}
	if stats.Records == 0 || stats.LastSeq == 0 {
		t.Fatalf("nothing journaled: %+v", stats)
	}
}

func ptr[T any](v T) *T { return &v }

// TestHTTPRejectsBadServiceKeys: unknown, wrong-case and duplicate keys
// inside a service object are a 400 naming the key on the single and the
// bulk endpoint alike, and nothing is admitted; null vectors still read as
// empty (and then fail the dimension check like any empty vector).
func TestHTTPRejectsBadServiceKeys(t *testing.T) {
	s, ts := newTestServer(t)
	const good = `"req_elem":[0.01,0.01],"req_agg":[0.01,0.01],"need_elem":[0.01,0],"need_agg":[0.01,0]`
	for _, tc := range []struct {
		path, body, want string
	}{
		{"/v1/services", `{"true":{` + good + `,"bogus":42}}`, `unknown key "bogus"`},
		{"/v1/services", `{"true":{"REQ_ELEM":[0.01,0.01],"req_agg":[0.01,0.01]}}`, `unknown key "REQ_ELEM"`},
		{"/v1/services", `{"true":{` + good + `},"est":{` + good + `,"need_agg":[0.01,0]}}`, `duplicate key "need_agg"`},
		{"/v1/services", `{"true":{` + good + `},"bogus":1}`, `unknown field "bogus"`},
		{"/v1/services", `{"true":{"req_elem":null,"req_agg":[0.01,0.01],"need_elem":[0.01,0],"need_agg":[0.01,0]}}`, "elementary requirement has 0 dimensions"},
		{"/v1/services:batch", `{"services":[{"true":{` + good + `}},{"true":{` + good + `,"bogus":42}}]}`, `unknown key "bogus"`},
		{"/v1/services:batch", `{"services":[{"true":{"Req_Elem":[0.01,0.01]}}]}`, `unknown key "Req_Elem"`},
		{"/v1/services:batch", `{"services":[{"true":{` + good + `,"req_elem":[0.01,0.01]}}]}`, `duplicate key "req_elem"`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), strings.ReplaceAll(tc.want, `"`, `\"`)) {
			t.Errorf("POST %s %s: %d %s, want 400 naming %s", tc.path, tc.body, resp.StatusCode, raw, tc.want)
		}
	}
	if n := s.Stats().Services; n != 0 {
		t.Fatalf("%d services admitted from rejected bodies", n)
	}
}
