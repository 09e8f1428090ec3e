package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vmalloc"
	"vmalloc/internal/journal"
)

// TestShardedStoreShardCountConflict pins the fail-fast on -shards
// disagreeing with a recovered manifest.
func TestShardedStoreShardCountConflict(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, testNodes(8, 45), 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, nil, &Options{Fsync: journal.FsyncNone, Shards: 4})
	if err == nil || !strings.Contains(err.Error(), "conflicts with recovered manifest (2 shards)") {
		t.Fatalf("shard-count conflict not detected: %v", err)
	}
	recovered, m, derr := DirRecovered(dir)
	if derr != nil || !recovered || m == nil || m.Shards != 2 {
		t.Fatalf("DirRecovered = (%v, %+v, %v), want sharded manifest with 2 shards", recovered, m, derr)
	}
	if d := DescribeDir(dir); !strings.Contains(d, "2 shards") {
		t.Fatalf("DescribeDir = %q", d)
	}
}

// TestShardsHTTP serves a store over the shared handler and exercises the
// per-shard surface, which a one-shard store serves like any other.
func TestShardsHTTP(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		s := openStore(t, t.TempDir(), testNodes(8, 47), k)
		ts := httptest.NewServer(NewHandler(s, nil, nil, nil))
		t.Cleanup(func() { ts.Close(); s.Close() })

		var add addResponse
		if code, body := doJSON(t, "POST", ts.URL+"/v1/services",
			addRequest{True: ptrService(smallService(0.05))}, &add); code != http.StatusCreated {
			t.Fatalf("add: %d %s", code, body)
		}
		if code, body := doJSON(t, "POST", ts.URL+"/v1/reallocate", nil, nil); code != http.StatusOK {
			t.Fatalf("reallocate: %d %s", code, body)
		}
		var shards []vmalloc.ShardStat
		if code, body := doJSON(t, "GET", ts.URL+"/v1/shards", nil, &shards); code != http.StatusOK {
			t.Fatalf("shards: %d %s", code, body)
		}
		if len(shards) != k {
			t.Fatalf("got %d shard stats, want %d", len(shards), k)
		}
		total := 0
		for _, sh := range shards {
			total += sh.Services
		}
		if total != 1 {
			t.Fatalf("shard stats don't cover the admitted service: %+v", shards)
		}
		var stats Stats
		if code, _ := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &stats); code != http.StatusOK || stats.Shards != k {
			t.Fatalf("stats = %+v", stats)
		}
	})
}

func ptrService(s vmalloc.Service) *vmalloc.Service { return &s }

// TestHTTPTrailingGarbageRejected pins the decodeBody hardening: a body
// holding two JSON values must be a 400, not a silently half-read request.
func TestHTTPTrailingGarbageRejected(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"budget":1}{"budget":9}`,
		`{"budget":1} trailing`,
		`{"budget":1}]`,
	} {
		resp, err := http.Post(ts.URL+"/v1/repair", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// The threshold endpoint uses the required-body path; same rule.
	resp, err := http.Post(ts.URL+"/v1/reallocate", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reallocate after rejected repairs: %d", resp.StatusCode)
	}
}

// TestHTTPRepairEmptyChunkedBody pins the other half of the decodeBody fix:
// an empty chunked body (ContentLength -1) selects the default budget
// instead of erroring.
func TestHTTPRepairEmptyChunkedBody(t *testing.T) {
	_, ts := newTestServer(t)
	req, err := http.NewRequest("POST", ts.URL+"/v1/repair", emptyChunkedBody{})
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1 // forces chunked transfer encoding
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty chunked repair body: status %d, want 200", resp.StatusCode)
	}
}

// emptyChunkedBody is a non-nil reader the http client cannot size, so the
// request goes out chunked with an empty body.
type emptyChunkedBody struct{}

func (emptyChunkedBody) Read(p []byte) (int, error) { return 0, io.EOF }
