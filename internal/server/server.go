package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"

	"vmalloc"
	"vmalloc/internal/journal"
	"vmalloc/internal/obs"
)

// API is the store surface the HTTP handler and the metrics serve. Two
// values implement it: a leader's *Store, and the replica.Switch that fronts
// a follower and, after promotion, the store that replaces it; until then
// the Switch refuses every mutation with ErrReadOnly. Mutations are durable
// when the call returns.
type API interface {
	// The handler's mutations take the request context, so the apply,
	// fsync_wait and epoch spans attach to the request's trace.
	AddBatch(ctx context.Context, specs []AddSpec) ([]AddOutcome, error)
	RemoveCtx(ctx context.Context, id int) (bool, error)
	UpdateNeedsCtx(ctx context.Context, id int, trueElem, trueAgg, estElem, estAgg vmalloc.Vec) error
	SetThreshold(ctx context.Context, th float64) error
	ReallocateCtx(ctx context.Context) (*vmalloc.ClusterEpoch, error)
	RepairCtx(ctx context.Context, budget int) (*vmalloc.ClusterEpoch, error)
	Checkpoint() (uint64, error)
	// Context-free mutations, kept for bench/, which still calls them.
	AddWithEstimate(trueSvc, estSvc vmalloc.Service) (id, node int, err error)
	Remove(id int) (bool, error)
	UpdateNeeds(id int, trueElem, trueAgg, estElem, estAgg vmalloc.Vec) error
	Reallocate() (*vmalloc.ClusterEpoch, error)
	Repair(budget int) (*vmalloc.ClusterEpoch, error)

	MinYield(policy vmalloc.SchedPolicy) (float64, error)
	State() (*vmalloc.ClusterState, []byte, error)
	Stats() Stats
	ShardStats() ([]vmalloc.ShardStat, error)
	JournalIOStats() journal.IOStats
	// Ready is nil when the store can serve its role (journal writable; for
	// a follower, within the configured lag bound). GET /readyz reports it;
	// /healthz only says the process is alive.
	Ready() error

	// The replication reads behind /v1/replica/*: leaders and followers
	// serve them alike, so any daemon can be followed.
	ReplicaManifest() (*ShardManifest, error)
	ReplicaCheckpoint(shard int) (*journal.Checkpoint, error)
	ReplicaStream(shard int, from uint64, maxBytes int) (*StreamBatch, error)
	ChainStatus() ([]ShardChain, error)
}

// route is one entry of the HTTP surface: a method, a ServeMux pattern and
// the handler serving it.
type route struct {
	method  string
	pattern string
	h       http.HandlerFunc
}

// addOne admits a single service as a batch of one, the way every store's
// AddWithEstimate does, but under the request context.
func addOne(ctx context.Context, s API, trueSvc, estSvc vmalloc.Service) (id, node int, err error) {
	out, err := s.AddBatch(ctx, []AddSpec{{True: trueSvc, Est: estSvc}})
	if err != nil {
		return 0, -1, err
	}
	if out[0].Err != nil {
		return 0, -1, out[0].Err
	}
	return out[0].ID, out[0].Node, nil
}

// maxBatchServices caps one bulk admission request; larger batches gain
// nothing (the journal group is already one fsync) and only grow tail
// latency and response size.
const maxBatchServices = 4096

// routes builds the route table over s. GET /metrics is served only when
// metrics are enabled, the /v1/debug/* surface only with an observer and
// the follower endpoints only on a follower; all of them are still part of
// the documented surface.
func routes(s API, m *Metrics, o *obs.Observer) []route {
	rs := []route{
		{"POST", "/v1/services", func(w http.ResponseWriter, r *http.Request) {
			var req addRequest
			if !decodeBody(w, r, &req) {
				return
			}
			if req.True == nil {
				httpError(w, http.StatusBadRequest, errors.New(`missing "true" service`))
				return
			}
			est := req.True
			if req.Est != nil {
				est = req.Est
			}
			id, node, err := addOne(r.Context(), s, *req.True, *est)
			if err != nil {
				if errors.Is(err, ErrRejected) {
					httpError(w, http.StatusConflict, err)
				} else {
					mutationError(w, err)
				}
				return
			}
			writeJSON(w, http.StatusCreated, addResponse{ID: id, Node: node})
		}},
		{"POST", "/v1/services:batch", func(w http.ResponseWriter, r *http.Request) {
			var req batchRequest
			if !decodeBody(w, r, &req) {
				return
			}
			if len(req.Services) == 0 {
				httpError(w, http.StatusBadRequest, errors.New(`empty batch: "services" must hold at least one entry`))
				return
			}
			if len(req.Services) > maxBatchServices {
				httpError(w, http.StatusBadRequest,
					fmt.Errorf("batch of %d services exceeds the limit of %d", len(req.Services), maxBatchServices))
				return
			}
			results := make([]batchEntryResponse, len(req.Services))
			specs := make([]AddSpec, 0, len(req.Services))
			idx := make([]int, 0, len(req.Services))
			for i, e := range req.Services {
				if e.True == nil {
					results[i] = batchEntryResponse{Error: `missing "true" service`, Status: http.StatusBadRequest}
					continue
				}
				est := e.True
				if e.Est != nil {
					est = e.Est
				}
				specs = append(specs, AddSpec{True: *e.True, Est: *est})
				idx = append(idx, i)
			}
			outs, err := s.AddBatch(r.Context(), specs)
			if err != nil {
				mutationError(w, err)
				return
			}
			for k, o := range outs {
				switch {
				case o.Err == nil:
					id, node := o.ID, o.Node
					results[idx[k]] = batchEntryResponse{ID: &id, Node: &node}
				case errors.Is(o.Err, ErrRejected):
					results[idx[k]] = batchEntryResponse{Error: o.Err.Error(), Status: http.StatusConflict}
				default:
					results[idx[k]] = batchEntryResponse{Error: o.Err.Error(), Status: http.StatusBadRequest}
				}
			}
			resp := batchResponse{Results: results}
			for _, res := range results {
				switch {
				case res.ID != nil:
					resp.Admitted++
				case res.Status == http.StatusConflict:
					resp.Rejected++
				default:
					resp.Invalid++
				}
			}
			writeJSON(w, http.StatusOK, resp)
		}},
		{"DELETE", "/v1/services/{id}", func(w http.ResponseWriter, r *http.Request) {
			id, ok := pathID(w, r)
			if !ok {
				return
			}
			removed, err := s.RemoveCtx(r.Context(), id)
			if err != nil {
				mutationError(w, err)
				return
			}
			if !removed {
				httpError(w, http.StatusNotFound, fmt.Errorf("no live service with id %d", id))
				return
			}
			writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
		}},
		{"PUT", "/v1/services/{id}/needs", func(w http.ResponseWriter, r *http.Request) {
			id, ok := pathID(w, r)
			if !ok {
				return
			}
			var req needsRequest
			if !decodeBody(w, r, &req) {
				return
			}
			if err := s.UpdateNeedsCtx(r.Context(), id, req.TrueElem, req.TrueAgg, req.EstElem, req.EstAgg); err != nil {
				mutationError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]bool{"updated": true})
		}},
		{"PUT", "/v1/threshold", func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				Threshold *float64 `json:"threshold"`
			}
			if !decodeBody(w, r, &req) {
				return
			}
			if req.Threshold == nil {
				httpError(w, http.StatusBadRequest, errors.New("threshold must be a number >= 0"))
				return
			}
			if err := s.SetThreshold(r.Context(), *req.Threshold); err != nil {
				mutationError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]float64{"threshold": *req.Threshold})
		}},
		{"POST", "/v1/reallocate", func(w http.ResponseWriter, r *http.Request) {
			ce, err := s.ReallocateCtx(r.Context())
			if err != nil {
				mutationError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, epochResponse{
				Solved: ce.Result.Solved, MinYield: ce.Result.MinYield,
				Migrations: ce.Migrations, Services: len(ce.IDs),
				IDs: ce.IDs, Placement: ce.Result.Placement,
				Stats: ce.Stats,
			})
		}},
		{"POST", "/v1/repair", func(w http.ResponseWriter, r *http.Request) {
			req := struct {
				Budget int `json:"budget"`
			}{Budget: -1}
			// The body is optional: absent (including a chunked request whose
			// body turns out empty, where ContentLength is -1) selects the
			// default unlimited budget.
			if !decodeOptionalBody(w, r, &req) {
				return
			}
			ce, err := s.RepairCtx(r.Context(), req.Budget)
			if err != nil {
				mutationError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, epochResponse{
				Solved: ce.Result.Solved, MinYield: ce.Result.MinYield,
				Migrations: ce.Migrations, Services: len(ce.IDs),
				IDs: ce.IDs, Placement: ce.Result.Placement,
				Stats: ce.Stats,
			})
		}},
		{"GET", "/v1/minyield", func(w http.ResponseWriter, r *http.Request) {
			policy, err := parsePolicy(r.URL.Query().Get("policy"))
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			y, err := s.MinYield(policy)
			if err != nil {
				mutationError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]float64{"min_yield": y})
		}},
		{"GET", "/v1/stats", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, s.Stats())
		}},
		{"GET", "/v1/shards", func(w http.ResponseWriter, r *http.Request) {
			stats, err := s.ShardStats()
			if err != nil {
				mutationError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, stats)
		}},
		{"GET", "/v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
			_, data, err := s.State()
			if err != nil {
				mutationError(w, err)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(data)
		}},
		{"POST", "/v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
			seq, err := s.Checkpoint()
			if err != nil {
				mutationError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]uint64{"seq": seq})
		}},
	}
	rs = append(rs, replicaRoutes(s)...)
	if m != nil {
		rs = append(rs, route{"GET", "/metrics", m.serveText})
	}
	if o != nil {
		rs = append(rs, debugRoutes(o)...)
	}
	rs = append(rs, route{"GET", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	}})
	rs = append(rs, route{"GET", "/readyz", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Ready(); err != nil {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	}})
	return rs
}

// replicaRoutes builds the replication and failover endpoints: the
// /v1/replica/* reads every store serves, and on a follower its status
// endpoint and explicit promotion.
func replicaRoutes(s API) []route {
	rs := []route{
		{"GET", "/v1/replica/manifest", func(w http.ResponseWriter, r *http.Request) {
			m, err := s.ReplicaManifest()
			if err != nil {
				mutationError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, m)
		}},
		{"GET", "/v1/replica/checkpoint", func(w http.ResponseWriter, r *http.Request) {
			shard, ok := queryInt(w, r, "shard", 0)
			if !ok {
				return
			}
			cp, err := s.ReplicaCheckpoint(shard)
			if err != nil {
				mutationError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, cp)
		}},
		{"GET", "/v1/replica/stream", func(w http.ResponseWriter, r *http.Request) {
			shard, ok := queryInt(w, r, "shard", 0)
			if !ok {
				return
			}
			from, ok := queryUint64(w, r, "from", 0)
			if !ok {
				return
			}
			max, ok := queryInt(w, r, "max", defaultStreamBytes)
			if !ok {
				return
			}
			if max <= 0 || max > maxStreamBytes {
				max = maxStreamBytes
			}
			b, err := s.ReplicaStream(shard, from, max)
			if errors.Is(err, ErrCompacted) {
				httpError(w, http.StatusGone, err)
				return
			}
			if err != nil {
				mutationError(w, err)
				return
			}
			if b == nil {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set(streamFirstHeader, strconv.FormatUint(b.First, 10))
			w.Header().Set(streamLastHeader, strconv.FormatUint(b.Last, 10))
			w.WriteHeader(http.StatusOK)
			w.Write(b.Data)
		}},
		{"GET", "/v1/replica/chains", func(w http.ResponseWriter, r *http.Request) {
			cs, err := s.ChainStatus()
			if err != nil {
				mutationError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, cs)
		}},
	}
	if f, ok := s.(follower); ok {
		rs = append(rs,
			route{"GET", "/v1/replica/status", func(w http.ResponseWriter, r *http.Request) {
				writeJSON(w, http.StatusOK, f.ReplicationStatus())
			}},
			route{"POST", "/v1/promote", func(w http.ResponseWriter, r *http.Request) {
				if err := f.Promote(); err != nil {
					if errors.Is(err, ErrInvalid) || errors.Is(err, ErrClosed) {
						mutationError(w, err)
					} else {
						httpError(w, http.StatusConflict, err)
					}
					return
				}
				writeJSON(w, http.StatusOK, map[string]bool{"promoted": true})
			}},
		)
	}
	return rs
}

// Stream batch size bounds: the default keeps a poll response comfortably
// under one segment; the cap bounds the response the handler will build.
const (
	defaultStreamBytes = 1 << 20
	maxStreamBytes     = 8 << 20
)

// streamFirstHeader/streamLastHeader carry the record range of a stream
// batch response.
const (
	streamFirstHeader = "Vmalloc-First-Seq"
	streamLastHeader  = "Vmalloc-Last-Seq"
)

func queryInt(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return def, true
	}
	v, err := strconv.Atoi(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid %s %q", name, q))
		return 0, false
	}
	return v, true
}

func queryUint64(w http.ResponseWriter, r *http.Request, name string, def uint64) (uint64, bool) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return def, true
	}
	v, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid %s %q", name, q))
		return 0, false
	}
	return v, true
}

// NewHandler returns the vmallocd HTTP/JSON API over a store:
//
//	POST   /v1/services            admit a service            {"true":{...},"est":{...}}
//	POST   /v1/services:batch      bulk admission             {"services":[{"true":{...}},...]}
//	DELETE /v1/services/{id}       depart a service
//	PUT    /v1/services/{id}/needs replace fluid needs        {"true_elem":[...],...}
//	PUT    /v1/threshold           set mitigation threshold   {"threshold":0.3}
//	POST   /v1/reallocate          run a full epoch
//	POST   /v1/repair              run a bounded repair epoch {"budget":4}
//	GET    /v1/minyield?policy=P   evaluate §6 min yield (ALLOCCAPS|ALLOCWEIGHTS|EQUALWEIGHTS)
//	GET    /v1/stats               counters
//	GET    /v1/shards              per-shard statistics
//	GET    /v1/snapshot            full cluster state (stable JSON)
//	POST   /v1/snapshot            force a checkpoint
//	GET    /healthz                liveness
//
// docs/api.md is the full reference; a test keeps it in lockstep with this
// table.
//
// When m is non-nil every endpoint is instrumented (request counts and
// latency histograms by method, path pattern and status code) and GET
// /metrics serves the Prometheus text exposition. A non-nil observer
// enables request tracing (X-Request-Id correlation, a span tree per
// request) and serves GET /v1/debug/traces and GET /v1/debug/epochs; a
// non-nil logger emits one structured line per request, stamped with the
// request id. GET /metrics and /v1/debug/* are excluded from both latency
// instrumentation and tracing so the scrape path cannot pollute what it
// reads.
//
// Mutations are serialized through the store's commit pipeline and are
// durable when the response arrives; reads are lock-free against published
// state. Request bodies must be a single JSON value: trailing bytes after
// the value are rejected with 400 rather than silently ignored.
func NewHandler(s API, m *Metrics, o *obs.Observer, lg *slog.Logger) http.Handler {
	mux := http.NewServeMux()
	tracer := o.TracerOf()
	for _, rt := range routes(s, m, o) {
		h := rt.h
		if instrumented(rt.pattern) {
			if m != nil {
				h = m.instrument(rt.method, rt.pattern, h)
			}
			h = observe(rt.method, rt.pattern, tracer, lg, h)
		}
		mux.HandleFunc(rt.method+" "+rt.pattern, h)
	}
	return mux
}

type addRequest struct {
	True *vmalloc.Service `json:"true"`
	Est  *vmalloc.Service `json:"est,omitempty"`
}

type addResponse struct {
	ID   int `json:"id"`
	Node int `json:"node"`
}

type batchRequest struct {
	Services []addRequest `json:"services"`
}

// batchEntryResponse reports one entry of a bulk admission: either an
// assigned id and node, or the error and the HTTP status the same request
// would have drawn as a single POST /v1/services.
type batchEntryResponse struct {
	ID     *int   `json:"id,omitempty"`
	Node   *int   `json:"node,omitempty"`
	Error  string `json:"error,omitempty"`
	Status int    `json:"status,omitempty"`
}

type batchResponse struct {
	Results  []batchEntryResponse `json:"results"`
	Admitted int                  `json:"admitted"`
	Rejected int                  `json:"rejected"`
	Invalid  int                  `json:"invalid"`
}

type needsRequest struct {
	TrueElem vmalloc.Vec `json:"true_elem"`
	TrueAgg  vmalloc.Vec `json:"true_agg"`
	EstElem  vmalloc.Vec `json:"est_elem"`
	EstAgg   vmalloc.Vec `json:"est_agg"`
}

type epochResponse struct {
	Solved     bool              `json:"solved"`
	MinYield   float64           `json:"min_yield"`
	Migrations int               `json:"migrations"`
	Services   int               `json:"services"`
	IDs        []int             `json:"ids"`
	Placement  vmalloc.Placement `json:"placement"`
	// Stats carries the epoch's solve wall time, solver-tier work counters
	// and the per-shard breakdown.
	Stats *vmalloc.EpochStats `json:"stats,omitempty"`
}

func parsePolicy(s string) (vmalloc.SchedPolicy, error) {
	switch strings.ToUpper(s) {
	case "", "ALLOCCAPS":
		return vmalloc.PolicyAllocCaps, nil
	case "ALLOCWEIGHTS":
		return vmalloc.PolicyAllocWeights, nil
	case "EQUALWEIGHTS":
		return vmalloc.PolicyEqualWeights, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want ALLOCCAPS, ALLOCWEIGHTS or EQUALWEIGHTS)", s)
}

func pathID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid service id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

// decodeBody parses the request body as exactly one JSON value into v. A
// second Decode must hit io.EOF, so trailing garbage after the value
// (`{"budget":1}{"budget":9}` used to be silently half-read) is a 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	ok, _ := decodeJSON(w, r, v, true)
	return ok
}

// decodeOptionalBody is decodeBody for endpoints whose body is optional: a
// missing or empty body (io.EOF before any value, which is also what an
// empty chunked body with ContentLength -1 yields) leaves v at its
// defaults. Trailing garbage is still rejected.
func decodeOptionalBody(w http.ResponseWriter, r *http.Request, v any) bool {
	ok, _ := decodeJSON(w, r, v, false)
	return ok
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any, required bool) (ok, present bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) && !required {
			return true, false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false, false
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		httpError(w, http.StatusBadRequest,
			errors.New("decoding request: trailing data after JSON body"))
		return false, true
	}
	return true, true
}

// mutationError maps store errors by type: validation problems (ErrInvalid)
// are the client's fault, an unknown id is 404, a closed store or an
// unpromoted replica is 503 (the replica adds Retry-After), and everything
// else — journal failure above all — is a 500.
func mutationError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrReadOnly):
		// A follower refuses mutations; the client should retry against the
		// promoted store (or this one, shortly after its promotion).
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrInvalid):
		httpError(w, http.StatusBadRequest, err)
	case errors.Is(err, vmalloc.ErrUnknownService):
		httpError(w, http.StatusNotFound, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

// errorResponse is the uniform error envelope. RequestID echoes the
// X-Request-Id the middleware stamped on the response, so a client holding
// a 5xx body can fetch the request's spans from GET /v1/debug/traces.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{
		Error:     err.Error(),
		RequestID: w.Header().Get(RequestIDHeader),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
