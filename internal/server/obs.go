package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"vmalloc/internal/obs"
)

// RequestIDHeader is the request-correlation header vmallocd accepts and
// echoes: a client-supplied X-Request-Id propagates verbatim, otherwise one
// is minted. The same id names the request's trace in GET /v1/debug/traces
// and stamps the request log line, so a 5xx response can always be chased
// back to its spans.
const RequestIDHeader = "X-Request-Id"

// instrumented reports whether a route takes part in per-endpoint latency
// instrumentation and request tracing. The scrape and debug surfaces are
// excluded: a 15-second Prometheus scrape interval would dominate the
// latency histograms and a poll of /v1/debug/traces would evict the very
// traces it came to read.
func instrumented(pattern string) bool {
	return pattern != "/metrics" && !strings.HasPrefix(pattern, "/v1/debug/")
}

// observe wraps h with request correlation and tracing: the X-Request-Id
// header is accepted (or minted), set on the response before the handler
// runs — so error envelopes can echo it — and names the request's trace.
// When lg is non-nil every request logs one line, at Debug normally and
// Warn from status 500. With a nil tracer and logger the handler is
// returned untouched.
func observe(method, pattern string, t *obs.Tracer, lg *slog.Logger, h http.HandlerFunc) http.HandlerFunc {
	if t == nil && lg == nil {
		return h
	}
	name := method + " " + pattern
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = t.NewID()
		}
		if id != "" {
			w.Header().Set(RequestIDHeader, id)
		}
		tr := t.StartTrace(name, id)
		if tr != nil {
			r = r.WithContext(obs.ContextWithSpan(r.Context(), tr.Root()))
		}
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		tr.Finish(code)
		if lg != nil {
			lvl := slog.LevelDebug
			if code >= http.StatusInternalServerError {
				lvl = slog.LevelWarn
			}
			lg.LogAttrs(r.Context(), lvl, "request",
				slog.String("method", method),
				slog.String("route", pattern),
				slog.Int("status", code),
				slog.Int64("duration_us", time.Since(start).Microseconds()),
				slog.String("request_id", id),
			)
		}
	}
}

// debugEpochsResponse is the GET /v1/debug/epochs payload: cumulative
// totals over every epoch ever run plus the retained ring, newest first.
type debugEpochsResponse struct {
	Totals obs.EpochTotals   `json:"totals"`
	Epochs []obs.EpochRecord `json:"epochs"`
}

// debugRoutes serves the retained-telemetry surface: recent/slow traces by
// id or newest-first, and the epoch ring with solver counters and phase
// timing. Read-only, lock-cheap, safe to poll in production.
func debugRoutes(o *obs.Observer) []route {
	return []route{
		{"GET", "/v1/debug/traces", func(w http.ResponseWriter, r *http.Request) {
			if id := r.URL.Query().Get("id"); id != "" {
				ts, ok := o.TracerOf().Lookup(id)
				if !ok {
					httpError(w, http.StatusNotFound, fmt.Errorf("no retained trace %q", id))
					return
				}
				writeJSON(w, http.StatusOK, []obs.TraceSnapshot{ts})
				return
			}
			limit, ok := queryInt(w, r, "limit", 32)
			if !ok {
				return
			}
			snaps := o.TracerOf().Snapshot(limit)
			if snaps == nil {
				snaps = []obs.TraceSnapshot{}
			}
			writeJSON(w, http.StatusOK, snaps)
		}},
		{"GET", "/v1/debug/epochs", func(w http.ResponseWriter, r *http.Request) {
			limit, ok := queryInt(w, r, "limit", 32)
			if !ok {
				return
			}
			ring := o.EpochsOf()
			resp := debugEpochsResponse{Totals: ring.Totals(), Epochs: ring.Snapshot(limit)}
			if resp.Epochs == nil {
				resp.Epochs = []obs.EpochRecord{}
			}
			writeJSON(w, http.StatusOK, resp)
		}},
	}
}
