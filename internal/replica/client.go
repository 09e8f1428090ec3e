// Package replica implements vmallocd's replication follower: a daemon that
// bootstraps from a leader's checkpoints, tails the leader's shard WALs over
// HTTP, applies every record through the same restore seam crash recovery
// uses, and serves the read surface until it is explicitly promoted.
//
// The design invariant is byte identity: the follower's WAL is a verbatim
// prefix of the leader's (journal.AppendFrames appends the streamed frames
// unmodified), so both sides compute the same integrity chain and the same
// checkpoint ledger. Promotion verifies that chain agreement — a tampered or
// diverged replica is refused, and the divergence point is localized in
// O(log n) checkpoint comparisons.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmalloc/internal/journal"
	"vmalloc/internal/server"
)

// Client is the follower side of the /v1/replica/* wire protocol. Safe for
// concurrent use.
type Client struct {
	base string

	mu   sync.Mutex
	rng  *rand.Rand
	seed bool
}

// NewClient returns a client for the leader at base (e.g.
// "http://10.0.0.1:7070"); requests go through http.DefaultClient.
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/")}
}

// Backoff parameters for transient pull failures: capped exponential with
// full jitter, so a partitioned follower neither hammers a recovering leader
// nor thunders in lockstep with its siblings.
const (
	backoffBase = 50 * time.Millisecond
	backoffCap  = 2 * time.Second
)

// Backoff returns the sleep before retry number attempt (0-based): a random
// duration in (0, min(cap, base<<attempt)].
func (c *Client) Backoff(attempt int) time.Duration {
	max := backoffBase << uint(attempt)
	if max > backoffCap || max <= 0 {
		max = backoffCap
	}
	c.mu.Lock()
	if !c.seed {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
		c.seed = true
	}
	d := time.Duration(c.rng.Int63n(int64(max))) + 1
	c.mu.Unlock()
	return d
}

// Manifest fetches the leader's shard manifest.
func (c *Client) Manifest(ctx context.Context) (*server.ShardManifest, error) {
	var m server.ShardManifest
	if err := c.getJSON(ctx, "/v1/replica/manifest", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Checkpoint fetches the leader's newest durable checkpoint for one shard.
func (c *Client) Checkpoint(ctx context.Context, shard int) (*journal.Checkpoint, error) {
	var cp journal.Checkpoint
	q := url.Values{"shard": {strconv.Itoa(shard)}}
	if err := c.getJSON(ctx, "/v1/replica/checkpoint", q, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// Chains fetches the leader's per-shard committed marks and checkpoint
// ledgers.
func (c *Client) Chains(ctx context.Context) ([]server.ShardChain, error) {
	var cs []server.ShardChain
	if err := c.getJSON(ctx, "/v1/replica/chains", nil, &cs); err != nil {
		return nil, err
	}
	return cs, nil
}

// Stream pulls one batch of raw committed frames of shard starting after
// cursor from. A nil batch means caught up; journal.ErrCompacted means the
// cursor predates the leader's retention and the shard must re-bootstrap.
func (c *Client) Stream(ctx context.Context, shard int, from uint64, maxBytes int) (*server.StreamBatch, error) {
	q := url.Values{
		"shard": {strconv.Itoa(shard)},
		"from":  {strconv.FormatUint(from, 10)},
		"max":   {strconv.Itoa(maxBytes)},
	}
	resp, err := c.get(ctx, "/v1/replica/stream", q)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusGone:
		io.Copy(io.Discard, resp.Body)
		return nil, journal.ErrCompacted
	case http.StatusOK:
	default:
		return nil, httpError(resp)
	}
	first, err1 := strconv.ParseUint(resp.Header.Get("Vmalloc-First-Seq"), 10, 64)
	last, err2 := strconv.ParseUint(resp.Header.Get("Vmalloc-Last-Seq"), 10, 64)
	if err1 != nil || err2 != nil || first == 0 || last < first {
		return nil, fmt.Errorf("replica: malformed stream headers (first=%q last=%q)",
			resp.Header.Get("Vmalloc-First-Seq"), resp.Header.Get("Vmalloc-Last-Seq"))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("replica: reading stream body: %w", err)
	}
	return &server.StreamBatch{First: first, Last: last, Data: data}, nil
}

func (c *Client) get(ctx context.Context, path string, q url.Values) (*http.Response, error) {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	return resp, nil
}

func (c *Client) getJSON(ctx context.Context, path string, q url.Values, v any) error {
	resp, err := c.get(ctx, path, q)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("replica: decoding %s: %w", path, err)
	}
	return nil
}

// httpError turns a non-2xx response into an error, preferring the server's
// JSON error envelope over the raw status line.
func httpError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error != "" {
		return fmt.Errorf("replica: leader returned %s: %s", resp.Status, env.Error)
	}
	return fmt.Errorf("replica: leader returned %s", resp.Status)
}

// Transient reports whether a pull error is worth retrying in place:
// network-level failures, per-request timeouts and leader-side 5xx all are.
// ErrCompacted is not — the shard must re-bootstrap from a checkpoint. (The
// pull loop checks its own context separately; a canceled parent stops the
// loop before any retry sleep matters.)
func Transient(err error) bool {
	return err != nil && !errors.Is(err, journal.ErrCompacted)
}
