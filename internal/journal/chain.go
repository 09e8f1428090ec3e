package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"vmalloc/internal/faultfs"
)

// The integrity chain is a rolling SHA-256 over every record payload:
//
//	h_0 = 0, h_n = SHA256(h_{n-1} || payload_n)
//
// The payload includes the record's sequence number, so two journals hold the
// same chain hash at seq n if and only if they hold bit-identical histories
// through n. Frame CRCs catch accidental corruption; the chain catches
// deliberate tampering (a flipped byte with a recomputed CRC) and divergent
// replicas (same seq, different decision).
//
// Chain checkpoints land in chain.json next to the segments:
//
//   - entries: the chain at every multiple of the interval. Deterministic
//     across replicas with the same history, so two replicas are compared by
//     their entries — Merkle-style, a mismatch is localized to the first
//     divergent checkpoint by binary search in O(log n) without re-reading
//     any segment.
//   - bases: the chain at each local snapshot's seq, seeding replay (records
//     at or below the snapshot are not replayed, so their chain cannot be
//     recomputed). Bases are replica-local: snapshot cadence differs between
//     leader and follower even when histories are identical.
//
// chain.json is written before its snapshot is renamed into place, so a
// snapshot that recovery selects always has a base. Replay recomputes the
// chain from the base and verifies every checkpoint it crosses; a mismatch
// fails recovery rather than resurrecting a tampered history.

// ChainPoint is the integrity chain at a sequence number: the rolling hash
// covering every record with Seq' <= Seq.
type ChainPoint struct {
	Seq  uint64
	Hash [32]byte
}

type chainPointWire struct {
	Seq  uint64 `json:"seq"`
	Hash string `json:"hash"`
}

// MarshalJSON encodes the hash as lowercase hex.
func (c ChainPoint) MarshalJSON() ([]byte, error) {
	return json.Marshal(chainPointWire{Seq: c.Seq, Hash: hex.EncodeToString(c.Hash[:])})
}

// UnmarshalJSON decodes the hex hash, rejecting wrong lengths.
func (c *ChainPoint) UnmarshalJSON(data []byte) error {
	var w chainPointWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	raw, err := hex.DecodeString(w.Hash)
	if err != nil {
		return fmt.Errorf("chain point %d: %w", w.Seq, err)
	}
	if len(raw) != len(c.Hash) {
		return fmt.Errorf("chain point %d: hash is %d bytes, want %d", w.Seq, len(raw), len(c.Hash))
	}
	c.Seq = w.Seq
	copy(c.Hash[:], raw)
	return nil
}

// chainNext advances the rolling hash over one record payload.
func chainNext(prev [32]byte, payload []byte) [32]byte {
	h := sha256.New()
	h.Write(prev[:])
	h.Write(payload)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

const chainFile = "chain.json"

// chainManifest is the persisted form of chain.json.
type chainManifest struct {
	Interval uint64       `json:"interval"`
	Entries  []ChainPoint `json:"entries"`
	Bases    []ChainPoint `json:"bases"`
}

func chainPath(dir string) string { return filepath.Join(dir, chainFile) }

// loadChain reads chain.json; a missing file returns (nil, nil) — a legacy
// directory that predates the chain.
func loadChain(fsys faultfs.FS, dir string) (*chainManifest, error) {
	data, err := fsys.ReadFile(chainPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var m chainManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("journal: %s: %w", chainPath(dir), err)
	}
	if m.Interval == 0 {
		return nil, fmt.Errorf("journal: %s: zero interval", chainPath(dir))
	}
	for _, pts := range [][]ChainPoint{m.Entries, m.Bases} {
		for i := 1; i < len(pts); i++ {
			if pts[i].Seq <= pts[i-1].Seq {
				return nil, fmt.Errorf("journal: %s: points out of order at seq %d", chainPath(dir), pts[i].Seq)
			}
		}
	}
	return &m, nil
}

// writeChain durably replaces chain.json (tmp + fsync + rename + dirsync).
func writeChain(fsys faultfs.FS, dir string, m *chainManifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return WriteFileAtomic(fsys, chainPath(dir), data)
}

// findPoint returns the point with exactly seq, if present.
func findPoint(pts []ChainPoint, seq uint64) (ChainPoint, bool) {
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Seq >= seq })
	if i < len(pts) && pts[i].Seq == seq {
		return pts[i], true
	}
	return ChainPoint{}, false
}

// MerkleRoot folds a checkpoint list into a single hash: leaves are
// H(seq || chain), interior nodes H(left || right), an odd node promoted.
// Two replicas holding the same checkpoint range agree on the root iff they
// agree on every checkpoint.
func MerkleRoot(pts []ChainPoint) [32]byte {
	if len(pts) == 0 {
		return [32]byte{}
	}
	level := make([][32]byte, len(pts))
	for i, p := range pts {
		h := sha256.New()
		var seq [8]byte
		for k := 0; k < 8; k++ {
			seq[k] = byte(p.Seq >> (8 * k))
		}
		h.Write(seq[:])
		h.Write(p.Hash[:])
		h.Sum(level[i][:0])
	}
	for len(level) > 1 {
		next := make([][32]byte, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			h := sha256.New()
			h.Write(level[i][:])
			h.Write(level[i+1][:])
			var node [32]byte
			h.Sum(node[:0])
			next = append(next, node)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// CompareChains diffs two checkpoint lists over their common seq range.
// It reports whether they diverge and, if so, the first divergent checkpoint
// (ours). The chain's prefix property — once two histories differ, every
// later chain hash differs — makes the first divergence binary-searchable:
// the comparison is O(log n) in the number of shared checkpoints, with a
// Merkle-root fast path when the ranges coincide.
//
// Lists must be seq-sorted with aligned checkpoints in the overlap (the
// interval discipline guarantees this for journal entries). Checkpoints
// outside the common range cannot be compared and are ignored: a replica
// that pruned older checkpoints is not thereby divergent.
func CompareChains(ours, theirs []ChainPoint) (at ChainPoint, diverged bool) {
	a, b := overlap(ours, theirs)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	a, b = a[:n], b[:n]
	if n == 0 || MerkleRoot(a) == MerkleRoot(b) {
		return ChainPoint{}, false
	}
	i := sort.Search(n, func(i int) bool { return a[i] != b[i] })
	if i == n {
		return ChainPoint{}, false
	}
	return a[i], true
}

// overlap trims both seq-sorted lists to their common seq range.
func overlap(a, b []ChainPoint) ([]ChainPoint, []ChainPoint) {
	if len(a) == 0 || len(b) == 0 {
		return nil, nil
	}
	lo := a[0].Seq
	if b[0].Seq > lo {
		lo = b[0].Seq
	}
	hi := a[len(a)-1].Seq
	if b[len(b)-1].Seq < hi {
		hi = b[len(b)-1].Seq
	}
	trim := func(pts []ChainPoint) []ChainPoint {
		i := sort.Search(len(pts), func(i int) bool { return pts[i].Seq >= lo })
		j := sort.Search(len(pts), func(j int) bool { return pts[j].Seq > hi })
		return pts[i:j]
	}
	return trim(a), trim(b)
}

// Checkpoint is the portable bootstrap package for a fresh replica: state,
// the chain point it covers, and the checkpoint ledger up to that point.
// InstallSnapshot seeds an empty directory from it so the replica continues
// the leader's chain rather than starting one of its own.
type Checkpoint struct {
	At       ChainPoint      `json:"at"`
	Interval uint64          `json:"interval"`
	Entries  []ChainPoint    `json:"entries"`
	State    json.RawMessage `json:"state"`
}
