package journal

import (
	"fmt"
	"sync/atomic"
)

// Batch accumulates records for one atomic group append. Records are encoded
// by Add off the journal lock (so aliased engine buffers are captured
// immediately), and Commit hands every frame to the committer under a single
// lock acquisition: the records receive consecutive sequence numbers with
// nothing interleaved, land in the same commit batch, and therefore share one
// write and one fsync. The returned ticket resolves once the whole batch is
// durable.
//
// A Batch is single-goroutine; callers that must keep the log faithful to
// application order Add and Commit while holding their own state lock and
// Wait after releasing it.
type Batch struct {
	j        *Journal
	payloads []byte // concatenated encoded payloads
	ends     []int  // end offset of each payload in payloads
}

// NewBatch returns an empty batch bound to the journal. The batch's buffers
// are reusable: after Commit (or Reset) it is empty and ready for the next
// group.
func (j *Journal) NewBatch() *Batch { return &Batch{j: j} }

// Add encodes r into the batch. The record's aliased buffers are copied out
// now, so they only need to stay valid for the duration of the call. A record
// exceeding the frame limit is rejected without joining the batch — the
// remaining records are unaffected. (Recovery's scanner would reject an
// overlong frame as corruption, so it must never be acknowledged.)
func (b *Batch) Add(r *Record) error {
	start := len(b.payloads)
	b.payloads = encodePayload(b.payloads, r)
	if n := len(b.payloads) - start; n > maxPayloadBytes {
		b.payloads = b.payloads[:start]
		return fmt.Errorf("journal: %s record payload %d bytes exceeds frame limit %d",
			r.Op, n, maxPayloadBytes)
	}
	b.ends = append(b.ends, len(b.payloads))
	return nil
}

// Len returns the number of records accumulated so far.
func (b *Batch) Len() int { return len(b.ends) }

// Reset discards the accumulated records, keeping the buffers.
func (b *Batch) Reset() {
	b.payloads = b.payloads[:0]
	b.ends = b.ends[:0]
}

// Commit enqueues every accumulated record as one unit — consecutive
// sequence numbers, one commit write, one shared fsync — and resets the
// batch. The single returned ticket resolves when the whole group is durable.
// Committing an empty batch returns an immediately resolved ticket.
func (b *Batch) Commit() *Ticket {
	if len(b.ends) == 0 {
		ch := make(chan error, 1)
		ch <- nil
		return &Ticket{ch}
	}
	t, _ := b.j.enqueue(b.payloads, b.ends)
	b.Reset()
	return t
}

// BatchSizeBounds are the upper bounds (inclusive) of the commit batch size
// histogram buckets reported by IOStats; batches larger than the last bound
// land in the final open bucket.
var BatchSizeBounds = [...]uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// IOStats is a point-in-time snapshot of the journal's write-path counters:
// how many records were durably written, in how many commit batches (group
// commits), with how many fsyncs and segment rotations. BatchSizes[i] counts
// commit batches whose record count was <= BatchSizeBounds[i] (and greater
// than the previous bound); the final bucket is open-ended. The ratio
// Records/Fsyncs is the fsync amortization factor the group commit achieves.
type IOStats struct {
	Records    uint64
	Batches    uint64
	Fsyncs     uint64
	Rotations  uint64
	BatchSizes [len(BatchSizeBounds) + 1]uint64
}

// ioCounters is the committer-side instrumentation, atomics so IOStats can
// be read from any goroutine without taking the journal lock.
type ioCounters struct {
	records    atomic.Uint64
	batches    atomic.Uint64
	fsyncs     atomic.Uint64
	rotations  atomic.Uint64
	batchSizes [len(BatchSizeBounds) + 1]atomic.Uint64
}

func (c *ioCounters) noteBatch(recs int, synced bool) {
	if recs > 0 {
		c.records.Add(uint64(recs))
		c.batches.Add(1)
		i := 0
		for i < len(BatchSizeBounds) && uint64(recs) > BatchSizeBounds[i] {
			i++
		}
		c.batchSizes[i].Add(1)
	}
	if synced {
		c.fsyncs.Add(1)
	}
}

// IOStats returns the journal's cumulative write-path counters.
func (j *Journal) IOStats() IOStats {
	var st IOStats
	st.Records = j.io.records.Load()
	st.Batches = j.io.batches.Load()
	st.Fsyncs = j.io.fsyncs.Load()
	st.Rotations = j.io.rotations.Load()
	for i := range st.BatchSizes {
		st.BatchSizes[i] = j.io.batchSizes[i].Load()
	}
	return st
}
