package journal

import (
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"vmalloc/internal/faultfs"
)

// Each record is framed as
//
//	[4B little-endian payload length][4B little-endian CRC32C(payload)][payload]
//
// so a reader can skip records without decoding them and a torn or corrupt
// tail is detected by length/CRC mismatch.
const frameHeader = 8

// maxPayloadBytes caps a single record payload (16 MiB). A frame whose
// declared length exceeds it is treated as corruption, not as a request to
// allocate gigabytes.
const maxPayloadBytes = 16 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the frame for payload to b.
func appendFrame(b, payload []byte) []byte {
	n := uint32(len(payload))
	crc := crc32.Checksum(payload, castagnoli)
	b = append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	b = append(b, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
	return append(b, payload...)
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// scanFrames walks the framed records in data, calling fn with each verified
// payload (aliasing data; fn must not retain it). It returns the length of
// the valid prefix: the byte offset just past the last frame whose length and
// CRC check out and whose payload fn accepted. A non-nil error from fn stops
// the scan and is returned alongside the offset of the frame that failed.
//
// An invalid suffix (short header, declared length past the end, CRC
// mismatch, absurd length) ends the scan with err == nil: distinguishing a
// torn tail from mid-log corruption is the caller's policy, based on whether
// the suffix sits in the last segment. scanFrames itself never panics on
// arbitrary input.
func scanFrames(data []byte, fn func(payload []byte) error) (valid int, err error) {
	off := 0
	for {
		if off+frameHeader > len(data) {
			return off, nil
		}
		n := leU32(data[off:])
		if n > maxPayloadBytes || off+frameHeader+int(n) > len(data) {
			return off, nil
		}
		crc := leU32(data[off+4:])
		payload := data[off+frameHeader : off+frameHeader+int(n)]
		if crc32.Checksum(payload, castagnoli) != crc {
			return off, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, err
			}
		}
		off += frameHeader + int(n)
	}
}

// Segment and snapshot file naming: the 20-digit zero-padded decimal keeps
// lexical order equal to numeric order, so sorted directory listings are
// already in log order.
const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".json"
)

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstSeq, segSuffix)
}

func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix)
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if len(digits) != 20 {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listDir returns the segment base sequences and snapshot sequences present
// in dir, each sorted ascending.
func listDir(fsys faultfs.FS, dir string) (segs, snaps []uint64, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, seq)
		} else if seq, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

func segmentPath(dir string, firstSeq uint64) string {
	return filepath.Join(dir, segmentName(firstSeq))
}

func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, snapshotName(seq))
}

// Relocate moves the journal living in from — every segment and snapshot
// listDir would report plus the chain ledger — into to (created if needed)
// and makes the move durable. It is resumable: a crash (or a failed rename)
// part-way leaves each file whole in exactly one of the two directories, and
// the next call moves the rest; with nothing left to move it is a read-only
// no-op. from stays locked for the duration so two booting processes cannot
// interleave. A nil fsys selects the real filesystem.
func Relocate(fsys faultfs.FS, from, to string) error {
	fsys = Options{FS: fsys}.fs()
	entries, err := fsys.ReadDir(from)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	var names []string
	for _, e := range entries {
		_, seg := parseSeq(e.Name(), segPrefix, segSuffix)
		_, snap := parseSeq(e.Name(), snapPrefix, snapSuffix)
		if !e.IsDir() && (seg || snap || e.Name() == chainFile) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil
	}
	lock, err := lockDir(from)
	if err != nil {
		return err
	}
	if lock != nil {
		defer lock.Close()
	}
	if err := fsys.MkdirAll(to, 0o755); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for _, name := range names {
		if err := fsys.Rename(filepath.Join(from, name), filepath.Join(to, name)); err != nil {
			return fmt.Errorf("journal: relocating %s: %w", name, err)
		}
	}
	if err := syncDir(fsys, to); err != nil {
		return err
	}
	return syncDir(fsys, from)
}
