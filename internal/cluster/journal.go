// Package cluster turns the placement service into a shardable replica:
// a consistent-hash front door that routes every solve to the replica
// owning its instance hash (forwarding when that is a peer), a persistent
// append-only journal of solved results replayed on startup, and per-key
// request quotas. Because results are content-addressed by the (instance
// hash, solver spec, seed) triple and every solver is deterministic in
// that triple, a journaled or forwarded result is byte-identical to a
// locally computed one — which replica executes a request never changes
// what the client reads.
package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Journal is a durable, append-only store of solved payloads keyed by the
// serving layer's content-addressed cache key. It implements
// server.ResultStore: the serving layer publishes every computed payload
// here and falls through to it on LRU miss, so results survive replica
// restarts and a warm journal turns a cold replica into an instant cache.
//
// On-disk format, per record, little-endian:
//
//	[4] key length  [4] value length  [key bytes] [value bytes]  [4] CRC-32 (IEEE) of key||value
//
// Open replays the file into memory and truncates a torn or corrupt tail
// (the records after the last intact one — the crash case where the
// process died mid-append) instead of failing; everything before the tear
// is served. A failed append is cut back off the file at once, so a tear
// never hides the records appended after it. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	f      journalFile
	m      map[string][]byte
	stats  JournalStats
	end    int64 // just past the last good record; a failed append is cut back to it
	halted bool  // a failed append could not be cut back: append no more
}

// journalFile is the part of *os.File the journal uses.
type journalFile interface {
	io.ReadWriteSeeker
	Truncate(size int64) error
	Close() error
}

// JournalStats describes a journal after Open and its growth since.
type JournalStats struct {
	// Entries is the number of distinct keys currently held.
	Entries int
	// Replayed counts intact records recovered from disk at Open.
	Replayed int
	// DiscardedBytes is the size of the torn/corrupt tail truncated at
	// Open; 0 on a clean file.
	DiscardedBytes int64
	// Appended counts records written since Open.
	Appended int

	// writeErr is the first append failure (see Journal.Err).
	writeErr error
}

// journalHeader is the fixed-size record prefix (key length, value length).
const journalHeader = 8

// maxJournalRecord rejects absurd length prefixes during replay, so a
// corrupt header reads as a torn tail instead of a huge allocation. Solve
// payloads are far below this.
const maxJournalRecord = 256 << 20

// OpenJournal opens (creating if needed) the journal at path, replays its
// intact records into memory, and truncates any torn tail so the next
// append lands on a record boundary.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cluster: open journal: %w", err)
	}
	j := &Journal{f: f, m: map[string][]byte{}}
	good, err := j.replay()
	if err != nil {
		f.Close()
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("cluster: seek journal: %w", err)
	}
	if size > good {
		// Torn tail: the process died mid-append (or the tail is corrupt).
		// Drop it — every record before the tear is intact and served.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("cluster: truncate torn journal tail: %w", err)
		}
		if _, err := f.Seek(good, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("cluster: seek journal: %w", err)
		}
		j.stats.DiscardedBytes = size - good
	}
	j.end = good
	j.stats.Entries = len(j.m)
	return j, nil
}

// replay reads records from the start of the file until EOF or the first
// torn/corrupt record, returning the byte offset after the last good one.
func (j *Journal) replay() (good int64, err error) {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("cluster: seek journal: %w", err)
	}
	r := io.Reader(j.f)
	var off int64
	var head [journalHeader]byte
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			// Clean EOF or a partial header: both end replay here.
			return off, nil
		}
		keyLen := binary.LittleEndian.Uint32(head[0:4])
		valLen := binary.LittleEndian.Uint32(head[4:8])
		if keyLen == 0 || uint64(keyLen)+uint64(valLen) > maxJournalRecord {
			return off, nil // corrupt header: treat as torn tail
		}
		buf := make([]byte, int(keyLen)+int(valLen)+4)
		if _, err := io.ReadFull(r, buf); err != nil {
			return off, nil // torn mid-record
		}
		body := buf[:keyLen+valLen]
		want := binary.LittleEndian.Uint32(buf[keyLen+valLen:])
		if crc32.ChecksumIEEE(body) != want {
			return off, nil // bit rot or a tear that still had the length
		}
		key := string(body[:keyLen])
		val := body[keyLen : keyLen+valLen : keyLen+valLen]
		j.m[key] = val
		j.stats.Replayed++
		off += journalHeader + int64(len(buf))
	}
}

// Get implements server.ResultStore.
func (j *Journal) Get(key string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	b, ok := j.m[key]
	return b, ok
}

// Put implements server.ResultStore: idempotent (re-publishing a known key
// is a no-op, so replicas replaying traffic never grow the file), and
// best-effort on disk — an append error leaves the in-memory copy serving
// and is surfaced via Err, never to the solve that produced the payload.
func (j *Journal) Put(key string, payload []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.m[key]; dup {
		return
	}
	j.m[key] = payload
	j.stats.Entries = len(j.m)
	if j.halted {
		return
	}
	rec := make([]byte, journalHeader+len(key)+len(payload)+4)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(payload)))
	copy(rec[journalHeader:], key)
	copy(rec[journalHeader+len(key):], payload)
	body := rec[journalHeader : journalHeader+len(key)+len(payload)]
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], crc32.ChecksumIEEE(body))
	if _, err := j.f.Write(rec); err != nil {
		if j.stats.writeErr == nil {
			j.stats.writeErr = err
		}
		// Cut off whatever part of rec reached the disk, so the records
		// appended after it still replay; if that fails, stop appending.
		_, err := j.f.Seek(j.end, io.SeekStart)
		j.halted = err != nil || j.f.Truncate(j.end) != nil
		return
	}
	j.end += int64(len(rec))
	j.stats.Appended++
}

// Stats returns a snapshot of the journal counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Err returns the first append error, if any — in-memory serving continues
// past it, but durability is lost from that point: the failed record is
// not on disk, and if it could not be cut back, nothing after it is.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats.writeErr
}

// Close releases the underlying file. The in-memory map keeps serving.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
