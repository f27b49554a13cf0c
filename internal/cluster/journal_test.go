package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func openTestJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.journal")
	j := openTestJournal(t, path)
	for i := 0; i < 20; i++ {
		j.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf(`{"result":%d}`, i)))
	}
	// Idempotent: re-putting a known key neither grows the map nor the file.
	sizeBefore := fileSize(t, path)
	j.Put("key-3", []byte("other bytes"))
	if got, _ := j.Get("key-3"); string(got) != `{"result":3}` {
		t.Errorf("re-put overwrote key-3: %s", got)
	}
	if fileSize(t, path) != sizeBefore {
		t.Error("re-put grew the journal file")
	}
	j.Close()

	re := openTestJournal(t, path)
	st := re.Stats()
	if st.Replayed != 20 || st.Entries != 20 || st.DiscardedBytes != 0 {
		t.Fatalf("replay stats = %+v, want 20 clean records", st)
	}
	for i := 0; i < 20; i++ {
		b, ok := re.Get(fmt.Sprintf("key-%d", i))
		if !ok || string(b) != fmt.Sprintf(`{"result":%d}`, i) {
			t.Fatalf("key-%d after replay: %q (ok=%v)", i, b, ok)
		}
	}
}

// TestJournalTornTailIsDiscarded is the crash-recovery contract: a record
// torn mid-append (the file ends partway through it) is detected at
// replay, discarded, and truncated — never fatal, and every record before
// the tear survives.
func TestJournalTornTailIsDiscarded(t *testing.T) {
	for _, cut := range []int64{1, 3, 9} { // tear inside CRC, value, header
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.journal")
			j := openTestJournal(t, path)
			j.Put("alpha", []byte("payload-alpha"))
			j.Put("beta", []byte("payload-beta"))
			j.Put("gamma", []byte("payload-gamma"))
			j.Close()

			size := fileSize(t, path)
			if err := os.Truncate(path, size-cut); err != nil {
				t.Fatal(err)
			}
			re := openTestJournal(t, path)
			st := re.Stats()
			if st.Replayed != 2 {
				t.Fatalf("replayed %d records after tear, want 2 (stats %+v)", st.Replayed, st)
			}
			if st.DiscardedBytes == 0 {
				t.Error("tear not reported in DiscardedBytes")
			}
			if _, ok := re.Get("gamma"); ok {
				t.Error("torn record served")
			}
			if b, ok := re.Get("beta"); !ok || string(b) != "payload-beta" {
				t.Errorf("intact record lost: %q (ok=%v)", b, ok)
			}
			// The tail was truncated: a new append replays cleanly next time.
			re.Put("delta", []byte("payload-delta"))
			re.Close()
			again := openTestJournal(t, path)
			if st := again.Stats(); st.Replayed != 3 || st.DiscardedBytes != 0 {
				t.Errorf("post-recovery replay = %+v, want 3 clean records", st)
			}
		})
	}
}

// TestJournalCorruptRecordStopsReplay covers bit rot: a record whose CRC
// no longer matches ends replay there (it and everything after it is
// dropped), without failing Open.
func TestJournalCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.journal")
	j := openTestJournal(t, path)
	j.Put("first", []byte("payload-first"))
	firstEnd := fileSize(t, path)
	j.Put("second", []byte("payload-second"))
	j.Close()

	// Flip a byte inside the second record's value.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[firstEnd+journalHeader+3] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openTestJournal(t, path)
	st := re.Stats()
	if st.Replayed != 1 || st.DiscardedBytes == 0 {
		t.Errorf("stats after corruption = %+v, want 1 record and a discarded tail", st)
	}
	if _, ok := re.Get("second"); ok {
		t.Error("corrupt record served")
	}
}

// tearingFile is a journal file whose next Write puts half the record on
// disk and then fails, as a full disk or an I/O error can; failTruncate
// makes the recovery truncate fail too.
type tearingFile struct {
	*os.File
	tear         bool
	failTruncate bool
}

func (f *tearingFile) Write(p []byte) (int, error) {
	if !f.tear {
		return f.File.Write(p)
	}
	f.tear = false
	n, _ := f.File.Write(p[:len(p)/2])
	return n, errors.New("injected write failure")
}

func (f *tearingFile) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected truncate failure")
	}
	return f.File.Truncate(size)
}

// TestJournalFailedAppendKeepsLaterRecords is the write-fault contract: a
// failed append that left half a record on disk is cut back off the file,
// so a record acknowledged after it survives the next OpenJournal instead
// of sitting behind a tear that replay truncates away.
func TestJournalFailedAppendKeepsLaterRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fault.journal")
	j := openTestJournal(t, path)
	j.Put("alpha", []byte("payload-alpha"))
	tf := &tearingFile{File: j.f.(*os.File), tear: true}
	j.f = tf
	j.Put("beta", []byte("payload-beta"))
	if j.Err() == nil {
		t.Fatal("failed append not reported by Err")
	}
	j.Put("gamma", []byte("payload-gamma"))
	if b, ok := j.Get("beta"); !ok || string(b) != "payload-beta" {
		t.Errorf("failed append dropped the in-memory copy: %q (ok=%v)", b, ok)
	}
	j.Close()

	re := openTestJournal(t, path)
	if st := re.Stats(); st.Replayed != 2 || st.DiscardedBytes != 0 {
		t.Errorf("replay after a failed append = %+v, want 2 clean records", st)
	}
	for _, key := range []string{"alpha", "gamma"} {
		if b, ok := re.Get(key); !ok || string(b) != "payload-"+key {
			t.Errorf("%s after replay: %q (ok=%v)", key, b, ok)
		}
	}
	if _, ok := re.Get("beta"); ok {
		t.Error("the failed record replayed")
	}
}

// TestJournalStopsAppendingWhenCutBackFails pins the fallback: when the
// half-written record cannot be truncated away, the journal appends
// nothing more behind it, and the next OpenJournal still serves every
// record before the tear.
func TestJournalStopsAppendingWhenCutBackFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "halt.journal")
	j := openTestJournal(t, path)
	j.Put("alpha", []byte("payload-alpha"))
	j.f = &tearingFile{File: j.f.(*os.File), tear: true, failTruncate: true}
	j.Put("beta", []byte("payload-beta"))
	torn := fileSize(t, path)
	j.Put("gamma", []byte("payload-gamma"))
	if got := fileSize(t, path); got != torn {
		t.Errorf("journal grew from %d to %d bytes behind an uncut tear", torn, got)
	}
	if b, ok := j.Get("gamma"); !ok || string(b) != "payload-gamma" {
		t.Errorf("in-memory serving stopped: %q (ok=%v)", b, ok)
	}
	j.Close()

	re := openTestJournal(t, path)
	if st := re.Stats(); st.Replayed != 1 || st.DiscardedBytes == 0 {
		t.Errorf("replay = %+v, want 1 record and a discarded tear", st)
	}
	if b, ok := re.Get("alpha"); !ok || string(b) != "payload-alpha" {
		t.Errorf("alpha after replay: %q (ok=%v)", b, ok)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestJournalOverlongHeaderDoesNotAllocate pins the replay bound: a header
// claiming a record longer than the rest of the file is a torn tail,
// discarded without allocating the claimed length.
func TestJournalOverlongHeaderDoesNotAllocate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "overlong.journal")
	var rec [journalHeader + 10]byte
	binary.LittleEndian.PutUint32(rec[0:4], 8)
	binary.LittleEndian.PutUint32(rec[4:8], 200<<20)
	if err := os.WriteFile(path, rec[:], 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j := openTestJournal(t, path)
	runtime.ReadMemStats(&after)
	if st := j.Stats(); st.Replayed != 0 || st.DiscardedBytes != 18 {
		t.Errorf("stats = %+v, want nothing replayed and 18 bytes discarded", st)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("opening allocated %d bytes", grew)
	}
}

// FuzzJournalReplay appends arbitrary bytes to a journal of intact records.
// Open must not panic and must replay every intact record (the fuzz tail
// may add records of its own only by forming valid ones), and a reopen of
// the truncated file must replay exactly the same set, cleanly.
func FuzzJournalReplay(f *testing.F) {
	var overlong [journalHeader]byte
	binary.LittleEndian.PutUint32(overlong[0:4], 1)
	binary.LittleEndian.PutUint32(overlong[4:8], 200<<20)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(overlong[:])
	f.Add(append(overlong[:], "k-and-some-value-bytes"...))
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		const intact = 3
		for i := 0; i < intact; i++ {
			j.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%d", i)))
		}
		j.Close()
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(tail); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}

		first := openTestJournal(t, path)
		st := first.Stats()
		if st.Replayed < intact {
			t.Fatalf("replayed %d records, want at least the %d intact ones", st.Replayed, intact)
		}
		for i := 0; i < intact; i++ {
			if b, ok := first.Get(fmt.Sprintf("key-%d", i)); !ok || string(b) != fmt.Sprintf("value-%d", i) {
				t.Fatalf("key-%d after replay: %q (ok=%v)", i, b, ok)
			}
		}
		replayed := map[string][]byte{}
		for key := range first.index {
			b, ok := first.Get(key)
			if !ok {
				t.Fatalf("replayed key %q misses", key)
			}
			replayed[key] = b
		}
		first.Close()
		re := openTestJournal(t, path)
		if got := re.Stats(); got.Replayed != st.Replayed || got.Entries != st.Entries || got.DiscardedBytes != 0 {
			t.Fatalf("reopen stats %+v after first open %+v", got, st)
		}
		for key, want := range replayed {
			if b, ok := re.Get(key); !ok || !bytes.Equal(b, want) {
				t.Fatalf("reopen serves %q as %q (ok=%v), first open served %q", key, b, ok, want)
			}
		}
	})
}

// TestJournalKeepsPayloadsOnDisk pins the memory contract: the journal
// holds each record's place in the file, not its payload, so 4 MiB of
// appended payloads leave the heap about where it was.
func TestJournalKeepsPayloadsOnDisk(t *testing.T) {
	j := openTestJournal(t, filepath.Join(t.TempDir(), "heap.journal"))
	const n, size = 512, 8 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		j.Put(fmt.Sprintf("key-%04d", i), bytes.Repeat([]byte{byte(i)}, size))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Errorf("heap grew %d bytes holding %d payloads of %d bytes", grew, n, size)
	}
	if b, ok := j.Get("key-0007"); !ok || !bytes.Equal(b, bytes.Repeat([]byte{7}, size)) {
		t.Errorf("key-0007 read back wrong (ok=%v, %d bytes)", ok, len(b))
	}
}

// TestJournalGetChecksEveryRead flips one value byte of a record in place
// after Open: Get reads the record back and checks its CRC, so that record
// misses while its neighbours are still served.
func TestJournalGetChecksEveryRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.journal")
	j := openTestJournal(t, path)
	j.Put("first", []byte("payload-first"))
	firstEnd := fileSize(t, path)
	j.Put("second", []byte("payload-second"))
	j.Put("third", []byte("payload-third"))

	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	at := firstEnd + journalHeader + int64(len("second")) + 3
	if _, err := fh.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := fh.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	if got, ok := j.Get("second"); ok {
		t.Errorf("corrupt record served: %q", got)
	}
	for _, key := range []string{"first", "third"} {
		if got, ok := j.Get(key); !ok || string(got) != "payload-"+key {
			t.Errorf("%s next to a corrupt record: %q (ok=%v)", key, got, ok)
		}
	}
}

// TestJournalConcurrentPutGet reads records back from the file while other
// goroutines append: every Get of a key whose Put returned serves its
// exact bytes (run under -race).
func TestJournalConcurrentPutGet(t *testing.T) {
	j := openTestJournal(t, filepath.Join(t.TempDir(), "concurrent.journal"))
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				j.Put(key, []byte("payload-"+key))
				if b, ok := j.Get(key); !ok || string(b) != "payload-"+key {
					t.Errorf("%s right after Put: %q (ok=%v)", key, b, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := j.Stats(); st.Entries != writers*each || st.Appended != writers*each {
		t.Errorf("stats = %+v, want %d entries appended", st, writers*each)
	}
}
