package chunkdisk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"datalinks/internal/extent"
)

// blob builds a deterministic test blob and its hash. The body cycles every
// 256 bytes and depends only on seed mod 256, so the whole seed is stamped
// over the first bytes: distinct seeds are distinct blobs.
func blob(seed, size int) ([]byte, extent.Hash) {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(seed*31 + i)
	}
	copy(data, binary.LittleEndian.AppendUint64(nil, uint64(seed)))
	return data, sha256.Sum256(data)
}

// put stores a blob, wrapping it as a chunk the way the archive does.
func put(t *testing.T, s *Store, data []byte, h extent.Hash) bool {
	t.Helper()
	c := extent.WrapChunk(append([]byte(nil), data...), h)
	wrote, err := s.Put(h, c)
	c.ReleaseChunk()
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	return wrote
}

func get(t *testing.T, s *Store, h extent.Hash) []byte {
	t.Helper()
	c, err := s.Get(h)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	data := append([]byte(nil), c.Data()...)
	c.ReleaseChunk()
	return data
}

// TestOpenRequiresDir: a store has one mode, on a directory.
func TestOpenRequiresDir(t *testing.T) {
	if s, err := Open(Config{}); err == nil {
		s.Close()
		t.Fatal("a store opened without a directory")
	}
}

// TestClosedStoreRefusesWrites: a write that races Close or Crash — the
// archive put of a close on a server being killed — fails, and opens no pack in a
// directory the store has let go of (a successor may own it, or it is being
// removed).
func TestClosedStoreRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Crash()
	data, h := blob(1, 100)
	if _, err := s.PutBytes(h, data); err == nil {
		t.Fatal("a crashed store accepted a write")
	}
	if packs, _ := filepath.Glob(filepath.Join(dir, "pack-*.pk")); len(packs) != 0 {
		t.Fatalf("a write after the crash opened %v", packs)
	}
}

func TestDiskSpillPageInAndVerify(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	blobs := make(map[int]extent.Hash)
	for i := 0; i < n; i++ {
		data, h := blob(i, 4096+i)
		blobs[i] = h
		put(t, s, data, h)
	}
	st := s.Stats()
	if st.Spills != n || st.DiskBlobs != n {
		t.Fatalf("spills=%d disk=%d, want %d", st.Spills, st.DiskBlobs, n)
	}
	for i := 0; i < n; i++ {
		data, _ := blob(i, 4096+i)
		if got := get(t, s, blobs[i]); !bytes.Equal(got, data) {
			t.Fatalf("blob %d diverged after page-in", i)
		}
	}
	if st := s.Stats(); st.PageIns != n {
		t.Fatalf("pageIns=%d, want %d", st.PageIns, n)
	}

	// Corrupt a blob's record on disk: Get must refuse it, not return bad data.
	h := blobs[7]
	overwriteRecord(t, s, h, []byte("corrupted"))
	if _, err := s.Get(h); err == nil {
		t.Fatal("corrupted blob served without error")
	}
}

// indexed returns where the store's index says h lies on disk.
func indexed(t *testing.T, s *Store, h extent.Hash) diskMeta {
	t.Helper()
	sh := s.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b, ok := sh.blobs[h]
	if !ok {
		t.Fatalf("blob %x not indexed", h[:8])
	}
	return b.diskMeta
}

// overwriteRecord writes junk over the start of h's pack record payload, at
// the offset the index holds.
func overwriteRecord(t *testing.T, s *Store, h extent.Hash, junk []byte) {
	t.Helper()
	meta := indexed(t, s, h)
	if int64(len(junk)) > meta.size {
		t.Fatalf("%d bytes of junk over a %d-byte record", len(junk), meta.size)
	}
	f, err := os.OpenFile(s.packs.files.Path(uint64(meta.pack)), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(junk, meta.off); err != nil {
		t.Fatal(err)
	}
}

// TestHandedOutChunkNeverChanges: a chunk the store hands out — Get's read
// into a chunk of its own — never changes, even once the store and the
// original file let go of it: a buffer restored from the same blob (installed
// from a source over the store, as a rollback installs a held version) reads
// it into a chunk of its own and writes that.
func TestHandedOutChunkNeverChanges(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data, h := blob(7, extent.ChunkSize)
	var live extent.Buffer
	live.WriteAt(0, data)
	snap := live.Snapshot()
	if _, err := s.Put(h, snap.Chunks()[0]); err != nil {
		t.Fatal(err)
	}
	snap.Release()
	c, err := s.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	defer c.ReleaseChunk()
	var b extent.Buffer
	b.Install(blobSource{s, h})
	if _, err := b.LoadRange(0, b.Len()); err != nil {
		t.Fatal(err)
	}
	s.Release(h)
	live.Truncate(0)
	held := c.Data()
	b.WriteAt(0, []byte{^data[0]})
	if held[0] != data[0] {
		t.Fatal("a chunk the store handed out was written in place")
	}
	if got := b.Bytes(); got[0] != ^data[0] || !bytes.Equal(got[1:], data[1:]) {
		t.Fatal("the restored buffer lost the write")
	}
	b.Truncate(0)
}

// blobSource is a one-chunk source over a blob of the store.
type blobSource struct {
	s *Store
	h extent.Hash
}

func (b blobSource) Size() int64 { return extent.ChunkSize }

func (b blobSource) ReadSlot(_ int, dst []byte) error {
	_, err := b.s.ReadInto(b.h, dst)
	return err
}

func (blobSource) ReadTail([]byte) error { return nil }
func (blobSource) Retain()               {}
func (blobSource) Release()              {}

func TestSweepFreesDeadAndSparesLive(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	dataA, hA := blob(100, 2048)
	dataB, hB := blob(101, 2048)
	put(t, s, dataA, hA)
	put(t, s, dataB, hB)
	s.Release(hA)
	if st := s.Stats(); st.DeadBlobs != 1 {
		t.Fatalf("dead=%d, want 1", st.DeadBlobs)
	}
	if freed := s.Sweep(); freed != 1 {
		t.Fatalf("swept %d, want 1", freed)
	}
	st := s.Stats()
	if st.DiskBlobs != 1 || st.GCFreed != 1 || st.DeadBlobs != 0 {
		t.Fatalf("after sweep: %+v", st)
	}
	if _, err := s.Get(hA); err == nil {
		t.Fatal("swept blob still served")
	}
	if got := get(t, s, hB); !bytes.Equal(got, dataB) {
		t.Fatal("live blob damaged by sweep")
	}

	// Revive: drop B, re-put the same content before the sweep — no device
	// transfer, and the next sweep must NOT delete it.
	s.Release(hB)
	if wrote := put(t, s, dataB, hB); wrote {
		t.Fatal("revived blob reported a device transfer")
	}
	if freed := s.Sweep(); freed != 0 {
		t.Fatalf("sweep freed %d revived blobs", freed)
	}
	if got := get(t, s, hB); !bytes.Equal(got, dataB) {
		t.Fatal("revived blob lost")
	}
}

func TestAdoptExistingDirAsDead(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	data, h := blob(5, 3000)
	put(t, s1, data, h)
	s1.Close() // the dir has a single owner at a time

	// A new store over the same directory adopts the blob as dead...
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.DiskBlobs != 1 || st.DeadBlobs != 1 {
		t.Fatalf("adopted: %+v", st)
	}
	// ...and a re-put revives it without rewriting.
	if wrote := put(t, s2, data, h); wrote {
		t.Fatal("adopted blob rewritten")
	}
	if freed := s2.Sweep(); freed != 0 {
		t.Fatalf("sweep freed %d adopted+revived blobs", freed)
	}
	if got := get(t, s2, h); !bytes.Equal(got, data) {
		t.Fatal("adopted blob unreadable")
	}
	s2.Close()

	// A third store sweeps the (again unreferenced) blob away.
	s3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if freed := s3.Sweep(); freed != 1 {
		t.Fatalf("swept %d orphans, want 1", freed)
	}
}

// TestClaimRepinsAdoptedBlobs: Ref turns an adopted-as-dead blob back into
// referenced content with zero I/O; blobs nothing Refs still sweep.
func TestClaimRepinsAdoptedBlobs(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	dataA, hA := blob(40, 2000)
	dataB, hB := blob(41, 2000)
	put(t, s1, dataA, hA)
	put(t, s1, dataB, hB)
	s1.Close()

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Ref(hA) {
		t.Fatal("claim of an adopted blob failed")
	}
	var missing extent.Hash
	missing[0] = 0xFF
	if s2.Ref(missing) {
		t.Fatal("claim of a never-stored blob succeeded")
	}
	if st := s2.Stats(); st.DeadBlobs != 1 {
		t.Fatalf("dead after claim = %d, want just the unclaimed blob", st.DeadBlobs)
	}
	if freed := s2.Sweep(); freed != 1 {
		t.Fatalf("swept %d, want only the unclaimed blob", freed)
	}
	if got := get(t, s2, hA); !bytes.Equal(got, dataA) {
		t.Fatal("claimed blob unreadable")
	}
	if _, err := s2.Get(hB); err == nil {
		t.Fatal("unclaimed blob survived the sweep")
	}
	// A second reference on the same blob is granted too.
	if !s2.Ref(hA) {
		t.Fatal("second claim failed")
	}
}

// diskFiles counts files in the two-hex-digit fan-out an older store kept
// loose blobs in.
func diskFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	subs, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, sub.Name()))
		if err != nil {
			t.Fatal(err)
		}
		n += len(files)
	}
	return n
}

// dirImage is every file under dir, by path relative to it, with its bytes;
// a directory maps to nil.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	img := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			img[rel] = nil
			return nil
		}
		img[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// crashedPack leaves in dir a pack a crashed store was appending to, torn
// mid-record: an open that got as far as repairing it would cut its tail to
// pack-00000001.pk.torn and seal it.
func crashedPack(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		data, h := blob(60+i, 700)
		put(t, s, data, h)
	}
	s.Crash()
	path := filepath.Join(dir, "pack-00000001.pk")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-100); err != nil {
		t.Fatal(err)
	}
}

// retire rewrites the record rec into the retired compressed form under a
// matching CRC, as an earlier store that compressed it would have left it.
func retire(rec []byte) {
	rec[44] = packFlagCompressed
	binary.LittleEndian.PutUint32(rec[4:8], uint32(2*len(rec))) // the length it inflates to
	binary.LittleEndian.PutUint32(rec[8:12], recordCRC(rec))
}

// retireRecord retires record i of the pack at path, in its footer too when
// the pack has one.
func retireRecord(t *testing.T, path string, i int) {
	t.Helper()
	pack, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fr footerReader
	body, footered := fr.read(bytes.NewReader(pack), int64(len(pack)))
	off := int64(len(packMagic))
	for j := 0; j < i; j++ {
		off += recordLen(pack[off:])
	}
	rec := pack[off : off+recordLen(pack[off:])]
	retire(rec)
	if footered {
		entry := pack[body+int64(i)*footerEntryLen:]
		entry[48] = packFlagCompressed
		copy(entry[44:48], rec[4:8])
		resealFooter(pack[body:])
	}
	if err := os.WriteFile(path, pack, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredFormFailsTheOpen: a directory holding a blob in a form earlier
// stores wrote — a fan-out dir of loose blobs, a scanned pack's record
// flagged compressed, a footer entry flagged compressed — fails the open with
// the RetiredFormError naming the file. The open changes nothing: the flagged
// record is not cut away as a torn tail, and the crashed pack before it is
// not repaired, though an open of a directory without the retired form
// would repair it.
func TestRetiredFormFailsTheOpen(t *testing.T) {
	for _, c := range []struct {
		name   string
		retire func(t *testing.T, dir string) string // returns the file to name
	}{
		{"loose blobs", func(t *testing.T, dir string) string {
			data, h := blob(2, 500)
			hx := hex.EncodeToString(h[:])
			if err := os.MkdirAll(filepath.Join(dir, hx[:2]), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, hx[:2], hx[2:]), data, 0o644); err != nil {
				t.Fatal(err)
			}
			return filepath.Join(dir, hx[:2])
		}},
		{"a scanned pack's record", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "pack-00000002.pk")
			var pack []byte
			pack = append(pack, packMagic[:]...)
			for i := 0; i < 3; i++ {
				data, h := blob(50+i, 400)
				pack = append(pack, frameRecord(h, data)...)
			}
			if err := os.WriteFile(path, pack, 0o644); err != nil {
				t.Fatal(err)
			}
			retireRecord(t, path, 1)
			return path
		}},
		{"a footer entry", func(t *testing.T, dir string) string {
			full, _, _, _ := sealedPack(t, 3)
			path := filepath.Join(dir, "pack-00000002.pk")
			if err := os.WriteFile(path, full, 0o644); err != nil {
				t.Fatal(err)
			}
			retireRecord(t, path, 2)
			return path
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			crashedPack(t, dir)
			want := c.retire(t, dir)
			before := dirImage(t, dir)
			s, err := Open(Config{Dir: dir})
			var rf *RetiredFormError
			if !errors.As(err, &rf) || rf.Path != want {
				if err == nil {
					s.Close()
				}
				t.Fatalf("open = %v, want the retired form in %s", err, want)
			}
			if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("the refused open changed the directory: %d entries before, %d after", len(before), len(after))
			}
			// The lock went with the refusal, and the directory is otherwise
			// fine: without the retired form it opens and the crashed pack is
			// repaired.
			if err := os.RemoveAll(want); err != nil {
				t.Fatal(err)
			}
			s, err = Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if st := s.Stats(); st.PackTornBytes == 0 {
				t.Fatalf("the crashed pack was not repaired: %+v", st)
			}
		})
	}
}

// TestConcurrentChurn hammers put/get/release/sweep from many goroutines; run
// under -race this shakes out locking bugs in the reference counts and the
// sweep.
func TestConcurrentChurn(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Shared blobs (overlapping seeds) collect one reference per
				// put and are never released; private blobs give theirs back.
				data, h := blob((w+i)%12, 2048)
				put(t, s, data, h)
				if got := get(t, s, h); !bytes.Equal(got, data) {
					t.Errorf("worker %d: blob diverged", w)
					return
				}
				priv, ph := blob(1000+w*100+i, 1024)
				put(t, s, priv, ph)
				if got := get(t, s, ph); !bytes.Equal(got, priv) {
					t.Errorf("worker %d: private blob diverged", w)
					return
				}
				if i%5 == 4 {
					s.Release(ph)
				}
				if i%11 == 10 {
					s.Sweep()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPutBytesKeepsNoAlias: PutBytes stores bytes its caller overwrites as
// soon as it returns — a patch cut out of a live chunk. The store serves what
// was put, through Get and ReadInto.
func TestPutBytesKeepsNoAlias(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data, h := blob(3, 4096)
	live := append([]byte(nil), data...)
	if wrote, err := s.PutBytes(h, live); err != nil || !wrote {
		t.Fatalf("PutBytes = %v, %v", wrote, err)
	}
	for i := range live {
		live[i] ^= 0xff
	}
	if got := get(t, s, h); !bytes.Equal(got, data) {
		t.Fatal("the blob changed with the caller's bytes")
	}
	buf := make([]byte, 2*len(data))
	if n, err := s.ReadInto(h, buf); err != nil || !bytes.Equal(buf[:n], data) {
		t.Fatalf("ReadInto = %d, %v", n, err)
	}
	if _, err := s.ReadInto(h, buf[:len(data)-1]); err == nil {
		t.Fatal("ReadInto into a short buffer succeeded")
	}
	s.Release(h)
	s.Sweep()
	if wrote, err := s.PutBytes(h, data); err != nil || !wrote {
		t.Fatalf("re-put after a sweep = %v, %v", wrote, err)
	}
}

// TestReadForTransferReadsTheBlob: a transfer read returns a blob's bytes
// from the device, and refuses a buffer without room for the record's
// framing.
func TestReadForTransferReadsTheBlob(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := bytes.Repeat([]byte("transfer "), extent.ChunkSize/16)
	h := extent.Hash(sha256.Sum256(data))
	if _, err := s.PutBytes(h, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadForTransfer(h, make([]byte, len(data)+RecordOverhead))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("transfer read: %v", err)
	}
	if _, err := s.ReadForTransfer(h, make([]byte, len(data))); err == nil {
		t.Fatal("a transfer read into a buffer without room for the framing succeeded")
	}
}
