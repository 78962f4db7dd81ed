package chunkdisk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"datalinks/internal/extent"
	"datalinks/internal/seglog"
)

// blob builds a deterministic test blob and its hash. The body cycles every
// 256 bytes (compressible, which the flate tests rely on) and depends only
// on seed mod 256, so the whole seed is stamped over the first bytes:
// distinct seeds are distinct blobs.
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

// TestResidentChunksArePinned: a chunk the store hands out — Get's read into
// a chunk of its own — never changes, even once the store and the original
// file let go of it: a buffer restored from the same blob (installed from a
// source over the store, as a rollback installs a held version) reads it
// into a chunk of its own and writes that.
func TestResidentChunksArePinned(t *testing.T) {
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

// compressible builds a low-entropy blob (long runs) and its hash.
func compressible(seed, size int) ([]byte, extent.Hash) {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(seed + i/512)
	}
	return data, sha256.Sum256(data)
}

// TestCompressRoundTripAndStats: compressible blobs are stored flate-encoded
// (physical < logical), incompressible blobs stay raw, and both page back in
// byte-identical with the hash check on uncompressed bytes.
func TestCompressRoundTripAndStats(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	zdata, zh := compressible(3, 32<<10)
	put(t, s, zdata, zh)
	// blob() output (byte(seed*31+i)) cycles every 256 bytes — flate still
	// shrinks it — so build truly incompressible bytes from a hash chain.
	raw := make([]byte, 8<<10)
	sum := sha256.Sum256([]byte("entropy"))
	for i := 0; i < len(raw); i += len(sum) {
		copy(raw[i:], sum[:])
		sum = sha256.Sum256(sum[:])
	}
	rh := sha256.Sum256(raw)
	put(t, s, raw, extent.Hash(rh))

	st := s.Stats()
	if st.DiskLogicalBytes != int64(len(zdata)+len(raw)) {
		t.Fatalf("logical bytes = %d, want %d", st.DiskLogicalBytes, len(zdata)+len(raw))
	}
	if st.DiskBytes >= st.DiskLogicalBytes {
		t.Fatalf("no compression win: %d physical vs %d logical", st.DiskBytes, st.DiskLogicalBytes)
	}
	if meta := indexed(t, s, zh); !meta.compressed || meta.size >= meta.logical {
		t.Fatalf("compressible blob not stored compressed: %+v", meta)
	}
	if meta := indexed(t, s, rh); meta.compressed || meta.size != int64(len(raw)) {
		t.Fatalf("incompressible blob not stored raw: %+v", meta)
	}
	if got := get(t, s, zh); !bytes.Equal(got, zdata) {
		t.Fatal("compressed blob diverged after page-in")
	}
	if got := get(t, s, extent.Hash(rh)); !bytes.Equal(got, raw) {
		t.Fatal("raw blob diverged after page-in")
	}

	// A corrupted compressed record must fail the (uncompressed) hash check
	// or the decoder, never serve bad bytes.
	overwriteRecord(t, s, zh, deflate([]byte("junk")))
	if _, err := s.Get(zh); err == nil {
		t.Fatal("corrupted compressed blob served")
	}
}

// TestCompressAdoptAndMixedMode: a store without Compress reads compressed
// records an earlier store left, and vice versa; sweep retires both kinds.
func TestCompressAdoptAndMixedMode(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	zdata, zh := compressible(9, 16<<10)
	put(t, s1, zdata, zh)
	s1.Close()

	// Uncompressed store adopts and serves the compressed blob.
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Ref(zh) {
		t.Fatal("claim of adopted compressed blob failed")
	}
	if got := get(t, s2, zh); !bytes.Equal(got, zdata) {
		t.Fatal("adopted compressed blob diverged")
	}
	// New blobs from this store are raw; both sweep cleanly.
	data, h := blob(77, 4096)
	put(t, s2, data, h)
	if indexed(t, s2, h).compressed {
		t.Fatal("a store without Compress compressed a blob")
	}
	s2.Release(zh)
	s2.Release(h)
	if freed := s2.Sweep(); freed != 2 {
		t.Fatalf("swept %d blobs, want 2 (one compressed, one raw)", freed)
	}
	if st := s2.Stats(); st.DiskBlobs != 0 || st.DiskBytes != 0 || st.DiskLogicalBytes != 0 {
		t.Fatalf("blobs left after mixed-mode sweep: %+v", st)
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

// writeLoose leaves data where a store from before packfiles kept blob h —
// dir/ab/cdef…, ".z" when the data is flate-compressed — and returns the path.
func writeLoose(t *testing.T, dir string, h extent.Hash, data []byte, compressed bool) string {
	t.Helper()
	hx := hex.EncodeToString(h[:])
	path := filepath.Join(dir, hx[:2], hx[2:])
	if compressed {
		path += ".z"
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLooseBlobsMoveIntoAPack: a directory an older store left loose blobs in
// is converted when it is opened. A raw blob and a compressed one move into a
// pack with their bytes unchanged, a loose copy of a blob a pack holds is just
// removed, a stranded temp file goes, and a file whose content does not match
// its name stays where it is, unindexed. The second open has nothing to move.
func TestLooseBlobsMoveIntoAPack(t *testing.T) {
	dir := t.TempDir()
	packed, ph := blob(1, 3000)
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, packed, ph)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, rh := blob(2, 5000)
	zdata, zh := compressible(3, 8<<10)
	rawPath := writeLoose(t, dir, rh, raw, false)
	writeLoose(t, dir, zh, deflate(zdata), true)
	writeLoose(t, dir, ph, packed, false)
	if err := os.WriteFile(rawPath+seglog.TmpSuffix, raw[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	_, wrongH := blob(4, 100)
	wrong := writeLoose(t, dir, wrongH, []byte("not the bytes the name hashes to"), false)

	for i, appends := range []int64{2, 0} {
		open := i + 1
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("open %d: %v", open, err)
		}
		if st := s.Stats(); st.DiskBlobs != 3 || st.DeadBlobs != 3 || st.PackAppends != appends {
			t.Fatalf("open %d: %+v, want 3 blobs adopted dead and %d appends", open, st, appends)
		}
		for _, b := range []struct {
			data []byte
			h    extent.Hash
		}{{packed, ph}, {raw, rh}, {zdata, zh}} {
			if !s.Ref(b.h) {
				t.Fatalf("open %d: blob %x not adopted", open, b.h[:4])
			}
			if got := get(t, s, b.h); !bytes.Equal(got, b.data) {
				t.Fatalf("open %d: blob %x diverged", open, b.h[:4])
			}
		}
		if z := indexed(t, s, zh); !z.compressed || z.size != int64(len(deflate(zdata))) {
			t.Fatalf("open %d: the compressed blob was not packed as it lay: %+v", open, z)
		}
		if r := indexed(t, s, rh); r.compressed || r.size != int64(len(raw)) {
			t.Fatalf("open %d: the raw blob was not packed as it lay: %+v", open, r)
		}
		if s.Ref(wrongH) {
			t.Fatalf("open %d: a loose file that does not hash to its name was adopted", open)
		}
		if n := diskFiles(t, dir); n != 1 {
			t.Fatalf("open %d: %d files left in the fan-out, want the mismatched one", open, n)
		}
		if _, err := os.Stat(wrong); err != nil {
			t.Fatalf("open %d: the mismatched file is gone: %v", open, err)
		}
		if dirs, _ := filepath.Glob(filepath.Join(dir, "[0-9a-f][0-9a-f]")); len(dirs) != 1 {
			t.Fatalf("open %d: fan-out dirs %v, want only the mismatched file's", open, dirs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
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
// from the device, inflated when the store compressed it, and refuses a
// buffer without room for the record's framing either way.
func TestReadForTransferReadsTheBlob(t *testing.T) {
	for _, compress := range []bool{false, true} {
		s, err := Open(Config{Dir: t.TempDir(), Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte("transfer "), extent.ChunkSize/16)
		h := extent.Hash(sha256.Sum256(data))
		if _, err := s.PutBytes(h, data); err != nil {
			t.Fatal(err)
		}
		got, err := s.ReadForTransfer(h, make([]byte, len(data)+RecordOverhead))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("compress %v: transfer read: %v", compress, err)
		}
		if _, err := s.ReadForTransfer(h, make([]byte, len(data))); err == nil {
			t.Fatalf("compress %v: a transfer read into a buffer without room for the framing succeeded", compress)
		}
		s.Close()
	}
}
