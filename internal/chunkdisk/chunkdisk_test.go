package chunkdisk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"datalinks/internal/extent"
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

func TestMemoryModeRoundTrip(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, h := blob(1, 1000)
	if !put(t, s, data, h) {
		t.Fatal("first put reported no store")
	}
	if got := get(t, s, h); !bytes.Equal(got, data) {
		t.Fatal("round trip diverged")
	}
	st := s.Stats()
	if st.Spills != 0 || st.DiskBlobs != 0 {
		t.Fatalf("memory mode touched disk: %+v", st)
	}
	// The last Release frees immediately in memory mode.
	s.Release(h)
	if st := s.Stats(); st.ResidentBlobs != 0 {
		t.Fatalf("resident after drop: %+v", st)
	}
	if _, err := s.Get(h); err == nil {
		t.Fatal("get after drop succeeded")
	}
}

func TestDiskSpillPageInAndVerify(t *testing.T) {
	dir := t.TempDir()
	// Budget of 16 bytes = 1 per shard: everything evicts after write.
	// Packing disabled: this test corrupts a LOOSE blob file by path.
	s, err := Open(Config{Dir: dir, MemoryBudget: 16, PackThreshold: -1})
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
	if st.ResidentBlobs != 0 {
		t.Fatalf("resident=%d with 1-byte shard budget", st.ResidentBlobs)
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

	// Corrupt a blob file on disk: Get must refuse it, not return bad data.
	h := blobs[7]
	hx := fmt.Sprintf("%x", h[:])
	path := filepath.Join(dir, hx[:2], hx[2:])
	if err := os.WriteFile(path, []byte("corrupted"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(h); err == nil {
		t.Fatal("corrupted blob served without error")
	}
}

func TestLRUKeepsHotBlobsResident(t *testing.T) {
	// All blobs share one shard? No — hashes spread; use a budget that holds
	// roughly half the blobs and verify hot ones survive eviction.
	s, err := Open(Config{Dir: t.TempDir(), MemoryBudget: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var hashes []extent.Hash
	for i := 0; i < 64; i++ {
		data, h := blob(i, 1024)
		hashes = append(hashes, h)
		put(t, s, data, h)
	}
	st := s.Stats()
	if st.ResidentBytes > 64<<10 {
		t.Fatalf("resident %d exceeds budget", st.ResidentBytes)
	}
	if st.Evictions == 0 {
		// 64 KiB of blobs against a 4 KiB per-shard budget must evict.
		t.Fatalf("no evictions: %+v", st)
	}
	// Every blob still readable (memory or page-in).
	for i, h := range hashes {
		data, _ := blob(i, 1024)
		if got := get(t, s, h); !bytes.Equal(got, data) {
			t.Fatalf("blob %d lost", i)
		}
	}
}

func TestSweepFreesDeadAndSparesLive(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), MemoryBudget: 16})
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
	s1, err := Open(Config{Dir: dir, MemoryBudget: 16})
	if err != nil {
		t.Fatal(err)
	}
	data, h := blob(5, 3000)
	put(t, s1, data, h)
	s1.Close() // the dir has a single owner at a time

	// A new store over the same directory adopts the blob as dead...
	s2, err := Open(Config{Dir: dir, MemoryBudget: 16})
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
	s3, err := Open(Config{Dir: dir, MemoryBudget: 16})
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
	s1, err := Open(Config{Dir: dir, MemoryBudget: 16})
	if err != nil {
		t.Fatal(err)
	}
	dataA, hA := blob(40, 2000)
	dataB, hB := blob(41, 2000)
	put(t, s1, dataA, hA)
	put(t, s1, dataB, hB)
	s1.Close()

	s2, err := Open(Config{Dir: dir, MemoryBudget: 16})
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
// (".z", physical < logical), incompressible blobs stay raw, and both page
// back in byte-identical with the hash check on uncompressed bytes.
func TestCompressRoundTripAndStats(t *testing.T) {
	dir := t.TempDir()
	// Loose layout under test (the ".z" naming); packs off.
	s, err := Open(Config{Dir: dir, MemoryBudget: 16, Compress: true, PackThreshold: -1})
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
	hx := fmt.Sprintf("%x", zh[:])
	if _, err := os.Stat(filepath.Join(dir, hx[:2], hx[2:]+".z")); err != nil {
		t.Fatalf("compressible blob not stored as .z: %v", err)
	}
	rx := fmt.Sprintf("%x", rh[:])
	if _, err := os.Stat(filepath.Join(dir, rx[:2], rx[2:])); err != nil {
		t.Fatalf("incompressible blob not stored raw: %v", err)
	}
	if got := get(t, s, zh); !bytes.Equal(got, zdata) {
		t.Fatal("compressed blob diverged after page-in")
	}
	if got := get(t, s, extent.Hash(rh)); !bytes.Equal(got, raw) {
		t.Fatal("raw blob diverged after page-in")
	}

	// A corrupted .z file must fail the (uncompressed) hash check or the
	// decoder, never serve bad bytes.
	if err := os.WriteFile(filepath.Join(dir, hx[:2], hx[2:]+".z"), deflate([]byte("junk")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(zh); err == nil {
		t.Fatal("corrupted compressed blob served")
	}
}

// TestCompressAdoptAndMixedMode: a store without Compress reads ".z" blobs an
// earlier store left, and vice versa; sweep removes the right file either way.
func TestCompressAdoptAndMixedMode(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir, MemoryBudget: 16, Compress: true, PackThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	zdata, zh := compressible(9, 16<<10)
	put(t, s1, zdata, zh)
	s1.Close()

	// Uncompressed store adopts and serves the .z blob.
	s2, err := Open(Config{Dir: dir, MemoryBudget: 16, PackThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Ref(zh) {
		t.Fatal("claim of adopted .z blob failed")
	}
	if got := get(t, s2, zh); !bytes.Equal(got, zdata) {
		t.Fatal("adopted .z blob diverged")
	}
	// New blobs from this store are raw; both sweep cleanly.
	data, h := blob(77, 4096)
	put(t, s2, data, h)
	s2.Release(zh)
	s2.Release(h)
	if freed := s2.Sweep(); freed != 2 {
		t.Fatalf("swept %d files, want 2 (one .z, one raw)", freed)
	}
	if n := diskFiles(t, dir); n != 0 {
		t.Fatalf("%d blob files left after mixed-mode sweep", n)
	}
}

// diskFiles counts files in the two-hex-digit fan-out.
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

// TestConcurrentChurn hammers put/get/release/sweep from many goroutines; run
// under -race this shakes out locking bugs in the LRU and sweep claim logic.
func TestConcurrentChurn(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), MemoryBudget: 8 << 10})
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
