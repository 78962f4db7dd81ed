package archive

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"datalinks/internal/extent"
)

func newTiered(t *testing.T, budget int64) *Store {
	t.Helper()
	s, err := NewTiered(0, nil, TierConfig{Dir: t.TempDir(), MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// diskBlobFiles counts blob files physically present under the store's dir
// (the two-hex-digit fan-out subdirectories; the catalog's own files at the
// root are not blobs).
func diskBlobFiles(t *testing.T, s *Store) int {
	t.Helper()
	n := 0
	subdirs, err := os.ReadDir(s.TierDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subdirs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.TierDir(), sub.Name()))
		if err != nil {
			t.Fatal(err)
		}
		n += len(files)
	}
	return n
}

// TestTieredDeltaChainAllVersionsRestorable: enough versions to cross
// several delta checkpoints, with single-chunk edits, grows and shrinks;
// every version must materialize back byte-identical, paging from disk.
func TestTieredDeltaChainAllVersionsRestorable(t *testing.T) {
	s := newTiered(t, 16) // evict everything: all reads are page-ins
	rng := rand.New(rand.NewSource(42))
	const C = extent.ChunkSize

	model := make([]byte, 4*C+1234)
	rng.Read(model)
	var versions [][]byte
	putVersion := func() {
		snap := extent.FromBytes(model)
		_, err := s.PutSnapshot("fs1", "/f", Version(len(versions)), uint64(len(versions)+1), snap)
		snap.Release()
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, append([]byte(nil), model...))
	}
	putVersion()
	for v := 1; v < 40; v++ {
		switch v % 9 {
		case 3: // grow
			grown := make([]byte, len(model)+C/2)
			copy(grown, model)
			rng.Read(grown[len(model):])
			model = grown
		case 6: // shrink
			model = model[:len(model)-C/3]
		default: // edit one chunk's worth
			off := rng.Intn(len(model))
			n := C / 4
			if off+n > len(model) {
				n = len(model) - off
			}
			rng.Read(model[off : off+n])
		}
		putVersion()
	}
	st := s.Tier()
	if st.Spills == 0 {
		t.Fatal("no spills with a 1-byte-per-shard budget")
	}
	for v := range versions {
		e, err := s.Get("fs1", "/f", Version(v))
		if err != nil {
			t.Fatalf("get v%d: %v", v, err)
		}
		if !bytes.Equal(bytesOf(t, e), versions[v]) {
			t.Fatalf("v%d diverged after page-in", v)
		}
	}
	if s.Tier().PageIns == 0 {
		t.Fatal("no page-ins reading back 40 evicted versions")
	}
	// Delta manifests: most versions must NOT be checkpoints. Count them.
	sh := s.shardFor(key("fs1", "/f"))
	sh.mu.Lock()
	fv := sh.entries[key("fs1", "/f")]
	full := 0
	for _, rec := range fv.recs {
		if rec.IsFull {
			full++
		}
	}
	total := len(fv.recs)
	sh.mu.Unlock()
	if full == total {
		t.Fatal("every version stored a full manifest; deltas never kicked in")
	}
	if full < total/checkpointEvery {
		t.Fatalf("only %d checkpoints for %d versions", full, total)
	}
}

// TestTieredSpillGCReturnsToBaseline: after unlink (Drop) and TruncateAfter
// churn plus a GC sweep, live extent chunks AND on-disk chunk files return
// to their baselines — nothing leaks in either tier.
func TestTieredSpillGCReturnsToBaseline(t *testing.T) {
	baseChunks, baseBytes := extent.Live()
	s := newTiered(t, 4*extent.ChunkSize)
	rng := rand.New(rand.NewSource(7))

	paths := []string{"/a.bin", "/b.bin", "/c.bin"}
	content := make([]byte, 3*extent.ChunkSize+500)
	for _, p := range paths {
		rng.Read(content)
		for v := 0; v < 10; v++ {
			edit := make([]byte, 2000)
			rng.Read(edit)
			copy(content[rng.Intn(len(content)-len(edit)):], edit)
			snap := extent.FromBytes(content)
			if _, err := s.PutSnapshot("fs1", p, Version(v), uint64(v+1), snap); err != nil {
				t.Fatal(err)
			}
			snap.Release()
		}
	}
	if diskBlobFiles(t, s) == 0 && s.Tier().PackAppends == 0 {
		t.Fatal("nothing on disk after 30 versions")
	}

	// Point-in-time truncate, then read a surviving version (page-in), then
	// drop everything.
	for _, p := range paths {
		s.TruncateAfter("fs1", p, 5)
		e, err := s.Latest("fs1", p)
		if err != nil {
			t.Fatal(err)
		}
		if bytesOf(t, e) == nil {
			t.Fatalf("surviving version of %s unreadable after truncate", p)
		}
	}
	for _, p := range paths {
		s.Drop("fs1", p)
	}

	// Memory returns to baseline immediately (LRU drops released blobs)...
	if c, b := extent.Live(); c != baseChunks || b != baseBytes {
		t.Fatalf("live chunks leaked: %d/%d bytes over baseline", c-baseChunks, b-baseBytes)
	}
	if st := s.Tier(); st.ResidentBytes != 0 {
		t.Fatalf("LRU still holds %d bytes after dropping every version", st.ResidentBytes)
	}
	// ...and the disk tier returns to baseline after GC.
	freed := s.GCNow()
	if freed == 0 {
		t.Fatal("GC freed nothing")
	}
	if n := diskBlobFiles(t, s); n != 0 {
		t.Fatalf("%d loose blob files survive GC with zero versions archived", n)
	}
	st := s.Tier()
	if st.DiskBlobs != 0 || st.DiskBytes != 0 || st.DeadBlobs != 0 {
		t.Fatalf("disk accounting off after GC: %+v", st)
	}
	// Pack-level reclamation: fully-dead sealed packs were compacted away;
	// at most the (unsealed) active pack file remains, holding only dead
	// space the next seal+sweep cycle reclaims.
	if st.PackFiles > 1 {
		t.Fatalf("%d pack files survive GC with zero versions archived", st.PackFiles)
	}
}

// TestEntryHandleInvalidAfterTruncateRefill: a handle to a version that was
// truncated away must error once a newer Put refills its slot — never serve
// the new version's bytes under the old version's metadata.
func TestEntryHandleInvalidAfterTruncateRefill(t *testing.T) {
	s := New(0, nil)
	for v := 1; v <= 3; v++ {
		if err := s.Put("fs1", "/f", Version(v), uint64(v), bytes.Repeat([]byte{byte(v)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	e, err := s.Latest("fs1", "/f") // v3, slot index 2
	if err != nil {
		t.Fatal(err)
	}
	s.TruncateAfter("fs1", "/f", 2) // drops v3
	if err := s.Put("fs1", "/f", 4, 4, bytes.Repeat([]byte{4}, 100)); err != nil {
		t.Fatal(err) // v4 refills slot index 2
	}
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("stale handle materialized another version's content")
	}
}

// TestTieredStaleAndReviveAccounting: a stale Put against the tiered store
// unwinds its disk references, and re-archiving content whose blobs are dead
// (but unswept) revives them without a device transfer.
func TestTieredStaleAndReviveAccounting(t *testing.T) {
	s := newTiered(t, 16)
	content := make([]byte, 2*extent.ChunkSize+100)
	for i := range content {
		content[i] = byte(i % 253)
	}
	if err := s.Put("fs1", "/f", 1, 10, content); err != nil {
		t.Fatal(err)
	}
	diskAfterV1 := s.Tier().DiskBlobs

	// Stale put of different content: rejected; its fresh blobs become dead
	// and the next sweep removes exactly those.
	other := bytes.Repeat([]byte{9}, len(content))
	if err := s.Put("fs1", "/f", 1, 20, other); err == nil {
		t.Fatal("stale put accepted")
	}
	s.GCNow()
	if got := s.Tier().DiskBlobs; got != diskAfterV1 {
		t.Fatalf("disk blobs after stale-put GC = %d, want %d", got, diskAfterV1)
	}

	// Drop the file, then re-archive identical content before the sweep:
	// every blob revives — zero new bytes travel to the device.
	s.Drop("fs1", "/f")
	newBefore := s.Dedup().NewBytes
	if err := s.Put("fs1", "/f", 1, 30, content); err != nil {
		t.Fatal(err)
	}
	if got := s.Dedup().NewBytes; got != newBefore {
		t.Fatalf("revive transferred %d bytes to the device", got-newBefore)
	}
	if freed := s.GCNow(); freed != 0 {
		t.Fatalf("GC freed %d revived blobs", freed)
	}
	e, err := s.Latest("fs1", "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytesOf(t, e), content) {
		t.Fatal("revived version unreadable")
	}
}
