package archive

import (
	"bytes"
	"math/rand"
	"testing"

	"datalinks/internal/extent"
)

// TestHoldOutlivesDropTruncateAndCompaction: a Held version keeps its bytes
// loadable, byte-identical, through everything that frees a version's blobs —
// a Drop of its history, a TruncateAfter past it, and the sweep and pack
// compaction that follow — and gives them back on Release, once: then they
// reach a count of zero and are reclaimed like any dropped version's.
func TestHoldOutlivesDropTruncateAndCompaction(t *testing.T) {
	s, err := NewTiered(0, nil, TierConfig{Dir: t.TempDir(), packTargetBytes: 192 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(36))
	put := func(path string, v int, snap *extent.Snapshot) {
		t.Helper()
		if _, err := s.PutSnapshot("fs1", path, Version(v), uint64(v+1), snap); err != nil {
			t.Fatal(err)
		}
		snap.Release()
	}

	// /a: an edit stream of captures, so its newest version is a chain of
	// patches over packed bases. /c: whole versions. /filler: fresh chunks
	// interleaved with both, all dropped below, so every sealed pack ends up
	// mostly garbage and is compacted around the held blobs.
	var a extent.Buffer
	content := make([]byte, 2*extent.ChunkSize+5000)
	rng.Read(content)
	a.WriteAt(0, content)
	var cWant [][]byte
	for v := 0; v < 8; v++ {
		if v > 0 {
			edit := make([]byte, 512)
			rng.Read(edit)
			a.WriteAt(int64(rng.Intn(len(content)-len(edit))), edit)
		}
		put("/a", v, a.Capture())
		c := make([]byte, extent.ChunkSize+700)
		rng.Read(c)
		cWant = append(cWant, c)
		put("/c", v, extent.FromBytes(c))
		filler := make([]byte, extent.ChunkSize)
		rng.Read(filler)
		put("/filler", v, extent.FromBytes(filler))
	}
	aWant := a.Bytes()

	hold := func(path string, v Version) *Held {
		t.Helper()
		e, err := s.Get("fs1", path, v)
		if err != nil {
			t.Fatal(err)
		}
		h, err := e.Hold()
		if err != nil {
			t.Fatal(err)
		}
		if h.Size() != e.Size {
			t.Fatalf("held size %d, entry size %d", h.Size(), e.Size)
		}
		return h
	}
	load := func(h *Held, want []byte, when string) {
		t.Helper()
		snap, err := h.Load()
		if err != nil {
			t.Fatalf("%s: load: %v", when, err)
		}
		defer snap.Release()
		if got := snap.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("%s: held bytes diverged (%d bytes, want %d)", when, len(got), len(want))
		}
	}
	ha, ha2 := hold("/a", 7), hold("/a", 7)
	hc := hold("/c", 5)
	patched := false
	for _, r := range ha.slots {
		patched = patched || len(r.patches) > 0
	}
	if !patched {
		t.Fatal("the held version of /a has no patches: the test does not cover patch chains")
	}

	if err := s.Drop("fs1", "/a"); err != nil {
		t.Fatal(err)
	}
	if err := s.TruncateAfter("fs1", "/c", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop("fs1", "/filler"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("fs1", "/a", 7); err == nil {
		t.Fatal("a dropped version is still indexed")
	}
	if s.GCNow() == 0 {
		t.Fatal("the drops left nothing to sweep")
	}
	if s.Tier().PackCompactions == 0 {
		t.Fatal("no pack was compacted: the test does not cover relocation")
	}
	load(ha, aWant, "after drop, truncate and compaction")
	load(hc, cWant[5], "after truncate and compaction")

	// Release twice: the second is a no-op, so the other hold of the same
	// version still finds every blob after a sweep.
	ha.Release()
	ha.Release()
	s.GCNow()
	load(ha2, aWant, "after the other hold's double release")
	if _, err := ha.Load(); err == nil {
		t.Fatal("a released hold loaded")
	}

	// Once the last holds go, everything is garbage and the sweep reclaims
	// it: nothing a hold took outlives it.
	ha2.Release()
	hc.Release()
	if err := s.Drop("fs1", "/c"); err != nil {
		t.Fatal(err)
	}
	if s.GCNow() == 0 {
		t.Fatal("released holds left nothing to sweep")
	}
	if st := s.Tier(); st.DiskBlobs != 0 || st.DeadBlobs != 0 {
		t.Fatalf("blobs survive their last release: %+v", st)
	}
}
