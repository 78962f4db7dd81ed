package archive

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"datalinks/internal/extent"
	"datalinks/internal/metrics"
	"datalinks/internal/seglog"
)

// TestSmallCommitAllocBudget: 64 captured 4 KiB commits over a four-chunk
// file into a disk store. Every slot's patch chain reaches maxChain several
// times, so some commits store a chunk whole — written through from the live
// chunk, kept by nothing, so the file's next write to it lands in place
// rather than copying 64 KiB. After warm-up a commit, edit included, allocates
// at most 8 KiB; every version materializes byte-identical.
func TestSmallCommitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const (
		C       = extent.ChunkSize
		commits = 64
		warmUp  = 8
		budget  = 8 << 10
	)
	s, err := NewTiered(0, nil, TierConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	model := make([]byte, 4*C+1000)
	rng.Read(model)
	var buf extent.Buffer
	buf.WriteAt(0, model)
	versions := make([][]byte, commits)
	edit := make([]byte, 4<<10)
	var allocated uint64
	var before, after runtime.MemStats
	wholes := 0 // measured commits that stored a chunk whole
	for v := range versions {
		rng.Read(edit)
		off := int64(rng.Intn(len(model) - len(edit)))
		copy(model[off:], edit)
		runtime.ReadMemStats(&before)
		buf.WriteAt(off, edit)
		snap := buf.Capture()
		st, err := s.PutSnapshot("fs1", "/f", Version(v), uint64(v+1), snap)
		snap.Release()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		if v >= warmUp {
			allocated += after.TotalAlloc - before.TotalAlloc
			if st.NewBytes >= C {
				wholes++
			}
		}
		versions[v] = append([]byte(nil), model...)
	}
	if per := allocated / (commits - warmUp); per > budget {
		t.Errorf("a 4 KiB commit allocates %d bytes, budget %d", per, budget)
	}
	if wholes < 4 {
		t.Fatalf("only %d measured commits stored a chunk whole", wholes)
	}
	for v, want := range versions {
		e, err := s.Get("fs1", "/f", Version(v))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytesOf(t, e), want) {
			t.Fatalf("v%d does not materialize to the bytes committed", v)
		}
	}
}

// TestArchiverRacesInPlaceWrites: one goroutine archives every capture onto
// a disk store and a memory-only replica — hashing the chunks it stores whole,
// writing them through, keeping the replica's copies — while the writer goes
// on editing the file under a mutex, as fs's inode lock has it, in place
// wherever it may. Every version on both stores reads back as the model
// committed it; under -race, a write in place to a chunk an archiver still
// reads is a reported race.
func TestArchiverRacesInPlaceWrites(t *testing.T) {
	const (
		C       = extent.ChunkSize
		commits = 48
	)
	owner, err := NewTiered(0, nil, TierConfig{Dir: t.TempDir(), MemoryBudget: 2 * C})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	replica := New(0, nil)
	defer replica.Close()

	type capture struct {
		v    Version
		snap *extent.Snapshot
	}
	// The archiver may lag a few commits behind, as dlfm's archive jobs do,
	// so the writer edits chunks several held captures still share.
	captures := make(chan capture, 4)
	var archived sync.WaitGroup
	archived.Add(1)
	go func() {
		defer archived.Done()
		for c := range captures {
			for _, s := range []*Store{owner, replica} {
				if _, err := s.PutSnapshot("fs1", "/f", c.v, uint64(c.v+1), c.snap); err != nil {
					t.Errorf("v%d: %v", c.v, err)
				}
			}
			c.snap.Release()
		}
	}()

	rng := rand.New(rand.NewSource(2))
	model := make([]byte, 4*C+1000)
	rng.Read(model)
	var mu sync.Mutex
	var buf extent.Buffer
	buf.WriteAt(0, model)
	versions := make([][]byte, commits)
	for v := range versions {
		for edits := rng.Intn(4); edits >= 0; edits-- {
			n := 1 + rng.Intn(8<<10)
			if rng.Intn(8) == 0 {
				n = C
			}
			p := make([]byte, n)
			rng.Read(p)
			off := int64(rng.Intn(len(model) - n))
			copy(model[off:], p)
			mu.Lock()
			buf.WriteAt(off, p)
			mu.Unlock()
		}
		mu.Lock()
		snap := buf.Capture()
		mu.Unlock()
		versions[v] = append([]byte(nil), model...)
		captures <- capture{Version(v), snap}
	}
	close(captures)
	archived.Wait()
	if !bytes.Equal(buf.Bytes(), model) {
		t.Fatal("the live file diverged from the model")
	}
	for _, s := range []*Store{owner, replica} {
		for v, want := range versions {
			e, err := s.Get("fs1", "/f", Version(v))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bytesOf(t, e), want) {
				t.Fatalf("v%d does not materialize to the bytes committed", v)
			}
		}
	}
}

// TestTombstoneBarrierFailureIsReturned: a TruncateAfter or Drop whose
// tombstone barrier fails reports it — the dropped versions are gone from the
// index either way, and every reference they held is given back.
func TestTombstoneBarrierFailureIsReturned(t *testing.T) {
	s := newTiered(t, 0)
	injected := errors.New("injected barrier failure")
	for v := 0; v < 3; v++ {
		putBytes(t, s, "/f", Version(v), uint64(v+1), bytes.Repeat([]byte{byte(v + 1)}, extent.ChunkSize+100))
	}
	s.tombstoneSyncErr = func() error { return injected }
	if err := s.TruncateAfter("fs1", "/f", 1); !errors.Is(err, injected) {
		t.Fatalf("truncate after a failed barrier: %v, want the barrier's error", err)
	}
	if v, ok := s.Newest("fs1", "/f"); !ok || v != 0 {
		t.Fatalf("newest after truncate = %d, %v; want 0", v, ok)
	}
	if err := s.Drop("fs1", "/f"); !errors.Is(err, injected) {
		t.Fatalf("drop after a failed barrier: %v, want the barrier's error", err)
	}
	if _, ok := s.Newest("fs1", "/f"); ok {
		t.Fatal("the dropped history is still indexed")
	}
	s.tombstoneSyncErr = nil
	s.GCNow()
	if st := s.Tier(); st.DiskBlobs != 0 || st.DeadBlobs != 0 {
		t.Fatalf("references outlived the dropped versions: %+v", st)
	}
}

// TestCatalogCompactFailuresAreCounted: a catalog checkpoint that cannot be
// written fails no Put; it counts archive.catalog.compact_failures, and the
// next due checkpoint after the cause is gone goes through.
func TestCatalogCompactFailuresAreCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	dir := t.TempDir()
	s, err := NewTiered(0, nil, TierConfig{Dir: dir, CheckpointEvery: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A directory where the checkpoint's temp file goes fails every write of
	// it; a file inside keeps the writer's cleanup from removing it.
	block := filepath.Join(dir, "catalog.snap"+seglog.TmpSuffix)
	if err := os.MkdirAll(filepath.Join(block, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	failures := reg.Counter("archive.catalog.compact_failures")
	// Every version is a full record of 1024 slot hashes (zero chunks, one
	// blob): the log passes the checkpoint threshold within a few hundred.
	var buf extent.Buffer
	buf.Truncate(1024 * extent.ChunkSize)
	put := func(v Version) {
		snap := buf.Snapshot()
		defer snap.Release()
		if _, err := s.PutSnapshot("fs1", "/z", v, uint64(v+1), snap); err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
	}
	v := Version(0)
	for ; failures.Value() == 0 && v < 1000; v++ {
		put(v)
	}
	if failures.Value() == 0 {
		t.Fatal("no checkpoint failed")
	}
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	failed := failures.Value()
	put(v)
	if failures.Value() != failed || s.cat.LogSize() != 0 {
		t.Fatalf("the checkpoint after the cause went: %d failures (was %d), log %d bytes", failures.Value(), failed, s.cat.LogSize())
	}
}
