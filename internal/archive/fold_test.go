package archive

// Tests of the folded version index: the archive indexes the catalog's own
// records, so what a store serves must not depend on whether a record was
// built by a Put, imported, or decoded out of a block at open.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"datalinks/internal/extent"
)

// entryMeta is the part of an Entry that must survive a reopen (the rest
// binds the handle to one store).
type entryMeta struct {
	Server, Path string
	Version      Version
	StateID      uint64
	Size         int64
	StoredNanos  int64
	ContentSum   [sha256.Size]byte
}

func metaOf(t *testing.T, e Entry) entryMeta {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("%s v%d: %v", e.Path, e.Version, err)
	}
	defer snap.Release()
	return entryMeta{e.Server, e.Path, e.Version, e.StateID, e.Size, e.Stored.UnixNano(), sha256.Sum256(snap.Bytes())}
}

// storeView is everything a store says about a set of paths.
type storeView struct {
	Versions map[string][]entryMeta
	AsOf     map[string][]entryMeta // per path, indexed by state id; zero value = not found
	History  map[string][]HistoryRec
}

func viewOf(t *testing.T, s *Store, paths []string, maxState uint64) storeView {
	t.Helper()
	v := storeView{map[string][]entryMeta{}, map[string][]entryMeta{}, map[string][]HistoryRec{}}
	for _, p := range paths {
		for _, e := range s.Versions("fs1", p) {
			v.Versions[p] = append(v.Versions[p], metaOf(t, e))
		}
		for st := uint64(0); st <= maxState; st++ {
			var m entryMeta
			if e, err := s.AsOf("fs1", p, st); err == nil {
				m = metaOf(t, e)
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("asof %s@%d: %v", p, st, err)
			}
			v.AsOf[p] = append(v.AsOf[p], m)
		}
		v.History[p] = exportAll(t, s, "fs1", p)
	}
	return v
}

// TestFoldedIndexSurvivesReopen: deltas and checkpoints, a truncate, a drop
// and re-link of the same path, an imported history and an imported delta —
// Versions, AsOf at every state id, the exported history and every version's bytes
// are identical after a reopen, the recovery counts hold from one reopen to
// the next, and the second reopen does not rewrite the snapshot.
func TestFoldedIndexSurvivesReopen(t *testing.T) {
	const C = extent.ChunkSize
	for _, every := range []int{1, 4, 0} {
		t.Run(fmt.Sprintf("CheckpointEvery=%d", every), func(t *testing.T) {
			tier := TierConfig{Dir: t.TempDir(), MemoryBudget: 4 * C, CheckpointEvery: every}
			s, err := NewTiered(0, nil, tier)
			if err != nil {
				t.Fatal(err)
			}
			src := New(0, nil) // the other store of the imports
			state := uint64(0)
			content := func(seed, chunks, tail int) []byte {
				b := make([]byte, chunks*C+tail)
				for i := range b {
					b[i] = byte(seed + i/C)
				}
				return b
			}
			put := func(st *Store, path string, v Version, b []byte) {
				state++
				putBytes(t, st, path, v, state, b)
			}
			// /delta: one-chunk edits, a grow, a shrink, a tail-only change.
			model := content(1, 3, 100)
			for v := 0; v < 12; v++ {
				switch v % 6 {
				case 2:
					model = append(model, content(40+v, 1, 0)...)
				case 4:
					model = model[:len(model)-C/2]
				case 5:
					model[len(model)-1]++
				default:
					copy(model[(v%3)*C:], content(90+v, 1, 0))
				}
				put(s, "/delta", Version(v), model)
			}
			// /cut: truncated back to its third version.
			for v := 0; v < 6; v++ {
				put(s, "/cut", Version(v), content(10+v, 2, 7))
			}
			cutState := state - 3
			if err := s.TruncateAfter("fs1", "/cut", cutState); err != nil {
				t.Fatal(err)
			}
			// /relink: dropped, then linked again from version 0. A handle from
			// the first life must never resolve against the second.
			for v := 0; v < 3; v++ {
				put(s, "/relink", Version(v), content(20+v, 1, 1))
			}
			stale, err := s.Get("fs1", "/relink", 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Drop("fs1", "/relink"); err != nil {
				t.Fatal(err)
			}
			for v := 0; v < 2; v++ {
				put(s, "/relink", Version(v), content(30+v, 1, 2))
			}
			if _, err := stale.Snapshot(); !errors.Is(err, ErrNotFound) {
				t.Fatalf("stale handle from before the drop: err = %v, want ErrNotFound", err)
			}
			// /imported: a whole history, then a delta on top of it.
			for v := 0; v < 5; v++ {
				put(src, "/imported", Version(v), content(50+v, 2, 33))
			}
			if _, err := s.ImportDelta("fs1", "/imported", exportAll(t, src, "fs1", "/imported"), src.FetchBlob); err != nil {
				t.Fatal(err)
			}
			for v := 5; v < 8; v++ {
				put(src, "/imported", Version(v), content(50+v, 2, 33))
			}
			tail, err := src.ExportDelta("fs1", "/imported", 4)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.ImportDelta("fs1", "/imported", tail, src.FetchBlob); err != nil {
				t.Fatal(err)
			}

			paths := []string{"/delta", "/cut", "/relink", "/imported", "/never"}
			want := viewOf(t, s, paths, state+1)
			if got := len(want.Versions["/cut"]); got != 3 {
				t.Fatalf("/cut has %d versions after the truncate, want 3", got)
			}

			s2 := reopen(t, s, tier)
			if got := viewOf(t, s2, paths, state+1); !reflect.DeepEqual(got, want) {
				t.Fatalf("first reopen diverged:\n got %+v\nwant %+v", got, want)
			}
			if _, err := stale.Snapshot(); !errors.Is(err, ErrNotFound) {
				t.Fatalf("stale handle after a reopen: err = %v, want ErrNotFound", err)
			}
			rec := s2.Recovery()
			if rec.Files != 4 || rec.Versions != 12+3+2+8 || rec.DroppedVersions != 0 || rec.LogRecords == 0 {
				t.Fatalf("first reopen recovery = %+v", rec)
			}
			snapBefore, err := os.Stat(filepath.Join(tier.Dir, "catalog.snap"))
			if err != nil {
				t.Fatal(err)
			}
			s3 := reopen(t, s2, tier)
			if got := viewOf(t, s3, paths, state+1); !reflect.DeepEqual(got, want) {
				t.Fatalf("second reopen diverged:\n got %+v\nwant %+v", got, want)
			}
			rec3 := s3.Recovery()
			if rec3.Files != rec.Files || rec3.Versions != rec.Versions || rec3.DroppedVersions != 0 ||
				rec3.LogRecords != 0 || rec3.SnapshotRecords != rec.Versions {
				t.Fatalf("second reopen recovery = %+v (first %+v)", rec3, rec)
			}
			snapAfter, err := os.Stat(filepath.Join(tier.Dir, "catalog.snap"))
			if err != nil {
				t.Fatal(err)
			}
			if !os.SameFile(snapBefore, snapAfter) {
				t.Fatal("a clean snapshot-only open rewrote catalog.snap")
			}
		})
	}
}

// TestReplayRepairKeepsThePrefix: the blob only version k introduces is gone.
// The reopened history is versions 0..k-1, the next Put diffs against version
// k-1's hash list — not against the list the replay walk had advanced to the
// failing version — and the blobs only the dropped versions referenced stay
// dead for the sweep.
func TestReplayRepairKeepsThePrefix(t *testing.T) {
	const C = extent.ChunkSize
	const versions, k = 6, 3
	tier := TierConfig{Dir: t.TempDir(), MemoryBudget: 2 * C, PackThreshold: -1} // loose blobs: one file per hash
	s, err := NewTiered(0, nil, tier)
	if err != nil {
		t.Fatal(err)
	}
	unique := func(v int) []byte { return bytes.Repeat([]byte{byte(0x80 + v)}, C) }
	model := bytes.Repeat([]byte{1}, 3*C+9)
	var contents [][]byte
	for v := 0; v < versions; v++ {
		if v > 0 {
			copy(model[(v%3)*C:], unique(v)) // version v introduces exactly one blob
		}
		contents = append(contents, putBytes(t, s, "/f", Version(v), uint64(v+1), model))
	}
	s.Close()
	sum := sha256.Sum256(unique(k))
	hx := hex.EncodeToString(sum[:])
	if err := os.Remove(filepath.Join(tier.Dir, hx[:2], hx[2:])); err != nil {
		t.Fatal(err)
	}

	s2, err := NewTiered(0, nil, tier)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s2.Close() }()
	if rec := s2.Recovery(); rec.Versions != k || rec.DroppedVersions != versions-k {
		t.Fatalf("recovery = %+v, want %d served / %d dropped", rec, k, versions-k)
	}
	got := s2.Versions("fs1", "/f")
	if len(got) != k {
		t.Fatalf("%d versions after the repair, want %d", len(got), k)
	}
	for v, e := range got {
		if e.Version != Version(v) || !bytes.Equal(bytesOf(t, e), contents[v]) {
			t.Fatalf("version %d diverged after the repair", v)
		}
	}
	// Version k-1's bytes again: nothing changed, so the delta is empty. The
	// walk's own list had version k's hash in slot k%3.
	snap := extent.FromBytes(contents[k-1])
	st, err := s2.PutSnapshot("fs1", "/f", k, 100, snap)
	snap.Release()
	if err != nil {
		t.Fatal(err)
	}
	if st.DeltaChunks != 0 || st.NewChunks != 0 {
		t.Fatalf("re-archiving version %d's bytes after the repair: %+v, want an empty delta", k-1, st)
	}
	// Versions k+1.. introduced one blob each that nothing else references.
	if freed := s2.GCNow(); freed != versions-k-1 {
		t.Fatalf("sweep freed %d blobs, want the %d only the dropped versions held", freed, versions-k-1)
	}
	s3 := reopen(t, s2, tier)
	s2 = s3
	if rec := s3.Recovery(); rec.Versions != k+1 || rec.DroppedVersions != 0 {
		t.Fatalf("recovery after the repaired store's own restart = %+v", rec)
	}
	e, err := s3.Latest("fs1", "/f")
	if err != nil || e.Version != k || !bytes.Equal(bytesOf(t, e), contents[k-1]) {
		t.Fatalf("latest after repair + put + restart: v%d, %v", e.Version, err)
	}
}

// TestMaterializedTailIsTheSnapshotsOwn: BuildSnapshot takes the paged-in
// tail blob's bytes instead of copying them. The snapshot must keep the
// archived bytes after the source chunk is released and evicted, and after a
// buffer restored from it is overwritten.
func TestMaterializedTailIsTheSnapshotsOwn(t *testing.T) {
	const C = extent.ChunkSize
	s := newTiered(t, 16) // evict everything
	want := append(bytes.Repeat([]byte{7}, C), bytes.Repeat([]byte{9}, 1000)...)
	putBytes(t, s, "/f", 0, 1, want)
	e, err := s.Latest("fs1", "/f")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot() // releases the tail chunk it paged in
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	before := s.Tier().Evictions
	for v := 1; v <= 8; v++ { // push the tail blob out of the LRU
		putBytes(t, s, "/other", Version(v), uint64(v+1), bytes.Repeat([]byte{byte(v)}, 500))
	}
	if s.Tier().Evictions == before {
		t.Fatal("nothing was evicted")
	}
	var buf extent.Buffer
	buf.SetSnapshot(snap)
	buf.WriteAt(0, bytes.Repeat([]byte{0xff}, len(want)))
	if !bytes.Equal(snap.Bytes(), want) {
		t.Fatal("overwriting a buffer restored from the snapshot changed the snapshot")
	}
	if got := bytesOf(t, e); !bytes.Equal(got, want) {
		t.Fatal("a second materialization no longer returns the archived bytes")
	}
}

// mallocs reports the heap objects fn allocates.
func mallocs(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs)
}

// TestReopenAllocBudget: a reopen adopts the catalog's block-allocated records
// instead of building a second index from them — at most 1.5 heap objects per
// archived version inside NewTiered (6.5 before the index was folded), the
// catalog decode, the chunk store's open and the index together. And a Put of
// a one-chunk delta builds one record, not three.
func TestReopenAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const C = extent.ChunkSize
	const keys, perKey = 32, 64
	tier := TierConfig{Dir: t.TempDir(), MemoryBudget: 8 * C}
	s, err := NewTiered(0, nil, tier)
	if err != nil {
		t.Fatal(err)
	}
	model := bytes.Repeat([]byte{3}, 4*C+100)
	for v := 0; v < perKey; v++ {
		for k := 0; k < keys; k++ {
			copy(model[(v%4)*C:], fmt.Sprintf("key %d version %d", k, v))
			putBytes(t, s, fmt.Sprintf("/d/f%02d", k), Version(v), uint64(v*keys+k+1), model)
		}
	}
	s.Close()

	var s2 *Store
	objects := mallocs(func() { s2, err = NewTiered(0, nil, tier) })
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec := s2.Recovery(); rec.Versions != keys*perKey || rec.DroppedVersions != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if perVersion := float64(objects) / (keys * perKey); perVersion > 1.5 {
		t.Fatalf("reopening %d versions allocated %d objects, %.2f per version (budget 1.5)", keys*perKey, objects, perVersion)
	}

	// One more version of one file, one chunk changed. Warm the path first so
	// one-time growth (maps, the pack writer's buffer) is not counted.
	put := func(v int) {
		copy(model, fmt.Sprintf("put %d", v))
		snap := extent.FromBytes(model)
		defer snap.Release()
		if _, err := s2.PutSnapshot("fs1", "/d/f00", Version(v), uint64(1<<20+v), snap); err != nil {
			t.Fatal(err)
		}
	}
	put(perKey)
	const puts = 32
	const parentPutObjects = 26 * puts // measured before the index was folded (823..831); now ~22 a Put
	objects = mallocs(func() {
		for v := 1; v <= puts; v++ {
			put(perKey + v)
		}
	})
	if objects > parentPutObjects-2*puts {
		t.Fatalf("%d one-chunk delta Puts allocated %d objects, not at least two a Put fewer than the %d before the index was folded", puts, objects, parentPutObjects)
	}
}
