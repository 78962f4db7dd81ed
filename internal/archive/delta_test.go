package archive

// One exporter, one importer: every way a history moves between stores — a
// whole-history handoff (migration, absorb, full resync) and a tail delta
// (replication catch-up) — is ExportDelta + ImportDelta, so both families of
// tests live here.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"datalinks/internal/extent"
)

// multiVersionContent builds version v of a deterministic multi-chunk file:
// 3 chunks + tail, with only chunk 1 varying per version — so consecutive
// versions share most blobs and a handoff should dedup them.
func multiVersionContent(v int) []byte {
	buf := make([]byte, 3*extent.ChunkSize+100)
	for i := range buf {
		buf[i] = byte(i)
	}
	copy(buf[extent.ChunkSize:], []byte(fmt.Sprintf("version-%d", v)))
	return buf
}

// exportAll exports a whole history — ExportDelta from before its start.
func exportAll(t testing.TB, s *Store, server, path string) []HistoryRec {
	t.Helper()
	recs, err := s.ExportDelta(server, path, VersionID{Version: -1})
	if err != nil {
		t.Fatalf("export %s from the start: %v", path, err)
	}
	return recs
}

// idAt is the identity of version v of a history on s: the base an export
// after v names.
func idAt(t testing.TB, s *Store, server, path string, v Version) VersionID {
	t.Helper()
	for _, e := range s.Versions(server, path) {
		if e.Version == v {
			return VersionID{Version: v, StateID: e.StateID, Stored: e.Stored.UnixNano()}
		}
	}
	t.Fatalf("%s has no version %d", path, v)
	return VersionID{}
}

// handOver moves the whole history of (auth, /f) from src to dst.
func handOver(t testing.TB, src, dst *Store) (ImportStats, error) {
	t.Helper()
	return dst.ImportDelta("auth", "/f", exportAll(t, src, "auth", "/f"), src.FetchBlob)
}

// pinnedBlobs counts the blob hashes the store holds a reference on:
// everything indexed that is not awaiting a sweep.
func pinnedBlobs(s *Store) int {
	t := s.Tier()
	return int(t.DiskBlobs - t.DeadBlobs)
}

// seedPair returns a source with versions 0..srcVers-1 of /f and a
// destination already holding the prefix 0..dstVers-1 (shipped from src, so
// the chains match).
func seedPair(t *testing.T, srcVers, dstVers int) (src, dst *Store) {
	t.Helper()
	src = newTiered(t)
	for v := 0; v < srcVers; v++ {
		if err := src.Put("auth", "/f", Version(v), uint64(10+v), multiVersionContent(v)); err != nil {
			t.Fatalf("src put v%d: %v", v, err)
		}
	}
	dst = newTiered(t)
	if dstVers > 0 {
		recs := exportAll(t, src, "auth", "/f")
		if _, err := dst.ImportDelta("auth", "/f", recs[:dstVers], src.FetchBlob); err != nil {
			t.Fatalf("seed dst: %v", err)
		}
	}
	return src, dst
}

func TestHandoffRoundTrip(t *testing.T) {
	src := newTiered(t)
	for v := 0; v < 5; v++ {
		if err := src.Put("auth", "/f", Version(v), uint64(10+v), multiVersionContent(v)); err != nil {
			t.Fatalf("put v%d: %v", v, err)
		}
	}
	recs := exportAll(t, src, "auth", "/f")
	if len(recs) != 5 {
		t.Fatalf("exported %d recs, want 5", len(recs))
	}

	dst := newTiered(t)
	st, err := dst.ImportDelta("auth", "/f", recs, src.FetchBlob)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if st.Versions != 5 {
		t.Fatalf("imported %d versions, want 5", st.Versions)
	}
	// The byte(i) fill makes chunks 0 and 2 identical, so the unique blobs
	// are: one base chunk, the tail, and 5 per-version variants of chunk 1
	// = 7 moved. Everything else dedups.
	if st.MovedChunks != 7 {
		t.Errorf("moved %d blobs, want 7 (dedup broken)", st.MovedChunks)
	}
	if st.DedupedChunks == 0 {
		t.Error("no deduped slots — per-slot pinning broken")
	}
	for v := 0; v < 5; v++ {
		want := multiVersionContent(v)
		e, err := dst.Get("auth", "/f", Version(v))
		if err != nil {
			t.Fatalf("dst get v%d: %v", v, err)
		}
		if !bytes.Equal(bytesOf(t, e), want) {
			t.Fatalf("v%d content mismatch after handoff", v)
		}
		if e.StateID != uint64(10+v) {
			t.Fatalf("v%d state id %d, want %d", v, e.StateID, 10+v)
		}
	}
	// The source history is untouched; dropping it must not break the
	// destination (references are independent).
	if err := src.Drop("auth", "/f"); err != nil {
		t.Fatalf("src drop: %v", err)
	}
	e, err := dst.Get("auth", "/f", 3)
	if err != nil || !bytes.Equal(bytesOf(t, e), multiVersionContent(3)) {
		t.Fatalf("dst history damaged by src drop: %v", err)
	}
}

func TestHandoffDedupAgainstResident(t *testing.T) {
	src := newTiered(t)
	dst := newTiered(t)
	content := multiVersionContent(0)
	// The destination already archived identical content under another path.
	if err := dst.Put("auth", "/other", 0, 1, content); err != nil {
		t.Fatalf("seed dst: %v", err)
	}
	if err := src.Put("auth", "/f", 0, 1, content); err != nil {
		t.Fatalf("seed src: %v", err)
	}
	st, err := handOver(t, src, dst)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if st.MovedChunks != 0 {
		t.Errorf("moved %d blobs for fully-shared content, want 0", st.MovedChunks)
	}
	e, err := dst.Get("auth", "/f", 0)
	if err != nil || !bytes.Equal(bytesOf(t, e), content) {
		t.Fatalf("imported content wrong: %v", err)
	}
}

// TestHandoffOntoExistingHistoryIsNoOp: a handoff onto a store that already
// holds the history — a migration onto the member that carries the replica —
// moves zero bytes and adds zero versions; a holder that is behind gets only
// the missing tail.
func TestHandoffOntoExistingHistoryIsNoOp(t *testing.T) {
	src, dst := seedPair(t, 4, 4)
	before, pins := dst.Dedup(), pinnedBlobs(dst)
	st, err := handOver(t, src, dst)
	if err != nil {
		t.Fatalf("handoff onto a full replica: %v", err)
	}
	if st != (ImportStats{}) {
		t.Fatalf("handoff onto a full replica did work: %+v", st)
	}
	if after := dst.Dedup(); after != before {
		t.Fatalf("dedup counters moved across a no-op handoff: %+v -> %+v", before, after)
	}
	if got := pinnedBlobs(dst); got != pins {
		t.Fatalf("no-op handoff left %d pinned blobs, had %d", got, pins)
	}
	if got := len(dst.Versions("auth", "/f")); got != 4 {
		t.Fatalf("dst has %d versions after a no-op handoff, want 4", got)
	}

	// A holder one version behind: the same whole-history export lands as a
	// one-version tail.
	if err := src.Put("auth", "/f", 4, 14, multiVersionContent(4)); err != nil {
		t.Fatal(err)
	}
	st, err = handOver(t, src, dst)
	if err != nil {
		t.Fatalf("handoff onto a lagging replica: %v", err)
	}
	if st.Versions != 1 || st.MovedChunks != 1 {
		t.Fatalf("lagging replica imported %d versions, moved %d blobs; want 1/1", st.Versions, st.MovedChunks)
	}
	for v := 0; v < 5; v++ {
		e, err := dst.Get("auth", "/f", Version(v))
		if err != nil || !bytes.Equal(bytesOf(t, e), multiVersionContent(v)) {
			t.Fatalf("v%d wrong after handoffs: %v", v, err)
		}
	}
}

func TestHandoffFetchFailureUnwinds(t *testing.T) {
	src := newTiered(t)
	if err := src.Put("auth", "/f", 0, 1, multiVersionContent(0)); err != nil {
		t.Fatal(err)
	}
	dst := newTiered(t)
	calls := 0
	failing := func(h extent.Hash, dst []byte) ([]byte, error) {
		calls++
		if calls > 2 {
			return nil, fmt.Errorf("wire down")
		}
		return src.FetchBlob(h, dst)
	}
	if _, err := dst.ImportDelta("auth", "/f", exportAll(t, src, "auth", "/f"), failing); err == nil {
		t.Fatal("import with failing fetch succeeded")
	}
	if _, err := dst.Get("auth", "/f", 0); err == nil {
		t.Fatal("half-imported history is visible")
	}
	if got := pinnedBlobs(dst); got != 0 {
		t.Fatalf("failed import left %d blobs pinned", got)
	}
	// Retry with a healthy fetch: the unwind must have left the store clean.
	if _, err := handOver(t, src, dst); err != nil {
		t.Fatalf("retry after unwind: %v", err)
	}
	e, err := dst.Get("auth", "/f", 0)
	if err != nil || !bytes.Equal(bytesOf(t, e), multiVersionContent(0)) {
		t.Fatalf("retried import wrong: %v", err)
	}
}

func TestHandoffTieredDestination(t *testing.T) {
	src := newTiered(t)
	for v := 0; v < 3; v++ {
		if err := src.Put("auth", "/f", Version(v), uint64(v+1), multiVersionContent(v)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	dst, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first, err := handOver(t, src, dst)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	// Dropped but not yet swept, the blobs are still on the device: handing
	// the history over again revives them in place, nothing travels.
	if err := dst.Drop("auth", "/f"); err != nil {
		t.Fatal(err)
	}
	again, err := handOver(t, src, dst)
	if err != nil {
		t.Fatalf("re-import after drop: %v", err)
	}
	if first.MovedChunks == 0 || again.MovedChunks != 0 || again.Versions != 3 {
		t.Fatalf("first import moved %d blobs, revive moved %d (want 0) for %d versions (want 3)",
			first.MovedChunks, again.MovedChunks, again.Versions)
	}
	dst.Close()
	// The imported history must be durable: reopen and serve every version.
	re, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	for v := 0; v < 3; v++ {
		e, err := re.Get("auth", "/f", Version(v))
		if err != nil || !bytes.Equal(bytesOf(t, e), multiVersionContent(v)) {
			t.Fatalf("reopened v%d wrong: %v", v, err)
		}
	}
}

func TestDeltaShipsOnlyMissingVersions(t *testing.T) {
	src, dst := seedPair(t, 6, 3)
	recs, err := src.ExportDelta("auth", "/f", idAt(t, src, "auth", "/f", 2)) // dst has 0..2
	if err != nil {
		t.Fatalf("export delta: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("delta has %d recs, want 3 (versions 3..5)", len(recs))
	}
	st, err := dst.ImportDelta("auth", "/f", recs, src.FetchBlob)
	if err != nil {
		t.Fatalf("import delta: %v", err)
	}
	if st.Versions != 3 {
		t.Fatalf("imported %d versions, want 3", st.Versions)
	}
	// Only chunk 1 varies per version: 3 new versions move at most 3 + tail
	// blobs; a full history re-ship would have moved the base chunks again.
	if st.MovedChunks > 4 {
		t.Errorf("delta moved %d blobs — that is a full copy, not a delta", st.MovedChunks)
	}
	for v := 0; v < 6; v++ {
		e, err := dst.Get("auth", "/f", Version(v))
		if err != nil || !bytes.Equal(bytesOf(t, e), multiVersionContent(v)) {
			t.Fatalf("v%d wrong after delta import: %v", v, err)
		}
	}
}

func TestDeltaEmptyWhenCaughtUp(t *testing.T) {
	src, _ := seedPair(t, 4, 0)
	recs, err := src.ExportDelta("auth", "/f", idAt(t, src, "auth", "/f", 3))
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("caught-up delta has %d recs, want 0", len(recs))
	}
}

func TestDeltaChainGap(t *testing.T) {
	src, dst := seedPair(t, 5, 2)
	// Base the source never archived (e.g. the replica ran ahead of a
	// restored owner): the chain cannot be extended, the caller must resync.
	if _, err := src.ExportDelta("auth", "/f", VersionID{Version: 99}); !errors.Is(err, ErrChainGap) {
		t.Fatalf("export with unknown base: %v, want ErrChainGap", err)
	}
	// Another version of the right number — one a restore rolled back
	// before the number came round again — is not the base either, whether
	// its state id or only its archive time differs.
	v3 := idAt(t, src, "auth", "/f", 3)
	for _, other := range []VersionID{
		{Version: 3, StateID: v3.StateID + 1, Stored: v3.Stored},
		{Version: 3, StateID: v3.StateID, Stored: v3.Stored + 1},
	} {
		if _, err := src.ExportDelta("auth", "/f", other); !errors.Is(err, ErrChainGap) {
			t.Fatalf("export after %+v, another v3 than %+v: %v, want ErrChainGap", other, v3, err)
		}
	}
	if _, err := src.ExportDelta("auth", "/missing", VersionID{Version: 0}); !errors.Is(err, ErrChainGap) {
		t.Fatalf("export of missing path: %v, want ErrChainGap", err)
	}
	// Non-contiguous delta (starts past the destination's last version).
	recs, err := src.ExportDelta("auth", "/f", v3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportDelta("auth", "/f", recs, src.FetchBlob); !errors.Is(err, ErrChainGap) {
		t.Fatalf("gapped import: %v, want ErrChainGap", err)
	}
	// The failed import left the destination intact.
	e, err := dst.Get("auth", "/f", 1)
	if err != nil || !bytes.Equal(bytesOf(t, e), multiVersionContent(1)) {
		t.Fatalf("dst damaged by rejected import: %v", err)
	}
	// A delta has no predecessor in an empty store: only a checkpoint can
	// open a history.
	if recs[0].IsFull {
		t.Fatal("tail starts at a checkpoint; the test needs a delta record")
	}
	empty := newTiered(t)
	if _, err := empty.ImportDelta("auth", "/f", recs, src.FetchBlob); !errors.Is(err, ErrChainGap) {
		t.Fatalf("delta into empty store: %v, want ErrChainGap", err)
	}
	if got := len(empty.Versions("auth", "/f")) + pinnedBlobs(empty); got != 0 {
		t.Fatalf("rejected import left %d versions/pins in an empty store", got)
	}
	// An export from the start of nothing is empty, not a gap, and importing
	// it is a no-op.
	none, err := src.ExportDelta("auth", "/missing", VersionID{Version: -1})
	if err != nil || len(none) != 0 {
		t.Fatalf("export of a missing path from the start: %d recs, %v; want 0, nil", len(none), err)
	}
	if st, err := empty.ImportDelta("auth", "/missing", none, src.FetchBlob); err != nil || st != (ImportStats{}) {
		t.Fatalf("import of nothing: %+v, %v", st, err)
	}
}

// TestDeltaReplicaAheadResyncs is the catch-up protocol when the destination
// ran ahead of a restored owner: the export after what it has is a chain gap,
// so it drops its copy and takes the history from the start.
func TestDeltaReplicaAheadResyncs(t *testing.T) {
	owner, replica := seedPair(t, 6, 6)
	if err := owner.TruncateAfter("auth", "/f", 12); err != nil { // back to versions 0..2
		t.Fatal(err)
	}
	if err := owner.Put("auth", "/f", 3, 20, []byte("rewritten after the restore")); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.ExportDelta("auth", "/f", idAt(t, replica, "auth", "/f", 5)); !errors.Is(err, ErrChainGap) {
		t.Fatalf("export after a version the owner no longer has: %v, want ErrChainGap", err)
	}
	if err := replica.Drop("auth", "/f"); err != nil {
		t.Fatal(err)
	}
	st, err := replica.ImportDelta("auth", "/f", exportAll(t, owner, "auth", "/f"), owner.FetchBlob)
	if err != nil {
		t.Fatalf("resync from the start: %v", err)
	}
	if st.Versions != 4 {
		t.Fatalf("resync imported %d versions, want 4", st.Versions)
	}
	want := owner.Versions("auth", "/f")
	got := replica.Versions("auth", "/f")
	if len(got) != len(want) {
		t.Fatalf("replica has %d versions after resync, owner %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Version != want[i].Version || got[i].StateID != want[i].StateID || !bytes.Equal(bytesOf(t, got[i]), bytesOf(t, want[i])) {
			t.Fatalf("version %d differs between owner and resynced replica", want[i].Version)
		}
	}
}

func TestDeltaIdempotentReship(t *testing.T) {
	src, dst := seedPair(t, 5, 3)
	recs, err := src.ExportDelta("auth", "/f", idAt(t, src, "auth", "/f", 1)) // overlaps: dst already has 2
	if err != nil {
		t.Fatal(err)
	}
	st, err := dst.ImportDelta("auth", "/f", recs, src.FetchBlob)
	if err != nil {
		t.Fatalf("overlapping re-ship: %v", err)
	}
	if st.Versions != 2 {
		t.Fatalf("imported %d versions, want 2 (3 and 4; 2 skipped)", st.Versions)
	}
	// A second identical ship is a clean no-op — the at-least-once delivery
	// case the replication retry produces.
	st, err = dst.ImportDelta("auth", "/f", recs, src.FetchBlob)
	if err != nil {
		t.Fatalf("duplicate ship: %v", err)
	}
	if st.Versions != 0 || st.MovedChunks != 0 {
		t.Fatalf("duplicate ship imported %d versions, moved %d blobs; want 0/0", st.Versions, st.MovedChunks)
	}
	for v := 0; v < 5; v++ {
		e, err := dst.Get("auth", "/f", Version(v))
		if err != nil || !bytes.Equal(bytesOf(t, e), multiVersionContent(v)) {
			t.Fatalf("v%d wrong after re-ships: %v", v, err)
		}
	}
}

func TestDeltaFetchFailureKeepsPrefix(t *testing.T) {
	src, dst := seedPair(t, 6, 2)
	recs, err := src.ExportDelta("auth", "/f", idAt(t, src, "auth", "/f", 1))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	failing := func(h extent.Hash, dst []byte) ([]byte, error) {
		calls++
		if calls > 1 {
			return nil, errors.New("wire down")
		}
		return src.FetchBlob(h, dst)
	}
	if _, err := dst.ImportDelta("auth", "/f", recs, failing); err == nil {
		t.Fatal("import with failing fetch succeeded")
	}
	// The destination still serves what it had, and a healthy retry converges.
	e, err := dst.Get("auth", "/f", 1)
	if err != nil || !bytes.Equal(bytesOf(t, e), multiVersionContent(1)) {
		t.Fatalf("existing prefix damaged: %v", err)
	}
	if _, err := dst.ImportDelta("auth", "/f", recs, src.FetchBlob); err != nil {
		t.Fatalf("retry: %v", err)
	}
	for v := 0; v < 6; v++ {
		e, err := dst.Get("auth", "/f", Version(v))
		if err != nil || !bytes.Equal(bytesOf(t, e), multiVersionContent(v)) {
			t.Fatalf("v%d wrong after retry: %v", v, err)
		}
	}
}

func TestDeltaDurableDestination(t *testing.T) {
	src, _ := seedPair(t, 4, 0)
	dir := t.TempDir()
	dst, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recs := exportAll(t, src, "auth", "/f")
	if _, err := dst.ImportDelta("auth", "/f", recs[:2], src.FetchBlob); err != nil {
		t.Fatal(err)
	}
	delta, err := src.ExportDelta("auth", "/f", idAt(t, src, "auth", "/f", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportDelta("auth", "/f", delta, src.FetchBlob); err != nil {
		t.Fatalf("delta import: %v", err)
	}
	dst.Close()
	re, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for v := 0; v < 4; v++ {
		e, err := re.Get("auth", "/f", Version(v))
		if err != nil || !bytes.Equal(bytesOf(t, e), multiVersionContent(v)) {
			t.Fatalf("reopened v%d wrong: %v", v, err)
		}
	}
}
