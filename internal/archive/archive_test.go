package archive

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"datalinks/internal/extent"
)

// bytesOf materializes an archived version (a fresh copy), failing the test
// when it cannot — a version that does not materialize is never an empty one.
func bytesOf(t testing.TB, e Entry) []byte {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Errorf("materialize %s v%d: %v", e.Path, e.Version, err)
		return nil
	}
	defer snap.Release()
	return snap.Bytes()
}

func TestPutGetLatest(t *testing.T) {
	s := newTiered(t)
	if err := s.Put("fs1", "/a", 0, 10, []byte("v0")); err != nil {
		t.Fatalf("put v0: %v", err)
	}
	if err := s.Put("fs1", "/a", 1, 20, []byte("v1")); err != nil {
		t.Fatalf("put v1: %v", err)
	}
	e, err := s.Get("fs1", "/a", 0)
	if err != nil || string(bytesOf(t, e)) != "v0" {
		t.Fatalf("get v0 = %q, %v", bytesOf(t, e), err)
	}
	latest, err := s.Latest("fs1", "/a")
	if err != nil || latest.Version != 1 || string(bytesOf(t, latest)) != "v1" {
		t.Fatalf("latest = %+v, %v", latest, err)
	}
}

func TestVersionsMustIncrease(t *testing.T) {
	s := newTiered(t)
	s.Put("fs1", "/a", 1, 10, []byte("v1"))
	if err := s.Put("fs1", "/a", 1, 20, []byte("dup")); err == nil {
		t.Fatal("duplicate version accepted")
	}
	if err := s.Put("fs1", "/a", 0, 20, []byte("old")); err == nil {
		t.Fatal("out-of-order version accepted")
	}
}

func TestContentIsCopied(t *testing.T) {
	s := newTiered(t)
	buf := []byte("original")
	s.Put("fs1", "/a", 0, 1, buf)
	buf[0] = 'X'
	e, _ := s.Get("fs1", "/a", 0)
	if string(bytesOf(t, e)) != "original" {
		t.Fatalf("stored content aliased caller buffer: %q", bytesOf(t, e))
	}
}

func TestAsOfSelectsByStateID(t *testing.T) {
	s := newTiered(t)
	s.Put("fs1", "/a", 0, 10, []byte("v0"))
	s.Put("fs1", "/a", 1, 20, []byte("v1"))
	s.Put("fs1", "/a", 2, 30, []byte("v2"))

	cases := []struct {
		state uint64
		want  string
	}{
		{10, "v0"}, {15, "v0"}, {20, "v1"}, {29, "v1"}, {30, "v2"}, {99, "v2"},
	}
	for _, c := range cases {
		e, err := s.AsOf("fs1", "/a", c.state)
		if err != nil || string(bytesOf(t, e)) != c.want {
			t.Errorf("AsOf(%d) = %q, %v; want %q", c.state, bytesOf(t, e), err, c.want)
		}
	}
	if _, err := s.AsOf("fs1", "/a", 5); !errors.Is(err, ErrNotFound) {
		t.Errorf("AsOf before first version = %v", err)
	}
}

func TestTruncateAfter(t *testing.T) {
	s := newTiered(t)
	s.Put("fs1", "/a", 0, 10, []byte("v0"))
	s.Put("fs1", "/a", 1, 20, []byte("v1"))
	s.Put("fs1", "/a", 2, 30, []byte("v2"))
	s.TruncateAfter("fs1", "/a", 20)
	vs := s.Versions("fs1", "/a")
	if len(vs) != 2 || vs[1].Version != 1 {
		t.Fatalf("after truncate: %+v", vs)
	}
	// New versions can be appended after a truncate.
	if err := s.Put("fs1", "/a", 2, 40, []byte("v2b")); err != nil {
		t.Fatalf("re-put after truncate: %v", err)
	}
}

func TestServerNamespaceIsolation(t *testing.T) {
	s := newTiered(t)
	s.Put("fs1", "/a", 0, 1, []byte("one"))
	s.Put("fs2", "/a", 0, 1, []byte("two"))
	e1, _ := s.Latest("fs1", "/a")
	e2, _ := s.Latest("fs2", "/a")
	if string(bytesOf(t, e1)) != "one" || string(bytesOf(t, e2)) != "two" {
		t.Fatalf("cross-server contamination: %q, %q", bytesOf(t, e1), bytesOf(t, e2))
	}
	files := s.Files("fs1")
	if len(files) != 1 || files[0] != "/a" {
		t.Fatalf("files(fs1) = %v", files)
	}
}

func TestDrop(t *testing.T) {
	s := newTiered(t)
	s.Put("fs1", "/a", 0, 1, []byte("x"))
	s.Drop("fs1", "/a")
	if _, err := s.Latest("fs1", "/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dropped file still present: %v", err)
	}
}

func TestLatencyInjection(t *testing.T) {
	s := newTiered(t)
	s.SetLatency(4 * time.Millisecond)
	start := time.Now()
	s.Put("fs1", "/a", 0, 1, []byte("x"))
	if d := time.Since(start); d < 4*time.Millisecond {
		t.Fatalf("put latency not injected: %v", d)
	}
	s.SetLatency(0)
	start = time.Now()
	s.Latest("fs1", "/a")
	if d := time.Since(start); d > 2*time.Millisecond {
		t.Fatalf("latency not cleared: %v", d)
	}
}

func TestStats(t *testing.T) {
	s := newTiered(t)
	s.Put("fs1", "/a", 0, 1, []byte("abcd"))
	s.Latest("fs1", "/a")
	puts, restores, bytes := s.Stats()
	if puts != 1 || restores != 1 || bytes != 4 {
		t.Fatalf("stats = %d, %d, %d", puts, restores, bytes)
	}
}

// TestDedupSharesChunks: archiving mostly-identical versions stores only
// the changed chunks — stored bytes grow by the delta, not the file size.
func TestDedupSharesChunks(t *testing.T) {
	s := newTiered(t)
	const chunks = 16
	content := make([]byte, chunks*extent.ChunkSize)
	for i := range content {
		content[i] = byte(i % 251)
	}
	buf := extent.NewBuffer()
	buf.SetBytes(content)

	snap := buf.Snapshot()
	st, err := s.PutSnapshot("fs1", "/big", 0, 1, snap)
	snap.Release()
	if err != nil {
		t.Fatal(err)
	}
	if st.NewChunks != chunks || st.SharedChunks != 0 {
		t.Fatalf("v0 put: %+v", st)
	}
	base := s.Tier().DiskBytes

	// Ten one-chunk edits, each archived as a full version.
	for v := 1; v <= 10; v++ {
		buf.WriteAt(int64(v%chunks)*extent.ChunkSize+7, []byte{byte(v)})
		snap := buf.Snapshot()
		st, err := s.PutSnapshot("fs1", "/big", Version(v), uint64(v+1), snap)
		snap.Release()
		if err != nil {
			t.Fatal(err)
		}
		if st.NewChunks != 1 || st.SharedChunks != chunks-1 {
			t.Fatalf("v%d put: %+v", v, st)
		}
	}
	d := s.Dedup()
	grown := s.Tier().DiskBytes - base
	if grown != 10*extent.ChunkSize {
		t.Fatalf("stored bytes grew %d; want %d (one chunk per version)", grown, 10*extent.ChunkSize)
	}
	if d.LogicalBytes != 11*int64(len(content)) {
		t.Fatalf("logical bytes = %d", d.LogicalBytes)
	}
	// Restored content matches the version exactly.
	e, err := s.Get("fs1", "/big", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), content...)
	for v := 1; v <= 3; v++ {
		want[(v%chunks)*extent.ChunkSize+7] = byte(v)
	}
	if !bytes.Equal(bytesOf(t, e), want) {
		t.Fatal("restored v3 content mismatch")
	}
	// Dropping the file releases every chunk; the sweep reclaims them all.
	s.Drop("fs1", "/big")
	s.GCNow()
	if r := s.Tier().DiskBytes; r != 0 {
		t.Fatalf("stored bytes after drop = %d", r)
	}
}

// TestStalePutIsTyped: recovery relies on re-archiving an existing version
// being distinguishable (a close still in its put when the process was
// killed may have completed it already).
func TestStalePutIsTyped(t *testing.T) {
	s := newTiered(t)
	s.Put("fs1", "/a", 1, 10, []byte("v1"))
	if err := s.Put("fs1", "/a", 1, 20, []byte("dup")); !errors.Is(err, ErrStale) {
		t.Fatalf("dup put error = %v; want ErrStale", err)
	}
}

// TestPutLatencyChargedPerNewChunk: a fully deduplicated Put pays one device
// round trip; a Put with new chunks pays per chunk. The chunk counts are
// asserted deterministically; the wall-clock checks are lower bounds only
// (upper bounds flake on loaded runners).
func TestPutLatencyChargedPerNewChunk(t *testing.T) {
	s := newTiered(t)
	s.SetLatency(2 * time.Millisecond)
	content := make([]byte, 4*extent.ChunkSize)
	for i := range content {
		content[i] = byte(i % 251) // 251 ∤ ChunkSize: every chunk is distinct
	}
	snap := extent.FromBytes(content)
	defer snap.Release()
	start := time.Now()
	st, err := s.PutSnapshot("fs1", "/f", 0, 1, snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.NewChunks != 4 || st.SharedChunks != 0 {
		t.Fatalf("v0 stats = %+v; want 4 new chunks", st)
	}
	if d := time.Since(start); d < 8*time.Millisecond {
		t.Fatalf("4 new chunks took %v; want >= 8ms (2ms per chunk)", d)
	}
	// Identical content again (new version): all chunks dedup, one trip.
	start = time.Now()
	st, err = s.PutSnapshot("fs1", "/f", 1, 2, snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.NewChunks != 0 || st.SharedChunks != 4 {
		t.Fatalf("v1 stats = %+v; want all 4 chunks deduplicated", st)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Fatalf("deduplicated put took %v; want >= one 2ms round trip", d)
	}
}

// TestStalePutLeavesAccountingIntact: a rejected (stale) Put must unwind its
// interning exactly — once swept, stored bytes are what the accepted versions
// hold — and handed-out entries keep reading valid content after Drop.
func TestStalePutLeavesAccountingIntact(t *testing.T) {
	s := newTiered(t)
	content := make([]byte, 2*extent.ChunkSize+100)
	for i := range content {
		content[i] = byte(i % 251)
	}
	if err := s.Put("fs1", "/f", 1, 10, content); err != nil {
		t.Fatal(err)
	}
	stored := s.Tier().DiskBytes
	if stored != 2*extent.ChunkSize+100 {
		t.Fatalf("stored = %d", stored)
	}
	// Stale re-put of v1 with different content: rejected, no accounting drift.
	other := bytes.Repeat([]byte{9}, len(content))
	if err := s.Put("fs1", "/f", 1, 20, other); !errors.Is(err, ErrStale) {
		t.Fatalf("stale put error = %v", err)
	}
	s.GCNow()
	if got := s.Tier().DiskBytes; got != stored {
		t.Fatalf("stored after stale put = %d, want %d", got, stored)
	}
	// A snapshot materialized before the drop stays readable after it (the
	// retained chunks outlive the store's release); the entry handle itself
	// reports the version as discarded rather than serving reclaimed bytes.
	e, err := s.Latest("fs1", "/f")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s.Drop("fs1", "/f")
	s.GCNow()
	if got := s.Tier().DiskBytes; got != 0 {
		t.Fatalf("stored after drop = %d", got)
	}
	if !bytes.Equal(snap.Bytes(), content) {
		t.Fatal("pre-drop snapshot corrupted by drop")
	}
	snap.Release()
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("Snapshot() of a discarded version must fail")
	}
}

// Property: AsOf always returns the newest version with StateID <= s, for
// any increasing (version, stateID) chain.
func TestAsOfProperty(t *testing.T) {
	prop := func(deltas []uint8, probe uint16) bool {
		if len(deltas) == 0 {
			return true
		}
		if len(deltas) > 20 {
			deltas = deltas[:20]
		}
		s := newTiered(t)
		state := uint64(0)
		var states []uint64
		for i, d := range deltas {
			state += uint64(d%50) + 1
			states = append(states, state)
			if err := s.Put("fs1", "/p", Version(i), state, []byte{byte(i)}); err != nil {
				return false
			}
		}
		q := uint64(probe)
		e, err := s.AsOf("fs1", "/p", q)
		// Expected: newest index with states[i] <= q.
		want := -1
		for i, st := range states {
			if st <= q {
				want = i
			}
		}
		if want < 0 {
			return errors.Is(err, ErrNotFound)
		}
		return err == nil && e.Version == Version(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
