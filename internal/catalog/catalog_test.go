package catalog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"datalinks/internal/extent"
	"datalinks/internal/fsyncer"
)

func hashOf(b byte) extent.Hash {
	var h extent.Hash
	for i := range h {
		h[i] = b
	}
	return h
}

// putRec builds a small distinguishable record.
func putRec(key string, v int64, full bool) *PutRec {
	r := &PutRec{
		Key:            key,
		Version:        v,
		StateID:        uint64(100 + v),
		Size:           int64(1000 * (v + 1)),
		StoredUnixNano: 1_700_000_000_000_000_000 + v,
		NChunks:        2,
		TailLen:        7,
		TailHash:       hashOf(byte(200 + v)),
		IsFull:         full,
	}
	if full {
		r.Full = []extent.Hash{hashOf(byte(v)), hashOf(byte(v + 1))}
	} else {
		r.Mods = []Mod{{Idx: 1, Hash: hashOf(byte(v + 1))}}
	}
	return r
}

// encodePut is the payload of r's put record.
func encodePut(seq uint64, r *PutRec) []byte { return appendPut(nil, seq, r) }

func mustOpen(t *testing.T, dir string) *Catalog {
	t.Helper()
	c, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sameRec(a, b *PutRec) bool {
	if a.Key != b.Key || a.Version != b.Version || a.StateID != b.StateID ||
		a.Size != b.Size || a.StoredUnixNano != b.StoredUnixNano ||
		a.NChunks != b.NChunks || a.TailLen != b.TailLen || a.TailHash != b.TailHash ||
		a.IsFull != b.IsFull || len(a.Full) != len(b.Full) || len(a.Mods) != len(b.Mods) {
		return false
	}
	for i := range a.Full {
		if a.Full[i] != b.Full[i] {
			return false
		}
	}
	for i := range a.Mods {
		if a.Mods[i] != b.Mods[i] {
			return false
		}
	}
	return true
}

// TestRoundtrip: puts, a truncate and a drop survive close/reopen from the
// log alone, from a snapshot alone, and from snapshot+log.
func TestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	keys := []string{"fs1\x00/a", "fs1\x00/b", "fs1\x00/c"}
	for _, k := range keys {
		for v := int64(0); v < 5; v++ {
			if err := c.AppendPut(putRec(k, v, v == 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.AppendTruncate(keys[1], 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendDrop(keys[2]); err != nil {
		t.Fatal(err)
	}
	check := func(c *Catalog, phase string) {
		t.Helper()
		var got []string
		c.Range(func(k string, puts []*PutRec) int {
			got = append(got, k)
			return len(puts)
		})
		sort.Strings(got)
		if len(got) != 2 || got[0] != keys[0] || got[1] != keys[1] {
			t.Fatalf("%s: keys = %v", phase, got)
		}
		if h := c.History(keys[0]); len(h) != 5 {
			t.Fatalf("%s: %s has %d versions, want 5", phase, keys[0], len(h))
		} else {
			for v := int64(0); v < 5; v++ {
				if !sameRec(h[v], putRec(keys[0], v, v == 0)) {
					t.Fatalf("%s: version %d diverged: %+v", phase, v, h[v])
				}
			}
		}
		if h := c.History(keys[1]); len(h) != 2 {
			t.Fatalf("%s: truncated key has %d versions, want 2", phase, len(h))
		}
	}
	check(c, "in-memory")
	c.Close()

	// Reopen from the log alone (no snapshot was written).
	c2 := mustOpen(t, dir)
	if st := c2.Stats(); st.SnapshotRecords != 0 || st.LogRecords == 0 || st.TornBytes != 0 {
		t.Fatalf("log-only open stats: %+v", st)
	}
	check(c2, "log replay")

	// Compact and reopen from the snapshot alone.
	if err := c2.Compact(); err != nil {
		t.Fatal(err)
	}
	if c2.LogSize() != 0 {
		t.Fatalf("log not truncated by compaction: %d bytes", c2.LogSize())
	}
	c2.Close()
	c3 := mustOpen(t, dir)
	if st := c3.Stats(); st.SnapshotRecords == 0 || st.LogRecords != 0 {
		t.Fatalf("snapshot-only open stats: %+v", st)
	}
	check(c3, "snapshot replay")

	// Append past the snapshot and reopen from snapshot+log.
	if err := c3.AppendPut(putRec(keys[0], 5, false)); err != nil {
		t.Fatal(err)
	}
	c3.Close()
	c4 := mustOpen(t, dir)
	defer c4.Close()
	if h := c4.History(keys[0]); len(h) != 6 {
		t.Fatalf("snapshot+log: %d versions, want 6", len(h))
	}
	check4 := c4.Stats()
	if check4.SnapshotRecords == 0 || check4.LogRecords != 1 {
		t.Fatalf("snapshot+log open stats: %+v", check4)
	}
}

// TestTornTailRecoveredAtEveryByteBoundary truncates the log at every byte
// boundary of its final record: open must recover the longest valid prefix
// (all earlier versions intact), quarantine the torn suffix, and leave the
// log appendable.
func TestTornTailRecoveredAtEveryByteBoundary(t *testing.T) {
	master := t.TempDir()
	c := mustOpen(t, master)
	k := "fs1\x00/f"
	sizes := []int64{}
	for v := int64(0); v < 4; v++ {
		if err := c.AppendPut(putRec(k, v, v == 0)); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, c.LogSize())
	}
	c.Close()
	logBytes, err := os.ReadFile(filepath.Join(master, logName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(logBytes)) != sizes[3] {
		t.Fatalf("log is %d bytes, expected %d", len(logBytes), sizes[3])
	}
	lastStart := sizes[2]

	for cut := lastStart; cut <= sizes[3]; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), logBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cc, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		wantVers := 3
		if cut == sizes[3] {
			wantVers = 4 // clean cut after the full record
		}
		h := cc.History(k)
		if len(h) != wantVers {
			t.Fatalf("cut %d: recovered %d versions, want %d", cut, len(h), wantVers)
		}
		for v := 0; v < wantVers; v++ {
			if !sameRec(h[v], putRec(k, int64(v), v == 0)) {
				t.Fatalf("cut %d: version %d corrupted after torn-tail recovery", cut, v)
			}
		}
		wantTorn := cut - lastStart
		if cut == sizes[3] {
			wantTorn = 0 // clean cut: the whole record survived
		}
		if st := cc.Stats(); st.TornBytes != wantTorn {
			t.Fatalf("cut %d: torn bytes = %d, want %d", cut, st.TornBytes, wantTorn)
		}
		if wantTorn > 0 {
			torn, err := os.ReadFile(filepath.Join(dir, tornName))
			if err != nil || !bytes.Equal(torn, logBytes[lastStart:cut]) {
				t.Fatalf("cut %d: quarantined tail wrong (%v, %d bytes)", cut, err, len(torn))
			}
		}
		// The truncated log must accept appends and replay them cleanly.
		if err := cc.AppendPut(putRec(k, 9, false)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		cc.Close()
		cc2, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("cut %d: second open: %v", cut, err)
		}
		if h := cc2.History(k); len(h) != wantVers+1 || h[len(h)-1].Version != 9 {
			t.Fatalf("cut %d: post-recovery append lost (%d versions)", cut, len(h))
		}
		cc2.Close()
	}
}

// TestCrashBetweenSnapshotRenameAndLogTruncate: if the process dies after the
// snapshot is renamed into place but before the log is truncated, replay must
// not double-apply the log records the snapshot already covers.
func TestCrashBetweenSnapshotRenameAndLogTruncate(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	k := "fs1\x00/f"
	for v := int64(0); v < 3; v++ {
		if err := c.AppendPut(putRec(k, v, v == 0)); err != nil {
			t.Fatal(err)
		}
	}
	preCompact, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AppendTruncate(k, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Simulate the un-truncated log surviving next to the new snapshot.
	if err := os.WriteFile(filepath.Join(dir, logName), preCompact, 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, dir)
	defer c2.Close()
	st := c2.Stats()
	if st.StaleSkipped != 3 {
		t.Fatalf("stale log records skipped = %d, want 3", st.StaleSkipped)
	}
	// The truncate (covered by the snapshot) must hold: 2 versions, not 3.
	if h := c2.History(k); len(h) != 2 {
		t.Fatalf("stale log resurrected versions: %d, want 2", len(h))
	}
}

// TestAutoCompaction: appends past the threshold arm the checkpoint flag,
// CompactIfDue (which the archive calls outside its shard locks) runs it,
// and nothing is lost across the checkpoint.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Config{CompactBytes: 256}) // tiny threshold: compact every few records
	if err != nil {
		t.Fatal(err)
	}
	k := "fs1\x00/f"
	for v := int64(0); v < 50; v++ {
		if err := c.AppendPut(putRec(k, v, v == 0)); err != nil {
			t.Fatal(err)
		}
		if err := c.CompactIfDue(); err != nil {
			t.Fatal(err)
		}
	}
	if c.LogSize() > 4*256 {
		t.Fatalf("auto-compaction never ran: log is %d bytes", c.LogSize())
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot after auto-compaction: %v", err)
	}
	c.Close()
	c2 := mustOpen(t, dir)
	defer c2.Close()
	if h := c2.History(k); len(h) != 50 {
		t.Fatalf("replay after auto-compaction: %d versions, want 50", len(h))
	}
}

// TestTrimIsPersistedByCompact: a replay-time trim through Range (missing-blob
// repair) is invisible to the log but survives via the following Compact.
func TestTrimIsPersistedByCompact(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	k := "fs1\x00/f"
	for v := int64(0); v < 4; v++ {
		if err := c.AppendPut(putRec(k, v, v == 0)); err != nil {
			t.Fatal(err)
		}
	}
	c.Range(func(_ string, _ []*PutRec) int { return 2 })
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2 := mustOpen(t, dir)
	defer c2.Close()
	if h := c2.History(k); len(h) != 2 {
		t.Fatalf("trim lost: %d versions, want 2", len(h))
	}
}

// TestClosedCatalogRejectsAppends: appends after Close fail loudly instead of
// writing to a closed handle.
func TestClosedCatalogRejectsAppends(t *testing.T) {
	c := mustOpen(t, t.TempDir())
	c.Close()
	if err := c.AppendPut(putRec("fs1\x00/f", 0, true)); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := c.AppendDrop("fs1\x00/f"); err == nil {
		t.Fatal("drop after Close succeeded")
	}
}

// TestLargeManifestRoundtrip: a checkpoint record with a thousand chunk
// hashes (a ~64 MiB file) survives the frame/CRC path intact.
func TestLargeManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	k := "fs1\x00/big"
	r := &PutRec{Key: k, Version: 0, NChunks: 1024, IsFull: true}
	for i := 0; i < 1024; i++ {
		r.Full = append(r.Full, hashOf(byte(i%251)))
	}
	if err := c.AppendPut(r); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2 := mustOpen(t, dir)
	defer c2.Close()
	h := c2.History(k)
	if len(h) != 1 || len(h[0].Full) != 1024 {
		t.Fatalf("large manifest lost: %+v", fmt.Sprintf("%d recs", len(h)))
	}
	for i, hh := range h[0].Full {
		if hh != hashOf(byte(i%251)) {
			t.Fatalf("hash %d corrupted", i)
		}
	}
}

// TestFsyncPolicies: always flushes per append; group flushes only at the
// Sync barrier; none never flushes. The durable contents are identical.
func TestFsyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy     fsyncer.Policy
		wantAppend int64 // flushes after 3 appends
		wantSync   int64 // flushes after 3 appends + one Sync
	}{
		{fsyncer.PolicyNone, 0, 0},
		{fsyncer.PolicyAlways, 3, 3},
		{fsyncer.PolicyGroup, 0, 1},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir, Config{Fsync: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < 3; v++ {
				if err := c.AppendPut(&PutRec{Key: "fs1\x00/f", Version: int64(v), IsFull: true}); err != nil {
					t.Fatal(err)
				}
			}
			if got := c.Fsyncs(); got != tc.wantAppend {
				t.Fatalf("after appends: %d fsyncs, want %d", got, tc.wantAppend)
			}
			if err := c.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := c.Fsyncs(); got != tc.wantSync {
				t.Fatalf("after barrier: %d fsyncs, want %d", got, tc.wantSync)
			}
			c.Close()
			c2, err := Open(dir, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			if got := len(c2.History("fs1\x00/f")); got != 3 {
				t.Fatalf("replayed %d versions, want 3", got)
			}
		})
	}
}

// TestSecondTearKeepsFirstTearsEvidence: the quarantine file is appended to,
// never overwritten — after two crashes it holds both torn suffixes in order,
// while TornBytes reports the latest repair only.
func TestSecondTearKeepsFirstTearsEvidence(t *testing.T) {
	dir := t.TempDir()
	k := "fs1\x00/f"
	logPath := filepath.Join(dir, logName)
	var evidence []byte
	for round, cut := range []int64{5, 9} {
		c := mustOpen(t, dir)
		for v := int64(0); v < 2; v++ {
			if err := c.AppendPut(putRec(k, int64(2*round)+v, false)); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		whole, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(logPath, int64(len(whole))-cut); err != nil {
			t.Fatal(err)
		}
		c = mustOpen(t, dir)
		torn := c.Stats().TornBytes
		if torn <= 0 || torn >= int64(len(whole)) {
			t.Fatalf("round %d: torn bytes = %d", round, torn)
		}
		if got := len(c.History(k)); got != round+1 {
			t.Fatalf("round %d: %d versions survived, want %d", round, got, round+1)
		}
		c.Close()
		start := int64(len(whole)) - cut - torn
		evidence = append(evidence, whole[start:int64(len(whole))-cut]...)
		if got, err := os.ReadFile(filepath.Join(dir, tornName)); err != nil || !bytes.Equal(got, evidence) {
			t.Fatalf("round %d: quarantine holds %d bytes (%v), want both tears' %d in order", round, len(got), err, len(evidence))
		}
	}
}

// allocated reports the bytes and the heap objects fn allocates.
func allocated(fn func()) (bytes, objects int64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc), int64(after.Mallocs - before.Mallocs)
}

// TestOpenScanAllocBudget: Open reads the log AND the snapshot through a
// sliding window, not whole — beyond what applying the same records to an
// empty shadow costs, a replay of 10 000 records allocates a small fraction
// of the file's length — and decodes the records into shared blocks: a
// quarter of a heap object per record, not three.
func TestOpenScanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	dir := t.TempDir()
	cfg := Config{CompactBytes: 1 << 30} // no checkpoint: the log keeps every record
	c, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const records, keys = 10_000, 100
	payloads := make([][]byte, records)
	for i := range payloads {
		r := putRec(fmt.Sprintf("fs1\x00/f%03d", i%keys), int64(i/keys), i < keys)
		if err := c.AppendPut(r); err != nil {
			t.Fatal(err)
		}
		payloads[i] = encodePut(uint64(i+1), r)
	}
	logLen := c.LogSize()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	replay, _ := allocated(func() {
		shadow := &Catalog{files: make(map[string]*history)}
		for _, p := range payloads {
			if err := shadow.apply(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	reopen := func(from string, fileLen int64) *Catalog {
		t.Helper()
		var reopened *Catalog
		open, objects := allocated(func() { reopened, err = Open(dir, cfg) })
		if err != nil {
			t.Fatal(err)
		}
		if st := reopened.Stats(); st.LogRecords+st.SnapshotRecords != records || st.TornBytes != 0 {
			t.Fatalf("%s: reopen applied %d+%d of %d records (%d torn bytes)", from, st.SnapshotRecords, st.LogRecords, records, st.TornBytes)
		}
		if scan := open - replay; scan*4 >= fileLen {
			t.Fatalf("%s: open allocated %d B, %d B more than applying the records; the file is %d B, budget 1/4 of it", from, open, scan, fileLen)
		}
		if objects*4 > records {
			t.Fatalf("%s: open allocated %d objects for %d records, budget 0.25 per record", from, objects, records)
		}
		return reopened
	}
	fromLog := reopen("log", logLen)
	if err := fromLog.Compact(); err != nil {
		t.Fatal(err)
	}
	fromLog.Close()
	snap, err := os.Stat(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	fromSnap := reopen("snapshot", snap.Size())
	if st := fromSnap.Stats(); st.SnapshotRecords != records {
		t.Fatalf("snapshot-only open loaded %d snapshot records, want %d", st.SnapshotRecords, records)
	}
	fromSnap.Close()
}
