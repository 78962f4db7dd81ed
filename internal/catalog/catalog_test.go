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

// recorder is a Receiver that keeps what a replay hands it the way the
// archive's index does: one history per key, whose records share one key
// string; a put not newer than the history's newest skipped; a truncate or
// drop of nothing a no-op. A test that appends mirrors each record into it
// (logPut), so that all lists what the log leaves standing.
type recorder map[string][]*PutRec

func (r recorder) Put(key []byte, rec *PutRec) bool {
	h := r[string(key)]
	if n := len(h); n > 0 && h[n-1].Version >= rec.Version {
		return false
	}
	if len(h) > 0 {
		rec.Key = h[0].Key
	} else {
		rec.Key = string(key)
	}
	r[rec.Key] = append(h, rec)
	return true
}

func (r recorder) Truncate(key []byte, keep int) {
	if h := r[string(key)]; keep < len(h) {
		if keep == 0 {
			delete(r, string(key))
		} else {
			r[string(key)] = h[:keep]
		}
	}
}

func (r recorder) Drop(key []byte) { delete(r, string(key)) }

// all lists every record, histories in key order: what Compact writes.
func (r recorder) all(put func(*PutRec)) {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, rec := range r[k] {
			put(rec)
		}
	}
}

// logPut appends rec to the log and mirrors it into r.
func logPut(t *testing.T, c *Catalog, r recorder, rec *PutRec) {
	t.Helper()
	if err := c.AppendPut(rec); err != nil {
		t.Fatal(err)
	}
	r.Put([]byte(rec.Key), rec)
}

// mustOpen opens dir, replaying it into a fresh recorder.
func mustOpen(t *testing.T, dir string) (*Catalog, recorder) {
	t.Helper()
	r := recorder{}
	c, err := Open(dir, Config{Receiver: r})
	if err != nil {
		t.Fatal(err)
	}
	return c, r
}

func sameRec(a, b *PutRec) bool {
	if a.Key != b.Key || a.Version != b.Version || a.StateID != b.StateID ||
		a.Size != b.Size || a.StoredUnixNano != b.StoredUnixNano ||
		a.NChunks != b.NChunks || a.TailLen != b.TailLen || a.TailHash != b.TailHash ||
		a.IsFull != b.IsFull || len(a.Full) != len(b.Full) || len(a.Mods) != len(b.Mods) ||
		len(a.Patches) != len(b.Patches) {
		return false
	}
	for i := range a.Patches {
		if a.Patches[i] != b.Patches[i] {
			return false
		}
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
	c, _ := mustOpen(t, dir)
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
	check := func(r recorder, phase string) {
		t.Helper()
		var got []string
		for k := range r {
			got = append(got, k)
		}
		sort.Strings(got)
		if len(got) != 2 || got[0] != keys[0] || got[1] != keys[1] {
			t.Fatalf("%s: keys = %v", phase, got)
		}
		if h := r[keys[0]]; len(h) != 5 {
			t.Fatalf("%s: %s has %d versions, want 5", phase, keys[0], len(h))
		} else {
			for v := int64(0); v < 5; v++ {
				if !sameRec(h[v], putRec(keys[0], v, v == 0)) {
					t.Fatalf("%s: version %d diverged: %+v", phase, v, h[v])
				}
			}
		}
		if h := r[keys[1]]; len(h) != 2 {
			t.Fatalf("%s: truncated key has %d versions, want 2", phase, len(h))
		}
	}
	c.Close()

	// Reopen from the log alone (no snapshot was written).
	c2, r2 := mustOpen(t, dir)
	if st := c2.Stats(); st.SnapshotRecords != 0 || st.LogRecords == 0 || st.TornBytes != 0 {
		t.Fatalf("log-only open stats: %+v", st)
	}
	check(r2, "log replay")

	// Compact and reopen from the snapshot alone.
	if err := c2.Compact(r2.all); err != nil {
		t.Fatal(err)
	}
	if c2.LogSize() != 0 {
		t.Fatalf("log not truncated by compaction: %d bytes", c2.LogSize())
	}
	c2.Close()
	c3, r3 := mustOpen(t, dir)
	if st := c3.Stats(); st.SnapshotRecords == 0 || st.LogRecords != 0 {
		t.Fatalf("snapshot-only open stats: %+v", st)
	}
	check(r3, "snapshot replay")

	// Append past the snapshot and reopen from snapshot+log.
	if err := c3.AppendPut(putRec(keys[0], 5, false)); err != nil {
		t.Fatal(err)
	}
	c3.Close()
	c4, r4 := mustOpen(t, dir)
	defer c4.Close()
	if h := r4[keys[0]]; len(h) != 6 {
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
	c, _ := mustOpen(t, master)
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
		cc, r := mustOpen(t, dir)
		wantVers := 3
		if cut == sizes[3] {
			wantVers = 4 // clean cut after the full record
		}
		h := r[k]
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
		cc2, r2 := mustOpen(t, dir)
		if h := r2[k]; len(h) != wantVers+1 || h[len(h)-1].Version != 9 {
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
	c, r := mustOpen(t, dir)
	k := "fs1\x00/f"
	for v := int64(0); v < 3; v++ {
		logPut(t, c, r, putRec(k, v, v == 0))
	}
	preCompact, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AppendTruncate(k, 2); err != nil {
		t.Fatal(err)
	}
	r.Truncate([]byte(k), 2)
	if err := c.Compact(r.all); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Simulate the un-truncated log surviving next to the new snapshot.
	if err := os.WriteFile(filepath.Join(dir, logName), preCompact, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, r2 := mustOpen(t, dir)
	defer c2.Close()
	st := c2.Stats()
	if st.StaleSkipped != 3 {
		t.Fatalf("stale log records skipped = %d, want 3", st.StaleSkipped)
	}
	// The truncate (covered by the snapshot) must hold: 2 versions, not 3.
	if h := r2[k]; len(h) != 2 {
		t.Fatalf("stale log resurrected versions: %d, want 2", len(h))
	}
}

// TestAutoCompaction: checkpoints taken whenever the log passes a threshold,
// as the archive takes them, each written from the receiver's records while
// appends go on between them, lose nothing.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	c, r := mustOpen(t, dir)
	k := "fs1\x00/f"
	compactions := 0
	for v := int64(0); v < 50; v++ {
		logPut(t, c, r, putRec(k, v, v == 0))
		if c.LogSize() > 256 { // tiny threshold: compact every few records
			if err := c.Compact(r.all); err != nil {
				t.Fatal(err)
			}
			compactions++
		}
	}
	if compactions < 5 || c.LogSize() > 256 {
		t.Fatalf("%d compactions, log is %d bytes", compactions, c.LogSize())
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot after auto-compaction: %v", err)
	}
	c.Close()
	c2, r2 := mustOpen(t, dir)
	defer c2.Close()
	if h := r2[k]; len(h) != 50 {
		t.Fatalf("replay after auto-compaction: %d versions, want 50", len(h))
	}
}

// TestTrimIsPersistedByCompact: a replay-time trim in the receiver (the
// archive's missing-blob repair) is invisible to the log but survives via the
// following Compact, which writes what the receiver holds.
func TestTrimIsPersistedByCompact(t *testing.T) {
	dir := t.TempDir()
	c, _ := mustOpen(t, dir)
	k := "fs1\x00/f"
	for v := int64(0); v < 4; v++ {
		if err := c.AppendPut(putRec(k, v, v == 0)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	c, r := mustOpen(t, dir)
	r[k] = r[k][:2]
	if err := c.Compact(r.all); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2, r2 := mustOpen(t, dir)
	defer c2.Close()
	if h := r2[k]; len(h) != 2 {
		t.Fatalf("trim lost: %d versions, want 2", len(h))
	}
}

// TestClosedCatalogRejectsAppends: appends after Close fail loudly instead of
// writing to a closed handle.
func TestClosedCatalogRejectsAppends(t *testing.T) {
	c, _ := mustOpen(t, t.TempDir())
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
	c, _ := mustOpen(t, dir)
	k := "fs1\x00/big"
	r := &PutRec{Key: k, Version: 0, NChunks: 1024, IsFull: true}
	for i := 0; i < 1024; i++ {
		r.Full = append(r.Full, hashOf(byte(i%251)))
	}
	if err := c.AppendPut(r); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2, hists := mustOpen(t, dir)
	defer c2.Close()
	h := hists[k]
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
			c2, r := mustOpen(t, dir)
			defer c2.Close()
			if got := len(r["fs1\x00/f"]); got != 3 {
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
		c, _ := mustOpen(t, dir)
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
		c, r := mustOpen(t, dir)
		torn := c.Stats().TornBytes
		if torn <= 0 || torn >= int64(len(whole)) {
			t.Fatalf("round %d: torn bytes = %d", round, torn)
		}
		if got := len(r[k]); got != round+1 {
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
// sliding window, not whole — beyond what handing the same records to an
// empty receiver costs, a replay of 10 000 records allocates a small fraction
// of the file's length — and decodes the records into shared blocks: a
// quarter of a heap object per record, not three. Without a receiver, Open
// only checks the records, and allocates next to nothing for them.
func TestOpenScanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	dir := t.TempDir()
	c, _ := mustOpen(t, dir)
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

	replayed, _ := allocated(func() {
		rp := replay{to: recorder{}}
		for _, p := range payloads {
			if err := rp.apply(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	reopen := func(from string, fileLen int64) (OpenStats, recorder) {
		t.Helper()
		var (
			cc  *Catalog
			rec recorder
			err error
		)
		open, objects := allocated(func() {
			rec = recorder{}
			cc, err = Open(dir, Config{Receiver: rec})
		})
		if err != nil {
			t.Fatal(err)
		}
		st := cc.Stats()
		cc.Close()
		if st.LogRecords+st.SnapshotRecords != records || st.TornBytes != 0 {
			t.Fatalf("%s: reopen applied %d+%d of %d records (%d torn bytes)", from, st.SnapshotRecords, st.LogRecords, records, st.TornBytes)
		}
		if scan := open - replayed; scan*4 >= fileLen {
			t.Fatalf("%s: open allocated %d B, %d B more than applying the records; the file is %d B, budget 1/4 of it", from, open, scan, fileLen)
		}
		if objects*4 > records {
			t.Fatalf("%s: open allocated %d objects for %d records, budget 0.25 per record", from, objects, records)
		}
		_, objects = allocated(func() { cc, err = Open(dir, Config{}) })
		if err != nil {
			t.Fatal(err)
		}
		if got := cc.Stats(); got != st {
			t.Fatalf("%s: a check-only open read %+v, the replay %+v", from, got, st)
		}
		cc.Close()
		if objects > 64 {
			t.Fatalf("%s: a check-only open allocated %d objects for %d records", from, objects, records)
		}
		return st, rec
	}
	_, fromLog := reopen("log", logLen)
	c, _ = mustOpen(t, dir)
	if err := c.Compact(fromLog.all); err != nil {
		t.Fatal(err)
	}
	c.Close()
	snap, err := os.Stat(filepath.Join(dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := reopen("snapshot", snap.Size()); st.SnapshotRecords != records {
		t.Fatalf("snapshot-only open loaded %d snapshot records, want %d", st.SnapshotRecords, records)
	}
}

// TestPatchedRecordsRoundtrip: the second put-record version — a checkpoint
// and a delta whose slots carry patches — survives a log replay and a
// snapshot, beside first-version records, and only a record with patches is
// written in it.
func TestPatchedRecordsRoundtrip(t *testing.T) {
	const key = "fs1\x00/p"
	want := []*PutRec{putRec(key, 0, true), patchedRec(key, 1, false), putRec(key, 2, false), patchedRec(key, 3, true)}
	for _, r := range want {
		kind := encodePut(1, r)[1]
		if (kind == kindPutPatched) != (len(r.Patches) > 0) || (kind != kindPut && kind != kindPutPatched) {
			t.Fatalf("version %d (%d patches) written as kind %d", r.Version, len(r.Patches), kind)
		}
	}
	dir := t.TempDir()
	c, _ := mustOpen(t, dir)
	for _, r := range want {
		if err := c.AppendPut(r); err != nil {
			t.Fatal(err)
		}
	}
	check := func(r recorder, phase string) {
		t.Helper()
		got := r[key]
		if len(got) != len(want) {
			t.Fatalf("%s: %d versions, want %d", phase, len(got), len(want))
		}
		for i := range want {
			if !sameRec(got[i], want[i]) {
				t.Fatalf("%s: version %d replayed as %+v", phase, i, *got[i])
			}
		}
	}
	c.Close()
	c, r := mustOpen(t, dir)
	check(r, "log replay")
	if err := c.Compact(r.all); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c, r = mustOpen(t, dir)
	defer c.Close()
	if st := c.Stats(); st.SnapshotRecords != len(want) || st.LogRecords != 0 {
		t.Fatalf("snapshot open stats: %+v", st)
	}
	check(r, "snapshot")
}
