package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datalinks/internal/fsyncer"
)

func openDisk(t *testing.T, dir string, segBytes int64) *Log {
	t.Helper()
	l, err := Open(Config{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustAppend(t *testing.T, l *Log, typ RecType, txn uint64, payload []byte) LSN {
	t.Helper()
	lsn, err := l.Append(Record{Type: typ, TxnID: txn, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func logRecords(t *testing.T, l *Log) []Record {
	t.Helper()
	var recs []Record
	if err := l.Scan(NilLSN, NilLSN, func(r Record) bool {
		recs = append(recs, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir, 0)
	var want []Record
	for i := 0; i < 50; i++ {
		rec := Record{
			Type:    RecType(i%int(RecPrepare) + 1),
			TxnID:   uint64(i % 7),
			PrevLSN: LSN(i),
			UndoLSN: LSN(i / 2),
			Payload: []byte(fmt.Sprintf("payload-%d-%s", i, strings.Repeat("x", i*3))),
		}
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Scan(NilLSN, NilLSN, func(r Record) bool { want = append(want, r); return true }); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2 := openDisk(t, dir, 0)
	defer l2.Close()
	if l2.TailLSN() != 50 || l2.DurableLSN() != 50 {
		t.Fatalf("tail %d durable %d after reopen, want 50/50", l2.TailLSN(), l2.DurableLSN())
	}
	got := logRecords(t, l2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.LSN != g.LSN || w.Type != g.Type || w.TxnID != g.TxnID ||
			w.PrevLSN != g.PrevLSN || w.UndoLSN != g.UndoLSN || string(w.Payload) != string(g.Payload) {
			t.Fatalf("record %d differs after reopen:\n  want %+v\n  got  %+v", i, w, g)
		}
	}
	if l2.TornBytes() != 0 {
		t.Fatalf("clean reopen quarantined %d bytes", l2.TornBytes())
	}
}

func TestDiskCrashDropsUnflushedTail(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir, 0)
	mustAppend(t, l, RecBegin, 1, nil)
	mustAppend(t, l, RecUpdate, 1, []byte("durable"))
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, RecUpdate, 1, []byte("volatile"))
	mustAppend(t, l, RecCommit, 1, nil)

	l2 := l.Crash()
	defer l2.Close()
	if l2.TailLSN() != 2 {
		t.Fatalf("tail after crash = %d, want 2 (unflushed tail must vanish)", l2.TailLSN())
	}
	if _, err := l.Append(Record{Type: RecBegin}); err != ErrClosed {
		t.Fatalf("append on crashed log: err = %v, want ErrClosed", err)
	}
	// The reopened log continues the LSN sequence.
	if lsn := mustAppend(t, l2, RecBegin, 2, nil); lsn != 3 {
		t.Fatalf("next LSN after crash = %d, want 3", lsn)
	}
}

func TestDiskKillThenOpen(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir, 0)
	mustAppend(t, l, RecBegin, 1, nil)
	mustAppend(t, l, RecUpdate, 1, []byte("keep"))
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, RecUpdate, 1, []byte("lost"))
	l.Kill()

	l2 := openDisk(t, dir, 0) // lock must have been released by Kill
	defer l2.Close()
	if l2.TailLSN() != 2 {
		t.Fatalf("tail after kill+open = %d, want 2", l2.TailLSN())
	}
	recs := logRecords(t, l2)
	if string(recs[1].Payload) != "keep" {
		t.Fatalf("surviving payload = %q, want %q", recs[1].Payload, "keep")
	}
}

// TestDiskTornTailEveryByte truncates the segment file at EVERY byte boundary
// inside the last record's frame and verifies each reopen recovers exactly
// the unharmed prefix, quarantining the torn bytes.
func TestDiskTornTailEveryByte(t *testing.T) {
	seed := t.TempDir()
	l := openDisk(t, seed, 0)
	for i := 0; i < 5; i++ {
		mustAppend(t, l, RecUpdate, 1, []byte(fmt.Sprintf("record-%d-%s", i, strings.Repeat("y", 20+i))))
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	segs, err := segments(seed).List()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("seed produced %d segments, want 1", len(segs))
	}
	whole, err := os.ReadFile(segments(seed).Path(segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	prefix, recs := decodeFrames(whole, 1)
	if prefix != len(whole) || len(recs) != 5 {
		t.Fatalf("seed file does not decode cleanly: %d/%d bytes, %d records", prefix, len(whole), len(recs))
	}
	// The valid prefix of the file minus one byte ends exactly where the
	// last frame starts.
	lastStart, recs4 := decodeFrames(whole[:len(whole)-1], 1)
	if len(recs4) != 4 {
		t.Fatalf("expected 4 records before the last frame, got %d", len(recs4))
	}

	for cut := lastStart; cut < len(whole); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(segments(dir).Path(1), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		if l2.TailLSN() != 4 {
			t.Fatalf("cut=%d: tail = %d, want 4", cut, l2.TailLSN())
		}
		if wantTorn := int64(cut - lastStart); l2.TornBytes() != wantTorn {
			t.Fatalf("cut=%d: torn bytes = %d, want %d", cut, l2.TornBytes(), wantTorn)
		}
		got := logRecords(t, l2)
		for i := range got {
			if string(got[i].Payload) != string(recs4[i].Payload) {
				t.Fatalf("cut=%d: record %d payload differs", cut, i)
			}
		}
		// The log must keep working: append + flush + reopen.
		if lsn := mustAppend(t, l2, RecCommit, 1, []byte("after-tear")); lsn != 5 {
			t.Fatalf("cut=%d: next LSN = %d, want 5", cut, lsn)
		}
		if _, err := l2.Flush(); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		l3, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: second open: %v", cut, err)
		}
		if l3.TailLSN() != 5 || l3.TornBytes() != 0 {
			t.Fatalf("cut=%d: post-repair reopen tail=%d torn=%d, want 5/0", cut, l3.TailLSN(), l3.TornBytes())
		}
		l3.Close()
	}
}

// TestDiskTornTailCorruptedByte flips every byte of the last frame in turn:
// CRC must reject the frame and recovery keeps the 4-record prefix.
func TestDiskTornTailCorruptedByte(t *testing.T) {
	seed := t.TempDir()
	l := openDisk(t, seed, 0)
	for i := 0; i < 5; i++ {
		mustAppend(t, l, RecUpdate, 1, []byte(fmt.Sprintf("rec-%d", i)))
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	segs, _ := segments(seed).List()
	whole, err := os.ReadFile(segments(seed).Path(segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	lastStart, recs4 := decodeFrames(whole[:len(whole)-1], 1)
	if len(recs4) != 4 {
		t.Fatalf("want 4 records before last frame, got %d", len(recs4))
	}
	for pos := lastStart; pos < len(whole); pos++ {
		dir := t.TempDir()
		mangled := append([]byte(nil), whole...)
		mangled[pos] ^= 0xff
		if err := os.WriteFile(segments(dir).Path(1), mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("pos=%d: open: %v", pos, err)
		}
		// A flipped byte in the length header can make the frame look short
		// (torn) or invalid (CRC); either way the 4-record prefix survives.
		if l2.TailLSN() != 4 {
			t.Fatalf("pos=%d: tail = %d, want 4", pos, l2.TailLSN())
		}
		if l2.TornBytes() == 0 {
			t.Fatalf("pos=%d: corruption quarantined no bytes", pos)
		}
		l2.Close()
	}
}

func TestDiskSegmentRotationAndTruncateHead(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir, 256) // tiny segments force rotation
	payload := []byte(strings.Repeat("z", 100))
	for i := 0; i < 12; i++ {
		mustAppend(t, l, RecUpdate, 1, payload)
		if _, err := l.Flush(); err != nil { // flush each to land in own batch
			t.Fatal(err)
		}
	}
	segs, err := segments(dir).List()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected >=3 segments after rotation, got %d", len(segs))
	}

	// Truncate below LSN 9: whole segments below it disappear, the log's
	// base moves to the first retained segment, records stay readable.
	if err := l.TruncateHead(9); err != nil {
		t.Fatal(err)
	}
	after, err := segments(dir).List()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(segs) {
		t.Fatalf("TruncateHead removed nothing: %d -> %d segments", len(segs), len(after))
	}
	if l.Base() == NilLSN || l.Base() >= 9 {
		t.Fatalf("base after truncate = %d, want in (0, 9)", l.Base())
	}
	if _, err := l.Read(l.Base()); err == nil {
		t.Fatal("read at base should fail")
	}
	if r, err := l.Read(9); err != nil || r.LSN != 9 {
		t.Fatalf("read(9) after truncate: %v, %+v", err, r)
	}

	// Reopen: the retained records (including those below the anchor still
	// in the first retained segment) replay with correct LSNs.
	l.Close()
	l2 := openDisk(t, dir, 256)
	defer l2.Close()
	if l2.Base() == NilLSN || l2.TailLSN() != 12 {
		t.Fatalf("reopen after truncate: base=%d tail=%d, want base>0 tail=12", l2.Base(), l2.TailLSN())
	}
	recs := logRecords(t, l2)
	if recs[0].LSN != l2.Base()+1 {
		t.Fatalf("first replayed LSN = %d, want %d", recs[0].LSN, l2.Base()+1)
	}
}

func TestDiskMemoryTruncateHead(t *testing.T) {
	l := New()
	for i := 0; i < 10; i++ {
		mustAppend(t, l, RecUpdate, 1, []byte("m"))
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateHead(7); err != nil {
		t.Fatal(err)
	}
	if l.Base() != 6 {
		t.Fatalf("memory base = %d, want 6", l.Base())
	}
	if _, err := l.Read(6); err == nil {
		t.Fatal("read below base should fail")
	}
	if r, err := l.Read(7); err != nil || r.LSN != 7 {
		t.Fatalf("read(7): %v %+v", err, r)
	}
	if lsn := mustAppend(t, l, RecUpdate, 1, nil); lsn != 11 {
		t.Fatalf("append after truncate LSN = %d, want 11", lsn)
	}
}

func TestDiskLockExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir, 0)
	defer l.Close()
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("second Open on a locked dir must fail")
	} else if !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second open error = %v, want lock refusal", err)
	}
}

func TestDiskLastCheckpointAndOdometer(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir, 0)
	mustAppend(t, l, RecUpdate, 1, []byte("aaaa"))
	ck := mustAppend(t, l, RecCheckpoint, 0, []byte{0x02, 0x01}) // payload-bearing anchor
	if l.SizeSinceCheckpoint() != 0 {
		t.Fatalf("odometer after checkpoint = %d, want 0", l.SizeSinceCheckpoint())
	}
	mustAppend(t, l, RecUpdate, 1, []byte("bbbb"))
	if l.SizeSinceCheckpoint() == 0 {
		t.Fatal("odometer did not advance")
	}
	if l.LastCheckpoint() != NilLSN {
		t.Fatal("unflushed checkpoint must not anchor")
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.LastCheckpoint() != ck {
		t.Fatalf("LastCheckpoint = %d, want %d", l.LastCheckpoint(), ck)
	}
	l.Close()

	l2 := openDisk(t, dir, 0)
	defer l2.Close()
	if l2.LastCheckpoint() != ck {
		t.Fatalf("LastCheckpoint after reopen = %d, want %d", l2.LastCheckpoint(), ck)
	}
	if l2.SizeSinceCheckpoint() == 0 {
		t.Fatal("odometer after reopen should count the post-checkpoint record")
	}
}

func TestDiskFsyncPolicies(t *testing.T) {
	for _, pol := range []fsyncer.Policy{fsyncer.PolicyNone, fsyncer.PolicyGroup, fsyncer.PolicyAlways} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Config{Dir: dir, Fsync: pol})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				mustAppend(t, l, RecUpdate, 1, []byte("p"))
				if err := l.FlushTo(LSN(i + 1)); err != nil {
					t.Fatal(err)
				}
			}
			if pol == fsyncer.PolicyNone && l.SyncCount() != 0 {
				t.Fatalf("policy none issued %d fsyncs", l.SyncCount())
			}
			if pol != fsyncer.PolicyNone && l.SyncCount() == 0 {
				t.Fatalf("policy %v issued no fsyncs", pol)
			}
			if l.SyncPolicy() != pol {
				t.Fatalf("SyncPolicy = %v, want %v", l.SyncPolicy(), pol)
			}
			l.Close()
			l2, err := Open(Config{Dir: dir, Fsync: pol})
			if err != nil {
				t.Fatal(err)
			}
			if l2.TailLSN() != 3 {
				t.Fatalf("tail after reopen = %d, want 3", l2.TailLSN())
			}
			l2.Close()
		})
	}
}

func TestDiskGapBetweenSegmentsQuarantined(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir, 128)
	for i := 0; i < 8; i++ {
		mustAppend(t, l, RecUpdate, 1, []byte(strings.Repeat("g", 64)))
		if _, err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := segments(dir).List()
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	// Delete a middle segment: everything after the hole is unusable.
	if err := os.Remove(segments(dir).Path(segs[1])); err != nil {
		t.Fatal(err)
	}
	l2 := openDisk(t, dir, 128)
	defer l2.Close()
	if l2.TailLSN() >= 8 {
		t.Fatalf("tail = %d after losing a middle segment, want < 8", l2.TailLSN())
	}
	if l2.TornBytes() == 0 {
		t.Fatal("post-gap segments were not quarantined")
	}
}

// TestDiskSecondTearKeepsFirstTearsEvidence: wal.torn is appended to, never
// overwritten — after two crashes it holds both torn suffixes in order, while
// TornBytes reports the latest repair only.
func TestDiskSecondTearKeepsFirstTearsEvidence(t *testing.T) {
	dir := t.TempDir()
	seg := segments(dir).Path(1)
	var evidence []byte
	for round, cut := range []int{5, 9} {
		l := openDisk(t, dir, 0)
		mustAppend(t, l, RecUpdate, 1, []byte(strings.Repeat("k", 30)))
		mustAppend(t, l, RecUpdate, 1, []byte(strings.Repeat("t", 30)))
		if _, err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		whole, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, int64(len(whole)-cut)); err != nil {
			t.Fatal(err)
		}
		l = openDisk(t, dir, 0)
		torn := int(l.TornBytes())
		if torn <= 0 || l.TailLSN() != LSN(round+1) {
			t.Fatalf("round %d: torn=%d tail=%d, want torn>0 tail=%d", round, torn, l.TailLSN(), round+1)
		}
		l.Close()
		evidence = append(evidence, whole[len(whole)-cut-torn:len(whole)-cut]...)
		if got, err := os.ReadFile(filepath.Join(dir, tornName)); err != nil || string(got) != string(evidence) {
			t.Fatalf("round %d: wal.torn holds %d bytes (%v), want both tears' %d in order", round, len(got), err, len(evidence))
		}
	}
}

// TestDiskOverlapBetweenSegmentsQuarantined: a segment whose name claims
// LSNs the previous segment already holds is no continuation either — it and
// everything after it go to wal.torn whole, in segment order, and the log
// keeps appending from the end of the valid prefix.
func TestDiskOverlapBetweenSegmentsQuarantined(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir, 128)
	for i := 0; i < 8; i++ {
		mustAppend(t, l, RecUpdate, 1, []byte(strings.Repeat("o", 64)))
		if _, err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	files := segments(dir)
	segs, _ := files.List()
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	var lost []byte
	for _, first := range segs[1:] {
		data, err := os.ReadFile(files.Path(first))
		if err != nil {
			t.Fatal(err)
		}
		lost = append(lost, data...)
	}
	if err := os.Rename(files.Path(segs[1]), files.Path(segs[1]-1)); err != nil {
		t.Fatal(err)
	}

	l2 := openDisk(t, dir, 128)
	if want := LSN(segs[1] - 1); l2.TailLSN() != want {
		t.Fatalf("tail = %d after an overlapping segment, want %d", l2.TailLSN(), want)
	}
	if l2.TornBytes() != int64(len(lost)) {
		t.Fatalf("torn bytes = %d, want %d", l2.TornBytes(), len(lost))
	}
	if got, err := os.ReadFile(filepath.Join(dir, tornName)); err != nil || string(got) != string(lost) {
		t.Fatalf("wal.torn holds %d bytes (%v), want the %d bytes of the discarded segments in order", len(got), err, len(lost))
	}
	if after, _ := files.List(); len(after) != 1 {
		t.Fatalf("%d segments survive, want only the first", len(after))
	}
	if lsn := mustAppend(t, l2, RecUpdate, 1, []byte("next")); lsn != LSN(segs[1]) {
		t.Fatalf("next LSN = %d, want %d", lsn, segs[1])
	}
	if _, err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3 := openDisk(t, dir, 128)
	defer l3.Close()
	if l3.TornBytes() != 0 || l3.TailLSN() != LSN(segs[1]) {
		t.Fatalf("reopen after repair: torn=%d tail=%d, want 0/%d", l3.TornBytes(), l3.TailLSN(), segs[1])
	}
}
