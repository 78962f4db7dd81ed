package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"datalinks/internal/fsyncer"
)

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// SealSegment is what lets TruncateHead, which deletes only whole sealed
// segments, drop everything below a checkpoint long before a segment fills.
func TestSealSegmentThenTruncateHead(t *testing.T) {
	for _, policy := range []fsyncer.Policy{fsyncer.PolicyNone, fsyncer.PolicyAlways} {
		dir := t.TempDir()
		l, err := Open(Config{Dir: dir, Fsync: policy})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			mustAppend(t, l, RecUpdate, 1, []byte("below the anchor"))
		}
		// Sealing writes the buffered tail but does not call it durable.
		if err := l.SealSegment(); err != nil {
			t.Fatal(err)
		}
		if l.DurableLSN() != 0 {
			t.Fatalf("%v: SealSegment moved the durable LSN to %d", policy, l.DurableLSN())
		}
		segs := segmentFiles(t, dir)
		if len(segs) != 2 || filepath.Base(segs[1]) != "wal-0000000000000011.log" {
			t.Fatalf("%v: segments after the seal: %v", policy, segs)
		}
		// A segment nothing was written to is not sealed again.
		if err := l.SealSegment(); err != nil || len(segmentFiles(t, dir)) != 2 {
			t.Fatalf("%v: second seal: %v, segments %v", policy, err, segmentFiles(t, dir))
		}
		mustAppend(t, l, RecCheckpoint, 0, []byte{2, 10})
		mustAppend(t, l, RecUpdate, 2, []byte("above the anchor"))
		if _, err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := l.TruncateHead(11); err != nil {
			t.Fatal(err)
		}
		if segs := segmentFiles(t, dir); len(segs) != 1 || l.Base() != 10 {
			t.Fatalf("%v: after TruncateHead(11): base %d, segments %v", policy, l.Base(), segs)
		}
		if recs := logRecords(t, l); len(recs) != 2 || recs[0].LSN != 11 || recs[0].Type != RecCheckpoint {
			t.Fatalf("%v: retained records %+v, want the checkpoint and its successor", policy, recs)
		}
		l.Kill()

		l2, err := Open(Config{Dir: dir, Fsync: policy})
		if err != nil {
			t.Fatal(err)
		}
		if l2.Base() != 10 || l2.TailLSN() != 12 || l2.TornBytes() != 0 {
			t.Fatalf("%v: reopen covers %d..%d with %d torn bytes, want 11..12 and none", policy, l2.Base()+1, l2.TailLSN(), l2.TornBytes())
		}
		l2.Close()
	}
}

// A crash right after the seal leaves an empty last segment; the next open
// keeps it as the active segment.
func TestSealedEmptySegmentSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir, 0)
	for i := 0; i < 4; i++ {
		mustAppend(t, l, RecUpdate, 1, []byte("x"))
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.SealSegment(); err != nil {
		t.Fatal(err)
	}
	l.Kill()
	empty := filepath.Join(dir, "wal-0000000000000005.log")
	if info, err := os.Stat(empty); err != nil || info.Size() != 0 {
		t.Fatalf("the sealed-off segment: %v, %v", info, err)
	}

	l2 := openDisk(t, dir, 0)
	if l2.TailLSN() != 4 || l2.TornBytes() != 0 {
		t.Fatalf("reopen: tail %d, torn %d", l2.TailLSN(), l2.TornBytes())
	}
	if lsn := mustAppend(t, l2, RecUpdate, 2, []byte("y")); lsn != 5 {
		t.Fatalf("first append after the reopen got LSN %d", lsn)
	}
	if _, err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if info, err := os.Stat(empty); err != nil || info.Size() == 0 || len(segmentFiles(t, dir)) != 2 {
		t.Fatalf("the append did not go to the empty segment: %v, %v, %v", info, err, segmentFiles(t, dir))
	}
	l3 := openDisk(t, dir, 0)
	defer l3.Close()
	if l3.TailLSN() != 5 {
		t.Fatalf("tail %d after the second reopen, want 5", l3.TailLSN())
	}
}

// Append frames the header and the payload it was handed straight into the
// pending buffer: with that buffer grown, it allocates nothing — no copy of
// the payload, no temporary for the header.
func TestAppendAllocatesNoPayloadBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	l := openDisk(t, t.TempDir(), 0)
	defer l.Close()
	payload := bytes.Repeat([]byte{0xab}, 256)
	const runs = 200
	l.mu.Lock()
	l.pending = make([]byte, 0, 2*runs*(len(payload)+64))
	l.mu.Unlock()
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := l.Append(Record{Type: RecUpdate, TxnID: 9, PrevLSN: 1 << 40, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append of a 256 B payload: %.0f mallocs, want 0", n)
	}
}
