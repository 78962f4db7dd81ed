package wal

import (
	"testing"
	"testing/quick"
)

// newLog opens an empty log over a fresh test directory, closed at cleanup.
func newLog(t *testing.T) *Log {
	t.Helper()
	l := openDisk(t, t.TempDir(), 0)
	t.Cleanup(func() { l.Close() })
	return l
}

func TestAppendAssignsSequentialLSNs(t *testing.T) {
	l := newLog(t)
	for i := 1; i <= 5; i++ {
		lsn, err := l.Append(Record{Type: RecUpdate, TxnID: 1})
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if lsn != LSN(i) {
			t.Fatalf("lsn = %d, want %d", lsn, i)
		}
	}
	if got := l.TailLSN(); got != 5 {
		t.Fatalf("tail = %d, want 5", got)
	}
}

func TestFlushMakesDurable(t *testing.T) {
	l := newLog(t)
	l.Append(Record{Type: RecBegin, TxnID: 1})
	if l.DurableLSN() != 0 {
		t.Fatalf("durable before flush = %d, want 0", l.DurableLSN())
	}
	lsn, err := l.Flush()
	if err != nil || lsn != 1 {
		t.Fatalf("flush = %d, %v", lsn, err)
	}
	if l.DurableLSN() != 1 {
		t.Fatalf("durable = %d, want 1", l.DurableLSN())
	}
}

func TestFlushToIsIdempotent(t *testing.T) {
	l := newLog(t)
	l.Append(Record{Type: RecBegin, TxnID: 1})
	l.Append(Record{Type: RecCommit, TxnID: 1})
	if err := l.FlushTo(2); err != nil {
		t.Fatalf("flush to 2: %v", err)
	}
	n := l.FlushCount()
	if err := l.FlushTo(1); err != nil {
		t.Fatalf("flush to 1: %v", err)
	}
	if l.FlushCount() != n {
		t.Fatalf("redundant flush issued a physical flush")
	}
}

func TestFlushToBeyondTailErrors(t *testing.T) {
	l := newLog(t)
	if err := l.FlushTo(3); err == nil {
		t.Fatal("flush beyond tail should error")
	}
}

// Append copies the payload into its write buffer: a caller that reuses its
// buffer once Append returns changes no record, neither one still buffered
// nor one read back from the segment after a reopen.
func TestAppendCopiesPayload(t *testing.T) {
	dir := t.TempDir()
	l := openDisk(t, dir, 0)
	buf := []byte("hello")
	mustAppend(t, l, RecUpdate, 1, buf)
	copy(buf, "HELLO")
	if r, ok := readAt(t, l, 1); !ok || string(r.Payload) != "hello" {
		t.Fatalf("buffered record reads %q after the caller reused its buffer, want %q", r.Payload, "hello")
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	copy(buf, "xxxxx")
	l.Close()
	l2 := openDisk(t, dir, 0)
	defer l2.Close()
	if r, ok := readAt(t, l2, 1); !ok || string(r.Payload) != "hello" {
		t.Fatalf("record reads %q after a reopen, want %q", r.Payload, "hello")
	}
}

// Reading outside (base, tail] serves nothing: not past the tail, not at or
// below a truncated base.
func TestReadOutOfRange(t *testing.T) {
	l := fillLog(t, 6, 4)
	if _, ok := readAt(t, l, 7); ok {
		t.Fatal("read past tail served a record")
	}
	if err := l.Scan(7, 9, func(r Record) bool {
		t.Fatalf("scan past the tail served LSN %d", r.LSN)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateHead(4); err != nil {
		t.Fatal(err)
	}
	for lsn := LSN(1); lsn <= 3; lsn++ {
		if r, ok := readAt(t, l, lsn); ok {
			t.Fatalf("read of truncated LSN %d served %+v", lsn, r)
		}
	}
	if r, ok := readAt(t, l, 4); !ok || string(r.Payload) != "r4" {
		t.Fatalf("read of the first retained record: %+v, %v", r, ok)
	}
}

func TestCrashDiscardsVolatileTail(t *testing.T) {
	l := newLog(t)
	l.Append(Record{Type: RecBegin, TxnID: 1})
	l.Append(Record{Type: RecUpdate, TxnID: 1})
	l.Flush()
	l.Append(Record{Type: RecCommit, TxnID: 1}) // not flushed

	recovered, err := l.Crash()
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.TailLSN() != 2 {
		t.Fatalf("recovered tail = %d, want 2", recovered.TailLSN())
	}
	// The crashed log must reject further writes.
	if _, err := l.Append(Record{Type: RecEnd, TxnID: 1}); err != ErrClosed {
		t.Fatalf("append to crashed log: err = %v, want ErrClosed", err)
	}
	// The recovered log accepts new appends continuing the LSN sequence.
	lsn, err := recovered.Append(Record{Type: RecAbort, TxnID: 1})
	if err != nil || lsn != 3 {
		t.Fatalf("append after recovery = %d, %v", lsn, err)
	}
}

func TestScanRange(t *testing.T) {
	l := newLog(t)
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: RecUpdate, TxnID: uint64(i)})
	}
	var seen []LSN
	l.Scan(3, 6, func(r Record) bool {
		seen = append(seen, r.LSN)
		return true
	})
	if len(seen) != 4 || seen[0] != 3 || seen[3] != 6 {
		t.Fatalf("scan range saw %v", seen)
	}
	// Early stop.
	count := 0
	l.Scan(NilLSN, NilLSN, func(r Record) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop scanned %d records", count)
	}
}

func TestBackchainTraversal(t *testing.T) {
	l := newLog(t)
	var prev LSN
	for i := 0; i < 4; i++ {
		lsn, _ := l.Append(Record{Type: RecUpdate, TxnID: 9, PrevLSN: prev})
		prev = lsn
	}
	// Walk backwards.
	count := 0
	cur := prev
	for cur != NilLSN {
		rec, ok := readAt(t, l, cur)
		if !ok {
			t.Fatalf("no record at %d", cur)
		}
		count++
		cur = rec.PrevLSN
	}
	if count != 4 {
		t.Fatalf("backchain length = %d, want 4", count)
	}
}

// Property: after any sequence of appends and one crash, the recovered log
// contains exactly the records appended before the last flush, in order.
func TestCrashPreservesDurablePrefixProperty(t *testing.T) {
	prop := func(nBefore, nAfter uint8) bool {
		l := newLog(t)
		before := int(nBefore % 50)
		after := int(nAfter % 50)
		for i := 0; i < before; i++ {
			l.Append(Record{Type: RecUpdate, TxnID: uint64(i)})
		}
		l.Flush()
		for i := 0; i < after; i++ {
			l.Append(Record{Type: RecUpdate, TxnID: uint64(1000 + i)})
		}
		rec, err := l.Crash()
		if err != nil {
			return false
		}
		defer rec.Close()
		if rec.TailLSN() != LSN(before) {
			return false
		}
		ok := true
		rec.Scan(NilLSN, NilLSN, func(r Record) bool {
			if r.TxnID != uint64(r.LSN-1) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecTypeString(t *testing.T) {
	types := []RecType{RecBegin, RecUpdate, RecCommit, RecAbort, RecEnd, RecCLR, RecCheckpoint, RecPrepare}
	want := []string{"BEGIN", "UPDATE", "COMMIT", "ABORT", "END", "CLR", "CHECKPOINT", "PREPARE"}
	for i, typ := range types {
		if typ.String() != want[i] {
			t.Errorf("String(%d) = %s, want %s", typ, typ.String(), want[i])
		}
	}
}
