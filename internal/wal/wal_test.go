package wal

import (
	"testing"
	"testing/quick"
)

func TestAppendAssignsSequentialLSNs(t *testing.T) {
	l := New()
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
	l := New()
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
	l := New()
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
	l := New()
	if err := l.FlushTo(3); err == nil {
		t.Fatal("flush beyond tail should error")
	}
}

// Append takes ownership of the payload it is handed: the record Read serves
// is that slice, not a copy of it.
func TestAppendOwnsPayload(t *testing.T) {
	l := New()
	buf := []byte("hello")
	l.Append(Record{Type: RecUpdate, TxnID: 1, Payload: buf})
	rec, err := l.Read(1)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(rec.Payload) != "hello" || &rec.Payload[0] != &buf[0] {
		t.Fatalf("payload %q was copied, want the caller's slice", rec.Payload)
	}
}

func TestReadOutOfRange(t *testing.T) {
	l := New()
	if _, err := l.Read(0); err == nil {
		t.Fatal("read of NilLSN should error")
	}
	if _, err := l.Read(7); err == nil {
		t.Fatal("read past tail should error")
	}
}

func TestCrashDiscardsVolatileTail(t *testing.T) {
	l := New()
	l.Append(Record{Type: RecBegin, TxnID: 1})
	l.Append(Record{Type: RecUpdate, TxnID: 1})
	l.Flush()
	l.Append(Record{Type: RecCommit, TxnID: 1}) // not flushed

	recovered := l.Crash()
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
	l := New()
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
	l := New()
	var prev LSN
	for i := 0; i < 4; i++ {
		lsn, _ := l.Append(Record{Type: RecUpdate, TxnID: 9, PrevLSN: prev})
		prev = lsn
	}
	// Walk backwards.
	count := 0
	cur := prev
	for cur != NilLSN {
		rec, err := l.Read(cur)
		if err != nil {
			t.Fatalf("read %d: %v", cur, err)
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
		l := New()
		before := int(nBefore % 50)
		after := int(nAfter % 50)
		for i := 0; i < before; i++ {
			l.Append(Record{Type: RecUpdate, TxnID: uint64(i)})
		}
		l.Flush()
		for i := 0; i < after; i++ {
			l.Append(Record{Type: RecUpdate, TxnID: uint64(1000 + i)})
		}
		rec := l.Crash()
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

func TestPrefixForPointInTimeRestore(t *testing.T) {
	l := New()
	for i := 0; i < 10; i++ {
		l.Append(Record{Type: RecUpdate, TxnID: uint64(i)})
	}
	l.Flush()
	p := l.Prefix(4)
	if p.TailLSN() != 4 || p.DurableLSN() != 4 {
		t.Fatalf("prefix tail=%d durable=%d", p.TailLSN(), p.DurableLSN())
	}
	// The prefix is independent: appends to it don't touch the original.
	p.Append(Record{Type: RecCommit, TxnID: 99})
	if l.TailLSN() != 10 {
		t.Fatalf("original mutated: tail=%d", l.TailLSN())
	}
	// Prefix beyond the tail clamps.
	if q := l.Prefix(99); q.TailLSN() != 10 {
		t.Fatalf("clamped prefix tail = %d", q.TailLSN())
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
