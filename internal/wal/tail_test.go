package wal

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// fillLog appends n update records to a fresh log; record i (LSN i) carries
// payload "r<i>". A segment is sealed right before each LSN in sealAt, so
// TruncateHead can drop exactly the records below it.
func fillLog(t *testing.T, n int, sealAt ...LSN) *Log {
	t.Helper()
	l := newLog(t)
	for i := 1; i <= n; i++ {
		for _, s := range sealAt {
			if s == LSN(i) {
				if err := l.SealSegment(); err != nil {
					t.Fatal(err)
				}
			}
		}
		mustAppend(t, l, RecUpdate, uint64(i), []byte(fmt.Sprintf("r%d", i)))
	}
	return l
}

// checkRange reads every LSN in [from, to] through Read and Scan and checks
// each is the record fillLog (or a later append) put there.
func checkRange(t *testing.T, l *Log, from, to LSN) {
	t.Helper()
	if l.TailLSN() != to {
		t.Fatalf("tail %d, want %d", l.TailLSN(), to)
	}
	for lsn := from; lsn <= to; lsn++ {
		r, err := l.Read(lsn)
		if err != nil || r.LSN != lsn || string(r.Payload) != fmt.Sprintf("r%d", lsn) {
			t.Fatalf("read(%d) = %+v, %v", lsn, r, err)
		}
	}
	want := from
	if err := l.Scan(NilLSN, NilLSN, func(r Record) bool {
		if r.LSN != want || string(r.Payload) != fmt.Sprintf("r%d", want) {
			t.Fatalf("scan: got LSN %d (%q), want %d", r.LSN, r.Payload, want)
		}
		want++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want != to+1 {
		t.Fatalf("scan stopped at %d, want %d", want, to+1)
	}
	if from > 1 {
		if _, err := l.Read(from - 1); err == nil {
			t.Fatalf("read(%d) below the base succeeded", from-1)
		}
	}
	if _, err := l.Read(to + 1); err == nil {
		t.Fatalf("read(%d) past the tail succeeded", to+1)
	}
}

// The tail's block seams: one short of a block, exactly one, one and two
// over (254 to 257 records).
func TestTailAtBlockBoundaries(t *testing.T) {
	for _, n := range []int{blockRecords - 1, blockRecords, blockRecords + 1, blockRecords + 2} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			l := fillLog(t, n)
			checkRange(t, l, 1, LSN(n))
			mustAppend(t, l, RecUpdate, 0, []byte(fmt.Sprintf("r%d", n+1)))
			checkRange(t, l, 1, LSN(n+1))
		})
	}
}

// TruncateHead across a block seam drops the whole leading block; appends
// after it continue in the surviving one and spill into a fresh one.
func TestTailTruncateHeadAcrossBlocks(t *testing.T) {
	for _, keepFrom := range []LSN{2, blockRecords, blockRecords + 1, blockRecords + 2, 2*blockRecords + 1} {
		t.Run(fmt.Sprint(keepFrom), func(t *testing.T) {
			l := fillLog(t, 2*blockRecords+1, keepFrom)
			if _, err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := l.TruncateHead(keepFrom); err != nil {
				t.Fatal(err)
			}
			if l.Base() != keepFrom-1 {
				t.Fatalf("base %d, want %d", l.Base(), keepFrom-1)
			}
			if want := 3 - int(keepFrom-1)/blockRecords; len(l.records.blocks) != want {
				t.Fatalf("%d blocks retained after dropping %d records, want %d", len(l.records.blocks), keepFrom-1, want)
			}
			checkRange(t, l, keepFrom, 2*blockRecords+1)
			for i := 2*blockRecords + 2; i <= 3*blockRecords+2; i++ {
				mustAppend(t, l, RecUpdate, 0, []byte(fmt.Sprintf("r%d", i)))
			}
			checkRange(t, l, keepFrom, 3*blockRecords+2)
		})
	}
}

// Crash cuts the log at its durable prefix, a point inside, at the end of
// and past a block; the reopened log keeps appending after it.
func TestTailPrefixAndCrashAcrossBlocks(t *testing.T) {
	for _, cut := range []LSN{blockRecords - 1, blockRecords, blockRecords + 1} {
		t.Run(fmt.Sprint(cut), func(t *testing.T) {
			l := fillLog(t, int(cut))
			if _, err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := cut + 1; i <= 2*blockRecords; i++ {
				mustAppend(t, l, RecUpdate, uint64(i), []byte(fmt.Sprintf("r%d", i)))
			}
			checkRange(t, l, 1, 2*blockRecords)

			c, err := l.Crash() // keeps the durable prefix, 1..cut
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			checkRange(t, c, 1, cut)
			for i := cut + 1; i <= cut+blockRecords; i++ {
				mustAppend(t, c, RecUpdate, 0, []byte(fmt.Sprintf("r%d", i)))
			}
			checkRange(t, c, 1, cut+blockRecords)
		})
	}
}

// A Scan's view must stay valid while appends fill and add blocks and
// checkpoints drop them: every record it hands out is the one at its LSN.
// Run under -race, this also proves the view and the writers share no slot.
// Every flush seals its segment, so each TruncateHead drops the records of
// the segments below its cut.
func TestTailScanRacesAppendAndTruncate(t *testing.T) {
	l := newLog(t)
	const total = 4 * blockRecords
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= total; i++ {
			if _, err := l.Append(Record{Type: RecUpdate, TxnID: uint64(i), Payload: []byte(fmt.Sprintf("r%d", i))}); err != nil {
				t.Error(err)
				return
			}
			if i%37 == 0 {
				if _, err := l.Flush(); err != nil {
					t.Error(err)
					return
				}
				if err := l.SealSegment(); err != nil {
					t.Error(err)
					return
				}
				if err := l.TruncateHead(LSN(i - 20)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for done := false; !done; {
		done = l.TailLSN() == total
		var last LSN
		if err := l.Scan(NilLSN, NilLSN, func(r Record) bool {
			if r.TxnID != uint64(r.LSN) || string(r.Payload) != fmt.Sprintf("r%d", r.LSN) {
				t.Errorf("scan served %+v at LSN %d", r, r.LSN)
			}
			if last != 0 && r.LSN != last+1 {
				t.Errorf("scan skipped from %d to %d", last, r.LSN)
			}
			last = r.LSN
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// allocated reports the mallocs and bytes fn allocates.
func allocated(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// Append's amortized cost is at most one allocation per record, and its
// bytes are the records' own: a block per blockRecords records plus the
// small block index, never a copy of the records before it. TruncateHead
// allocates only a new block index, whatever it keeps. The frame buffer is
// pre-sized, so the budget measures the record tail, not the buffer's
// growth; the segment sealed between the two measured runs is what
// TruncateHead drops.
func TestAppendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	l := newLog(t)
	payload := []byte("p")
	const n = 16 * blockRecords
	const keepFrom = 3*blockRecords + 100
	l.mu.Lock()
	l.pending = make([]byte, 0, n*64)
	l.mu.Unlock()
	appendN := func(k int) (mallocs, bytes uint64) {
		return allocated(func() {
			for i := 0; i < k; i++ {
				if _, err := l.Append(Record{Type: RecUpdate, TxnID: 1, Payload: payload}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	mallocs, bytes := appendN(keepFrom - 1)
	if err := l.SealSegment(); err != nil {
		t.Fatal(err)
	}
	m2, b2 := appendN(n - (keepFrom - 1))
	mallocs, bytes = mallocs+m2, bytes+b2
	recBytes := uint64(n) * uint64(unsafe.Sizeof(Record{}))
	if mallocs > n {
		t.Errorf("%d appends: %d mallocs, want <= 1 per record", n, mallocs)
	}
	if bytes > recBytes+recBytes/8 {
		t.Errorf("%d appends allocated %d bytes (%d mallocs) for %d bytes of records: earlier records are being copied", n, bytes, mallocs, recBytes)
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	_, bytes = allocated(func() {
		if err := l.TruncateHead(keepFrom); err != nil {
			t.Fatal(err)
		}
	})
	if bytes > 1024 {
		t.Errorf("TruncateHead keeping %d records allocated %d bytes: the survivors were copied", l.records.n, bytes)
	}
	checkRecords := l.records.n
	if checkRecords != n-(keepFrom-1) {
		t.Fatalf("%d records kept, want %d", checkRecords, n-(keepFrom-1))
	}
}
