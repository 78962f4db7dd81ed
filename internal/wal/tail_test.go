package wal

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// seam is where the tail tests seal a segment: the record counts they use
// straddle it, so a scan crosses from a sealed segment into the active one
// or into the frames not yet written.
const seam = 255

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

// checkRange reads every LSN in [from, to] one at a time and through one
// whole Scan and checks each is the record fillLog (or a later append) put
// there, and that nothing is served just outside the range.
func checkRange(t *testing.T, l *Log, from, to LSN) {
	t.Helper()
	if l.TailLSN() != to {
		t.Fatalf("tail %d, want %d", l.TailLSN(), to)
	}
	for lsn := from; lsn <= to; lsn++ {
		r, ok := readAt(t, l, lsn)
		if !ok || r.LSN != lsn || string(r.Payload) != fmt.Sprintf("r%d", lsn) {
			t.Fatalf("read(%d) = %+v, %v", lsn, r, ok)
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
		if _, ok := readAt(t, l, from-1); ok {
			t.Fatalf("read(%d) below the base succeeded", from-1)
		}
	}
	if _, ok := readAt(t, l, to+1); ok {
		t.Fatalf("read(%d) past the tail succeeded", to+1)
	}
}

// A scan across the seam: one short of it, at it, one and two over (254 to
// 257 records), first with the records after the seal still unwritten, then
// with them written to the active segment.
func TestTailAtBlockBoundaries(t *testing.T) {
	for _, n := range []int{seam - 1, seam, seam + 1, seam + 2} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			l := fillLog(t, n, seam)
			checkRange(t, l, 1, LSN(n))
			if _, err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			mustAppend(t, l, RecUpdate, 0, []byte(fmt.Sprintf("r%d", n+1)))
			checkRange(t, l, 1, LSN(n+1))
		})
	}
}

// TruncateHead at and around the seam drops the sealed segments below its
// cut; appends after it continue in the surviving one.
func TestTailTruncateHeadAcrossBlocks(t *testing.T) {
	for _, keepFrom := range []LSN{2, seam, seam + 1, seam + 2, 2*seam + 1} {
		t.Run(fmt.Sprint(keepFrom), func(t *testing.T) {
			l := fillLog(t, 2*seam+1, keepFrom)
			if _, err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := l.TruncateHead(keepFrom); err != nil {
				t.Fatal(err)
			}
			if l.Base() != keepFrom-1 {
				t.Fatalf("base %d, want %d", l.Base(), keepFrom-1)
			}
			if segs := segmentFiles(t, l.Dir()); len(segs) != 1 {
				t.Fatalf("segments after the truncate: %v, want the one from %d", segs, keepFrom)
			}
			checkRange(t, l, keepFrom, 2*seam+1)
			for i := 2*seam + 2; i <= 3*seam+2; i++ {
				mustAppend(t, l, RecUpdate, 0, []byte(fmt.Sprintf("r%d", i)))
			}
			checkRange(t, l, keepFrom, 3*seam+2)
		})
	}
}

// Crash cuts the log at its durable prefix, a point inside, at the end of
// and past the seam; the reopened log keeps appending after it.
func TestTailPrefixAndCrashAcrossBlocks(t *testing.T) {
	for _, cut := range []LSN{seam - 1, seam, seam + 1} {
		t.Run(fmt.Sprint(cut), func(t *testing.T) {
			l := fillLog(t, int(cut))
			if _, err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := cut + 1; i <= 2*seam; i++ {
				mustAppend(t, l, RecUpdate, uint64(i), []byte(fmt.Sprintf("r%d", i)))
			}
			checkRange(t, l, 1, 2*seam)

			c, err := l.Crash() // keeps the durable prefix, 1..cut
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			checkRange(t, c, 1, cut)
			for i := cut + 1; i <= cut+seam; i++ {
				mustAppend(t, c, RecUpdate, 0, []byte(fmt.Sprintf("r%d", i)))
			}
			checkRange(t, c, 1, cut+seam)
		})
	}
}

// A Scan must serve an unbroken run of the right records while appends,
// flushes and seals add segments and checkpoints truncate them: a segment
// dropped under a running Scan stays readable until the Scan ends. Every
// flush seals its segment, so each TruncateHead drops the segments below
// its cut; at the end no dropped segment is left on disk.
func TestTailScanRacesAppendAndTruncate(t *testing.T) {
	l := newLog(t)
	const total = 4 * seam
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
		runtime.Gosched()
	}
	wg.Wait()
	if l.Base() == NilLSN {
		t.Fatal("no TruncateHead moved the base")
	}
	l.fileMu.Lock()
	want := len(l.segs)
	l.fileMu.Unlock()
	if segs := segmentFiles(t, l.Dir()); len(segs) != want {
		t.Fatalf("%d segment files on disk, want the %d retained: a dropped segment outlived the scans", len(segs), want)
	}
}

// Append allocates nothing per record once the frame buffer is grown: the
// log keeps no record, only its frame. A TruncateHead allocates only its
// small segment bookkeeping, whatever it keeps.
func TestAppendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	l := newLog(t)
	payload := []byte("p")
	const n = 16 * seam
	l.mu.Lock()
	l.pending = make([]byte, 0, n*64)
	l.mu.Unlock()
	appendN := func(k int) float64 {
		return testing.AllocsPerRun(k, func() {
			if _, err := l.Append(Record{Type: RecUpdate, TxnID: 1, Payload: payload}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if per := appendN(3*seam + 100); per != 0 {
		t.Errorf("Append: %.0f mallocs per record, want 0", per)
	}
	keepFrom := l.TailLSN() + 1
	if err := l.SealSegment(); err != nil {
		t.Fatal(err)
	}
	if per := appendN(n); per != 0 {
		t.Errorf("Append after a seal: %.0f mallocs per record, want 0", per)
	}
	if _, err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := l.TruncateHead(keepFrom); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 1024 {
		t.Errorf("TruncateHead allocated %d bytes", bytes)
	}
	if l.Base() != keepFrom-1 {
		t.Fatalf("base %d after TruncateHead(%d)", l.Base(), keepFrom)
	}
}
