package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// scanFrames runs the file-backed scan over data with the given read-ahead
// and returns what it found: the valid length, every payload next was shown
// (copied — the window is reused), the largest record whose claim was
// admitted, and the scanner, for a look at its buffer.
func scanFrames(t testing.TB, data []byte, chunk int) (valid int64, payloads [][]byte, largest int, sc *Scanner) {
	t.Helper()
	sc = &Scanner{chunk: chunk}
	valid, err := sc.Scan(bytes.NewReader(data), int64(len(data)), frameHeaderLen, frameLen, func(rec []byte, off int64) bool {
		largest = max(largest, len(rec))
		payload, n, ok := NextFrame(rec)
		if !ok {
			return false
		}
		if n != len(rec) || !bytes.Equal(rec, data[off:off+int64(n)]) {
			t.Fatalf("record at %d: the window holds %d bytes that are not the stream's", off, len(rec))
		}
		payloads = append(payloads, append([]byte(nil), payload...))
		return true
	})
	if err != nil {
		t.Fatalf("scan over memory: %v", err)
	}
	return valid, payloads, largest, sc
}

// seedFromCorpus adds the []byte entries of another target's checked-in
// corpus (the "go test fuzz v1" file format) as seeds.
func seedFromCorpus(f *testing.F, target string, add func(data []byte)) {
	f.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		f.Fatalf("no seed corpus in %s (%v)", dir, err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		_, line, _ := strings.Cut(string(raw), "\n")
		quoted := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(line), "[]byte("), ")")
		data, err := strconv.Unquote(quoted)
		if err != nil {
			f.Fatalf("%s: %v", e.Name(), err)
		}
		add([]byte(data))
	}
}

// FuzzScanMatchesValidPrefix holds the file-backed scan to the in-memory one:
// over the same bytes both stop at the same offset having seen the same
// payloads, whatever the read-ahead, and the scan's buffer never outgrows
// the read-ahead or the largest record it admitted (or the header it read to
// refuse the first), whichever is larger.
func FuzzScanMatchesValidPrefix(f *testing.F) {
	seedFromCorpus(f, "FuzzValidPrefix", func(data []byte) {
		f.Add(data, uint16(0))
		f.Add(data, uint16(1))
		f.Add(data, uint16(13))
	})
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		var want [][]byte
		wantValid := ValidPrefix(data, func(rest []byte) (int, bool) {
			payload, n, ok := NextFrame(rest)
			if ok {
				want = append(want, payload)
			}
			return n, ok
		})
		valid, got, largest, sc := scanFrames(t, data, int(chunk))
		if valid != int64(wantValid) {
			t.Fatalf("scan stops at %d, ValidPrefix at %d", valid, wantValid)
		}
		if len(got) != len(want) {
			t.Fatalf("scan visited %d records, ValidPrefix %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d differs between the two scans", i)
			}
		}
		readAhead := int(chunk)
		if readAhead == 0 {
			readAhead = scanChunk
		}
		if bound := max(largest, frameHeaderLen, min(readAhead, len(data))); cap(sc.buf) > bound {
			t.Fatalf("buffer grew to %d; largest record admitted %d, read-ahead %d over %d bytes", cap(sc.buf), largest, readAhead, len(data))
		}
	})
}

// zeroTail reads as prefix followed by zeros for ever: a file as large as a
// test needs without the bytes.
type zeroTail struct{ prefix []byte }

func (z zeroTail) ReadAt(p []byte, off int64) (int, error) {
	clear(p)
	if off < int64(len(z.prefix)) {
		copy(p, z.prefix[off:])
	}
	return len(p), nil
}

// TestScanRefusesLengthClaims: a length field is checked against the bytes
// that are left and against MaxRecordBytes before it sizes anything — the
// scan ends at the record before it and the buffer is what that record
// needed.
func TestScanRefusesLengthClaims(t *testing.T) {
	good := AppendFrame(nil, []byte("the record before"))
	header := func(plen uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, plen), 0)
	}
	for _, tc := range []struct {
		name string
		tail []byte
		size int64 // of the stream; past the bytes given, zeros
	}{
		{"more than the file has left", append(header(1000), make([]byte, 999)...), 0},
		{"one more than MaxRecordBytes", header(MaxRecordBytes + 1), 1 << 40},
		{"all ones", header(^uint32(0)), 1 << 40},
		{"zero", header(0), 1 << 40},
		{"half a header", header(5)[:4], 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := append(append([]byte(nil), good...), tc.tail...)
			if tc.size == 0 {
				tc.size = int64(len(data))
			}
			sc := &Scanner{chunk: 1} // no read-ahead: the buffer is the record
			seen := 0
			valid, err := sc.ScanFrames(zeroTail{data}, tc.size, func([]byte) bool { seen++; return true })
			if err != nil || valid != int64(len(good)) || seen != 1 {
				t.Fatalf("valid = %d (%v) after %d records, want %d after 1", valid, err, seen, len(good))
			}
			if cap(sc.buf) != len(good) {
				t.Fatalf("buffer is %d bytes after a refused claim, want the %d of the record before it", cap(sc.buf), len(good))
			}
		})
	}
	// The caller's own format gets the same treatment: a claim shorter than
	// the header it was read from is no record.
	var sc Scanner
	for _, claim := range []int64{-1, 0, 3} {
		valid, err := sc.Scan(zeroTail{}, 100, 4, func([]byte) int64 { return claim }, func([]byte, int64) bool { return true })
		if valid != 0 || err != nil {
			t.Errorf("claim of %d bytes under a 4-byte header: valid = %d (%v), want 0", claim, valid, err)
		}
	}
}

// TestScannerReusedAcrossFiles: one Scanner walks file after file, its window
// starting over on each and its buffer carried along, grown only by a record
// that does not fit it.
func TestScannerReusedAcrossFiles(t *testing.T) {
	small := AppendFrame(AppendFrame(nil, []byte("a")), []byte("bb"))
	big := AppendFrame(nil, bytes.Repeat([]byte("x"), 300))
	sc := &Scanner{chunk: 64}
	for i, tc := range []struct {
		data    []byte
		wantCap int
	}{{small, len(small)}, {big, len(big)}, {small, len(big)}, {append(small, big...), len(big)}} {
		n := 0
		valid, err := sc.ScanFrames(bytes.NewReader(tc.data), int64(len(tc.data)), func([]byte) bool { n++; return true })
		if err != nil || valid != int64(len(tc.data)) {
			t.Fatalf("file %d: valid = %d (%v), want %d", i, valid, err, len(tc.data))
		}
		if cap(sc.buf) != tc.wantCap {
			t.Fatalf("file %d: buffer is %d bytes, want %d", i, cap(sc.buf), tc.wantCap)
		}
	}
}

// failingReader fails every read at or past failAt.
type failingReader struct {
	data   []byte
	failAt int64
}

var errDevice = errors.New("injected read error")

func (r failingReader) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > r.failAt {
		return 0, errDevice
	}
	return bytes.NewReader(r.data).ReadAt(p, off)
}

// TestScanReportsReadErrors: a device error is an error, not a torn tail —
// the caller must not repair what it could not read. A stream shorter than
// the caller said is one too.
func TestScanReportsReadErrors(t *testing.T) {
	data := AppendFrame(AppendFrame(nil, []byte("first")), []byte("second"))
	first := int64(frameHeaderLen + len("first"))
	sc := &Scanner{chunk: 1}
	valid, err := sc.ScanFrames(failingReader{data, first}, int64(len(data)), func([]byte) bool { return true })
	if !errors.Is(err, errDevice) || valid != first {
		t.Fatalf("valid = %d, err = %v; want %d and the device error", valid, err, first)
	}
	if _, err := sc.ScanFrames(bytes.NewReader(data[:first+3]), int64(len(data)), func([]byte) bool { return true }); !errors.Is(err, io.EOF) {
		t.Fatalf("stream shorter than its stated size: err = %v, want io.EOF", err)
	}
}

// TestRepairTailCopiesFromTheFile: the quarantine receives what the file
// holds past the valid prefix — the caller hands over no bytes — and a file
// with nothing past it leaves no quarantine behind.
func TestRepairTailCopiesFromTheFile(t *testing.T) {
	dir := t.TempDir()
	path, quarantine := filepath.Join(dir, "log"), filepath.Join(dir, "log.torn")
	kept := AppendFrame(nil, []byte("kept"))
	tail := bytes.Repeat([]byte("torn"), 100<<10) // larger than any copy buffer
	if err := os.WriteFile(path, append(append([]byte(nil), kept...), tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RepairTail(path, int64(len(kept)), quarantine, false); err != nil {
		t.Fatal(err)
	}
	if q, err := os.ReadFile(quarantine); err != nil || !bytes.Equal(q, tail) {
		t.Fatalf("quarantine holds %d bytes (%v), want the file's %d-byte tail", len(q), err, len(tail))
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, kept) {
		t.Fatalf("repaired file holds %d bytes (%v), want the valid prefix", len(got), err)
	}
	os.Remove(quarantine)
	if err := RepairTail(path, int64(len(kept)), quarantine, true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(quarantine); !os.IsNotExist(err) {
		t.Fatalf("a repair with nothing torn created a quarantine file (%v)", err)
	}
}
