package seglog

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frameNext is the plain-frame record parser for ValidPrefix.
func frameNext(rest []byte) (int, bool) {
	_, n, ok := NextFrame(rest)
	return n, ok
}

// stream builds a seeded random frame stream and returns it with the offsets
// at which its frames start (plus the end offset).
func stream(seed int64) (buf []byte, bounds []int, payloads [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	bounds = []int{0}
	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		p := make([]byte, 1+rng.Intn(120))
		rng.Read(p)
		payloads = append(payloads, p)
		buf = AppendFrame(buf, p)
		bounds = append(bounds, len(buf))
	}
	return buf, bounds, payloads
}

// lastBoundAtMost returns the largest frame boundary <= off.
func lastBoundAtMost(bounds []int, off int) int {
	best := 0
	for _, b := range bounds {
		if b <= off {
			best = b
		}
	}
	return best
}

// TestValidPrefixEveryCutAndFlip: over seeded random streams, cutting the
// stream at every byte offset and flipping every byte of the last two frames
// always yields a valid prefix that is a whole number of frames — exactly the
// frames the damage did not reach.
func TestValidPrefixEveryCutAndFlip(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		buf, bounds, payloads := stream(seed)
		for cut := 0; cut <= len(buf); cut++ {
			if got, want := ValidPrefix(buf[:cut], frameNext), lastBoundAtMost(bounds, cut); got != want {
				t.Fatalf("seed %d cut %d: valid prefix %d, want %d", seed, cut, got, want)
			}
		}
		for pos := bounds[len(bounds)-3]; pos < len(buf); pos++ {
			mangled := append([]byte(nil), buf...)
			mangled[pos] ^= 0xff
			if got, want := ValidPrefix(mangled, frameNext), lastBoundAtMost(bounds, pos); got != want {
				t.Fatalf("seed %d flip %d: valid prefix %d, want %d", seed, pos, got, want)
			}
		}
		rest := buf
		for i, want := range payloads {
			got, n, ok := NextFrame(rest)
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("seed %d: frame %d does not read back", seed, i)
			}
			rest = rest[n:]
		}
	}
}

// TestRepairTailEveryCut drives the whole open-time cycle on real files: for
// every cut inside the last two frames, the repair leaves exactly the valid
// prefix in the file and exactly the remaining bytes in the quarantine, a
// second scan finds nothing to repair, and a frame appended after the repair
// reads back.
func TestRepairTailEveryCut(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		buf, bounds, _ := stream(seed)
		for cut := bounds[len(bounds)-3] + 1; cut < len(buf); cut++ {
			dir := t.TempDir()
			path, quarantine := filepath.Join(dir, "log"), filepath.Join(dir, "log.torn")
			if err := os.WriteFile(path, buf[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			valid := ValidPrefix(buf[:cut], frameNext)
			if err := RepairTail(path, int64(valid), quarantine, cut%2 == 0); err != nil {
				t.Fatalf("seed %d cut %d: %v", seed, cut, err)
			}
			if valid < cut {
				if q, err := os.ReadFile(quarantine); err != nil || !bytes.Equal(q, buf[valid:cut]) {
					t.Fatalf("seed %d cut %d: quarantine holds %d bytes (%v), want %d", seed, cut, len(q), err, cut-valid)
				}
			}
			data, err := os.ReadFile(path)
			if valid == 0 && os.IsNotExist(err) {
				err = nil // nothing valid was left: the file is gone
			}
			if err != nil || !bytes.Equal(data, buf[:valid]) {
				t.Fatalf("seed %d cut %d: repaired file holds %d bytes (%v), want the %d-byte valid prefix", seed, cut, len(data), err, valid)
			}
			if again := ValidPrefix(data, frameNext); again != len(data) {
				t.Fatalf("seed %d cut %d: second scan wants another repair (%d of %d)", seed, cut, again, len(data))
			}
			data = AppendFrame(data, []byte("after the tear"))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if p, _, ok := NextFrame(data[valid:]); !ok || string(p) != "after the tear" {
				t.Fatalf("seed %d cut %d: append after repair does not read back", seed, cut)
			}
		}
	}
}

// TestRepairTailAppendsAndRemoves: the quarantine accumulates across repairs,
// and a file with nothing valid left is removed rather than left empty.
func TestRepairTailAppendsAndRemoves(t *testing.T) {
	dir := t.TempDir()
	path, quarantine := filepath.Join(dir, "log"), filepath.Join(dir, "log.torn")
	for _, tail := range []string{"first", "second"} {
		data := append(AppendFrame(nil, []byte("kept")), tail...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := RepairTail(path, int64(len(data)-len(tail)), quarantine, true); err != nil {
			t.Fatal(err)
		}
	}
	if q, err := os.ReadFile(quarantine); err != nil || string(q) != "firstsecond" {
		t.Fatalf("quarantine = %q (%v), want both tails in order", q, err)
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RepairTail(path, 0, quarantine, false); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("wholly invalid file still present (%v)", err)
	}
	if q, _ := os.ReadFile(quarantine); string(q) != "firstsecondgarbage" {
		t.Fatalf("quarantine = %q after the removal", q)
	}
}

// TestNextFrameRejects: the frames a crash or a bad sector can fake.
func TestNextFrameRejects(t *testing.T) {
	good := AppendFrame(nil, []byte("payload"))
	hugeLen := append([]byte{0xff, 0xff, 0xff, 0x7f}, good[4:]...)
	overBound := append([]byte{0x01, 0x00, 0x00, 0x04}, good[4:]...) // MaxRecordBytes+1
	for name, buf := range map[string][]byte{
		"empty":        nil,
		"short header": good[:7],
		"short body":   good[:len(good)-1],
		"zero frame":   make([]byte, 64), // len 0, crc 0: CRC-32 of nothing IS 0
		"huge length":  hugeLen,
		"over bound":   overBound,
		"bad checksum": append(append([]byte(nil), good[:len(good)-1]...), 'X'),
	} {
		if _, n, ok := NextFrame(buf); ok || n != 0 {
			t.Errorf("%s: accepted (n=%d)", name, n)
		}
	}
	// A length field is never trusted with an allocation.
	if allocs := testing.AllocsPerRun(10, func() { NextFrame(hugeLen); NextFrame(good) }); allocs != 0 {
		t.Errorf("NextFrame allocates (%v per run)", allocs)
	}
}

// TestAppendFrameGrowsOnce: the commit path frames one record per append; the
// header must not cost an allocation of its own.
func TestAppendFrameGrowsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	payload := make([]byte, 100)
	if allocs := testing.AllocsPerRun(10, func() { AppendFrame(nil, payload) }); allocs != 1 {
		t.Errorf("framing into an empty buffer: %v allocations, want 1", allocs)
	}
	buf := make([]byte, 0, 1<<10)
	if allocs := testing.AllocsPerRun(10, func() { AppendFrame(buf, payload) }); allocs != 0 {
		t.Errorf("framing into a buffer with room: %v allocations, want 0", allocs)
	}
}

// TestValidPrefixDistrustsNext: a record parser that lies about its length
// cannot push the prefix past the buffer or stall the walk.
func TestValidPrefixDistrustsNext(t *testing.T) {
	buf := make([]byte, 10)
	for _, n := range []int{-1, 0, 11, 1 << 40} {
		if got := ValidPrefix(buf, func([]byte) (int, bool) { return n, true }); got != 0 {
			t.Errorf("next claiming %d bytes: valid prefix %d, want 0", n, got)
		}
	}
	if got := ValidPrefix(buf, func([]byte) (int, bool) { return 4, true }); got != 8 {
		t.Errorf("4-byte records over 10 bytes: valid prefix %d, want 8", got)
	}
}

// TestReplaceFile: the destination changes atomically, the temp file never
// outlives the call, and — the bug this package's single copy fixes — a
// replace or directory sync that cannot be made durable reports it.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	dst := filepath.Join(dir, "state.snap")
	for _, tc := range []struct {
		content string
		sync    bool
		fsyncs  int
	}{{"one", false, 0}, {"two", true, 2}} {
		n, err := ReplaceFile(dst, []byte(tc.content), tc.sync)
		if err != nil || n != tc.fsyncs {
			t.Fatalf("replace(%q, sync=%v) = %d fsyncs, %v; want %d", tc.content, tc.sync, n, err, tc.fsyncs)
		}
		if got, _ := os.ReadFile(dst); string(got) != tc.content {
			t.Fatalf("dst holds %q, want %q", got, tc.content)
		}
	}
	if _, err := os.Stat(dst + TmpSuffix); !os.IsNotExist(err) {
		t.Fatalf("temp file survived a successful replace (%v)", err)
	}

	// The rename cannot succeed: dst is a non-empty directory.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaceFile(blocked, []byte("x"), true); err == nil {
		t.Fatal("replace over a non-empty directory reported success")
	}
	if _, err := os.Stat(blocked + TmpSuffix); !os.IsNotExist(err) {
		t.Fatalf("temp file survived a failed replace (%v)", err)
	}

	// The directory is gone: nothing can be created, nothing can be synced.
	gone := filepath.Join(dir, "gone")
	if _, err := ReplaceFile(filepath.Join(gone, "state.snap"), []byte("x"), true); err == nil {
		t.Fatal("replace into a removed directory reported success")
	}
	if err := SyncDir(gone); err == nil {
		t.Fatal("sync of a removed directory reported success")
	}
	if err := RepairTail(filepath.Join(gone, "log"), 0, filepath.Join(gone, "log.torn"), true); err == nil {
		t.Fatal("repair in a removed directory reported success")
	}
	if _, err := (Segments{Dir: gone, Prefix: "s-", Suffix: ".log", Width: 4}).Create(1, nil, true); err == nil {
		t.Fatal("segment create in a removed directory reported success")
	}
}

func TestSegments(t *testing.T) {
	dir := t.TempDir()
	segs := Segments{Dir: dir, Prefix: "wal-", Suffix: ".log", Width: 16}
	if got, want := segs.Path(42), filepath.Join(dir, "wal-0000000000000042.log"); got != want {
		t.Fatalf("Path(42) = %q, want %q", got, want)
	}
	for _, seq := range []uint64{300, 7, 123456789012345678} { // the last is wider than Width
		f, err := segs.Create(seq, []byte("HDR"), seq == 7)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		if got, _ := os.ReadFile(segs.Path(seq)); string(got) != "HDR" {
			t.Fatalf("segment %d starts with %q, want the header", seq, got)
		}
	}
	if _, err := segs.Create(7, nil, false); !os.IsExist(err) {
		t.Fatalf("creating an existing segment: %v, want an exists error", err)
	}
	// Neighbours that are not members of the family.
	for _, name := range []string{"wal.torn", "repo.snap", "wal-0000000000000007.log.torn", "pack-00000001.pk"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := segs.List()
	if want := []uint64{7, 300, 123456789012345678}; err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %v, %v; want %v", got, err, want)
	}
	for _, bad := range []string{"wal-.log", "wal-abc.log", "wal-0000000000000000.log", "wal--1.log", "wal-+0000000000000001.log", "wal-7.log", "wal-00000000000000007.log"} {
		path := filepath.Join(dir, bad)
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := segs.List(); err == nil {
			t.Errorf("List accepted %q", bad)
		}
		os.Remove(path)
	}
}

// FuzzNextFrame: arbitrary bytes never panic the decoder, never yield a
// frame reaching past the buffer, and anything accepted re-encodes to the
// bytes it was read from.
func FuzzNextFrame(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(AppendFrame(nil, []byte("one")))
	f.Add(append([]byte{0xff, 0xff, 0xff, 0xff}, make([]byte, 12)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, ok := NextFrame(data)
		if !ok {
			if n != 0 || payload != nil {
				t.Fatalf("rejected frame still returned n=%d payload=%d bytes", n, len(payload))
			}
			return
		}
		if n > len(data) || n != frameHeaderLen+len(payload) || len(payload) == 0 || len(payload) > MaxRecordBytes {
			t.Fatalf("accepted frame n=%d payload=%d over a %d-byte buffer", n, len(payload), len(data))
		}
		if !bytes.Equal(AppendFrame(nil, payload), data[:n]) {
			t.Fatal("accepted frame does not re-encode to its own bytes")
		}
	})
}

// FuzzValidPrefix: over arbitrary bytes the valid prefix stays inside the
// buffer, is itself wholly valid, and ends where the next frame is invalid —
// also when the record parser is as untrustworthy as the bytes.
func FuzzValidPrefix(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(AppendFrame(AppendFrame(nil, []byte("one")), []byte("two")))
	f.Add(append(AppendFrame(nil, []byte("one")), 0x03, 0x00, 0x00, 0x00, 'x'))
	f.Fuzz(func(t *testing.T, data []byte) {
		valid := ValidPrefix(data, frameNext)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d outside a %d-byte buffer", valid, len(data))
		}
		if again := ValidPrefix(data[:valid], frameNext); again != valid {
			t.Fatalf("valid prefix %d is not whole frames (rescan: %d)", valid, again)
		}
		if _, _, ok := NextFrame(data[valid:]); ok {
			t.Fatalf("scan stopped at %d before a valid frame", valid)
		}
		lying := func(rest []byte) (int, bool) { return int(int8(rest[0])) * 3, rest[0]&1 == 0 }
		if got := ValidPrefix(data, lying); got < 0 || got > len(data) {
			t.Fatalf("lying parser pushed the prefix to %d of %d", got, len(data))
		}
	})
}
