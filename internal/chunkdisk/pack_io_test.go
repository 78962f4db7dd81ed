package chunkdisk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"datalinks/internal/extent"
)

// frameRecord is how records were built before appends stopped copying: the
// whole frame assembled in one fresh buffer. It stays here as the oracle for
// the bytes an append must leave on disk.
func frameRecord(h extent.Hash, data []byte) []byte {
	buf := make([]byte, packRecHdrLen+packRecMeta+len(data))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(data)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(data)))
	copy(buf[12:44], h[:])
	copy(buf[packRecHdrLen+packRecMeta:], data)
	binary.LittleEndian.PutUint32(buf[8:12], recordCRC(buf))
	return buf
}

// incompressible builds a blob of random bytes.
func randomBlob(seed int64, size int) ([]byte, extent.Hash) {
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	return data, sha256.Sum256(data)
}

// TestAppendWritesTheFramesOfTheOracle: the header-then-data write path puts
// byte for byte on disk what framing each record into a buffer did — the
// blob as it was put, logicalLen equal to dataLen and flags 0 — for records
// of every length, empty ones included.
func TestAppendWritesTheFramesOfTheOracle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), sealedPackMagic[:]...)
	var entries []footerEntry
	add := func(data []byte, h extent.Hash) {
		put(t, s, data, h)
		entries = append(entries, footerEntry{hash: h, off: int64(len(want)), size: int64(len(data))})
		want = append(want, frameRecord(h, data)...)
	}
	add(blob(3, 8<<10))
	add(blob(4, 1))
	add(randomBlob(5, 3000))
	add(blob(6, extent.ChunkSize))
	add(blob(7, 700))
	add(blob(8, 0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	packs := packFilesOnDisk(t, dir)
	if len(packs) != 1 {
		t.Fatalf("packs on disk: %v, want one", packs)
	}
	got, err := os.ReadFile(filepath.Join(dir, packs[0]))
	if err != nil {
		t.Fatal(err)
	}
	// The clean Close sealed the pack: the sealed magic, the frames, then a
	// footer listing them.
	var fr footerReader
	body, ok := fr.read(bytes.NewReader(got), int64(len(got)))
	if !ok || !reflect.DeepEqual(fr.entries, entries) {
		t.Fatalf("the sealed pack's footer (ok=%v) lists %+v, want %+v", ok, fr.entries, entries)
	}
	if got = got[:body]; !bytes.Equal(got, want) {
		t.Fatalf("pack body is %d bytes, the oracle's frames %d; first difference at %d", len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestCompactionLeavesAPackWithAnUnpublishedAppend parks a Put between its
// pack append and the publication of the record in the index, and forces a
// compaction in the gap. The append seals the pack and tips it over the
// garbage ratio, and compaction finds survivors in the index — where the
// record is not yet: unpinned, the pack is unlinked and the Put, which
// returns nil, has published a pointer into a file that is gone.
func TestCompactionLeavesAPackWithAnUnpublishedAppend(t *testing.T) {
	s, err := Open(Config{
		Dir:              t.TempDir(),
		PackTargetBytes:  2 << 10,
		packGarbageRatio: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Half of the pack is garbage before the record under test arrives.
	gone, gh := blob(1, 1000)
	put(t, s, gone, gh)
	s.Release(gh)
	if freed := s.Sweep(); freed != 1 {
		t.Fatalf("sweep freed %d, want the dropped blob", freed)
	}

	data, h := blob(2, 1000)
	parked := false
	s.afterPackAppend = func() error {
		parked = true
		s.Sweep() // the pack is sealed and half dead: a victim, but for the pin
		return nil
	}
	put(t, s, data, h)
	s.afterPackAppend = nil
	if !parked {
		t.Fatal("the put never reached the append→publish window")
	}
	if got := get(t, s, h); !bytes.Equal(got, data) {
		t.Fatal("acknowledged blob diverged")
	}
	if st := s.Stats(); st.PackCompactions != 0 {
		t.Fatalf("%d compactions ran over a pack with an append in flight", st.PackCompactions)
	}

	// Published, the record is a survivor like any other: the next sweep
	// compacts the pack and carries it along.
	s.Sweep()
	if st := s.Stats(); st.PackCompactions != 1 {
		t.Fatalf("%d compactions once the append was published, want 1", st.PackCompactions)
	}
	if got := get(t, s, h); !bytes.Equal(got, data) {
		t.Fatal("blob diverged after the compaction that moved it")
	}
}

// TestFailedWriteThroughIsDeadSpace: a record appended by a Put that then
// fails is in no index, so it is dead space from the start — not live bytes
// that keep its pack's garbage ratio low and its blob count above zero
// forever. Once the one published blob goes too, the pack is all garbage and
// the sweep compacts it away.
func TestFailedWriteThroughIsDeadSpace(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), PackTargetBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	kept, kh := blob(1, 100)
	put(t, s, kept, kh)
	injected := errors.New("injected write failure")
	s.afterPackAppend = func() error { return injected }
	lost, lh := blob(2, 3000) // seals the pack
	c := extent.WrapChunk(lost, lh)
	if _, err := s.Put(lh, c); err != injected {
		t.Fatalf("put with a failing write-through = %v", err)
	}
	c.ReleaseChunk()
	s.afterPackAppend = nil
	if st := s.Stats(); st.PackDeadBytes != 3000 {
		t.Fatalf("the failed put's record is not dead space: %+v", st)
	}
	s.Release(kh)
	if freed := s.Sweep(); freed != 1 {
		t.Fatalf("sweep freed %d, want the released blob", freed)
	}
	if st := s.Stats(); st.PackFiles != 0 || st.PackDeadBytes != 0 || st.PackCompactions != 1 {
		t.Fatalf("a pack holding only garbage survived the sweep: %+v", st)
	}
}

// allocated reports the bytes and the heap objects fn allocates.
func allocated(fn func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestPutAllocBudget: a steady-state Put of a fresh chunk-sized blob into a
// pack allocates index bookkeeping, not a copy of the blob nor its header.
func TestPutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const warm, measured = 32, 128 // the measured puts rotate the 4 MiB pack twice
	chunks := make([]*extent.Chunk, warm+measured)
	for i := range chunks {
		data, h := blob(i, extent.ChunkSize)
		chunks[i] = extent.WrapChunk(data, h)
	}
	putAll := func(cs []*extent.Chunk) {
		for _, c := range cs {
			if wrote, err := s.Put(c.Hash(), c); err != nil || !wrote {
				t.Fatalf("put: wrote=%v err=%v", wrote, err)
			}
			c.ReleaseChunk()
		}
	}
	putAll(chunks[:warm])
	total, objects := allocated(func() { putAll(chunks[warm:]) })
	perPut := total / measured
	if st := s.Stats(); st.PackAppends != warm+measured {
		t.Fatalf("%d pack appends for %d puts", st.PackAppends, warm+measured)
	}
	if perPut > 1<<10 {
		t.Fatalf("a 64 KiB put allocates %d B, budget 1 KiB", perPut)
	}
	// The record header is written in place in the pack set: an append
	// allocates nothing, and the index bookkeeping averages below one object
	// (0.57 measured; 1.57 with a header escaping per append).
	if objects > measured {
		t.Fatalf("a 64 KiB put allocates %.2f objects, budget 1", float64(objects)/measured)
	}
}

// TestOpenAllocBudget: reopening a directory of sealed packs allocates the
// index, a small fraction of the bytes on disk. A footered pack costs a read
// of its footer and nothing per record beyond the index entry; a pack
// without one is scanned, every record verified through one record-sized
// window.
func TestOpenAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	dir := t.TempDir()
	cfg := Config{Dir: dir, PackTargetBytes: 512 << 10}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const blobs = 520 // 8 chunk-sized records seal a pack
	for i := 0; i < blobs; i++ {
		data, h := blob(i, extent.ChunkSize)
		put(t, s, data, h)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	packs := packFilesOnDisk(t, dir)
	for _, name := range packs {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	if len(packs) < 64 || onDisk < 32<<20 {
		t.Fatalf("fixture too small: %d packs, %d bytes", len(packs), onDisk)
	}
	reopen := func(t *testing.T, scanned int, budget uint64) {
		var s2 *Store
		got, _ := allocated(func() { s2, err = Open(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if st := s2.Stats(); st.DiskBlobs != blobs || st.PackTornBytes != 0 || s2.scannedPacks != scanned {
			t.Fatalf("reopen adopted %d of %d blobs (%d torn bytes), scanning %d packs, want %d",
				st.DiskBlobs, blobs, st.PackTornBytes, s2.scannedPacks, scanned)
		}
		if got > budget {
			t.Fatalf("open allocated %d B over %d B of packs, budget %d", got, onDisk, budget)
		}
		t.Logf("open allocated %d B over %d B in %d packs", got, onDisk, len(packs))
	}
	// Footered: 512 B per blob — its index entry, its share of the presized
	// map, and of its pack's open and footer read — however large the blobs.
	t.Run("footered", func(t *testing.T) { reopen(t, 0, blobs*512) })
	t.Run("scanned", func(t *testing.T) {
		for _, name := range packs {
			stripFooter(t, filepath.Join(dir, name))
		}
		reopen(t, len(packs), uint64(onDisk)/8)
	})
}
