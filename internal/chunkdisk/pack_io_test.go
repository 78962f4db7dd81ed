package chunkdisk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"datalinks/internal/extent"
)

// frameRecord is how records were built before appends stopped copying: the
// whole frame assembled in one fresh buffer. It stays here as the oracle for
// the bytes an append must leave on disk.
func frameRecord(h extent.Hash, data []byte, logical int64, compressed bool) []byte {
	buf := make([]byte, packRecHdrLen+packRecMeta+len(data))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(data)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(logical))
	copy(buf[12:44], h[:])
	var flags byte
	if compressed {
		flags = packFlagCompressed
	}
	buf[44] = flags
	copy(buf[packRecHdrLen+packRecMeta:], data)
	binary.LittleEndian.PutUint32(buf[8:12], recordCRC(buf))
	return buf
}

// incompressible builds a blob flate cannot shrink.
func incompressible(seed int64, size int) ([]byte, extent.Hash) {
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	return data, sha256.Sum256(data)
}

// TestAppendWritesTheFramesOfTheOracle: the header-then-data write path puts
// byte for byte on disk what framing each record into a buffer did — raw,
// compressed and empty records alike.
func TestAppendWritesTheFramesOfTheOracle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, MemoryBudget: 16, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), packMagic[:]...)
	add := func(data []byte, h extent.Hash) {
		put(t, s, data, h)
		stored, compressed := data, false
		if z := deflate(data); len(z) < len(data) {
			stored, compressed = z, true
		}
		want = append(want, frameRecord(h, stored, int64(len(data)), compressed)...)
	}
	add(compressible(3, 8<<10))
	add(blob(4, 1))
	add(incompressible(5, 3000))
	add(blob(6, int(DefaultPackThreshold)))
	add(compressible(7, 700))
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
	if !bytes.Equal(got, want) {
		t.Fatalf("pack is %d bytes, the oracle's frames %d; first difference at %d", len(got), len(want), firstDiff(got, want))
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
		MemoryBudget:     16, // evict everything: reads must hit the pack
		PackTargetBytes:  2 << 10,
		PackGarbageRatio: 0.2,
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

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPutAllocBudget: a steady-state Put of a fresh chunk-sized blob into a
// pack allocates index bookkeeping, not a copy of the blob.
func TestPutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	s, err := Open(Config{Dir: t.TempDir(), MemoryBudget: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const warm, measured = 32, 128 // the measured puts rotate the 4 MiB pack twice
	chunks := make([]*extent.Chunk, warm+measured)
	for i := range chunks {
		data, h := blob(i, int(DefaultPackThreshold))
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
	perPut := allocated(func() { putAll(chunks[warm:]) }) / measured
	if st := s.Stats(); st.PackAppends != warm+measured {
		t.Fatalf("%d pack appends for %d puts", st.PackAppends, warm+measured)
	}
	if perPut > 1<<10 {
		t.Fatalf("a 64 KiB put allocates %d B, budget 1 KiB", perPut)
	}
}

// TestOpenAllocBudget: reopening a directory of sealed packs verifies every
// record through one record-sized window — what it allocates is the index,
// a small fraction of the bytes on disk.
func TestOpenAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemoryBudget: 16, PackTargetBytes: 512 << 10}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const blobs = 520 // 8 chunk-sized records seal a pack
	for i := 0; i < blobs; i++ {
		data, h := blob(i, int(DefaultPackThreshold))
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
	var s2 *Store
	got := allocated(func() { s2, err = Open(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.DiskBlobs != blobs || st.PackTornBytes != 0 {
		t.Fatalf("reopen adopted %d of %d blobs (%d torn bytes)", st.DiskBlobs, blobs, st.PackTornBytes)
	}
	if got > uint64(onDisk)/8 {
		t.Fatalf("open allocated %d B over %d B of packs, budget 1/8", got, onDisk)
	}
	t.Logf("open allocated %d B over %d B in %d packs", got, onDisk, len(packs))
}
