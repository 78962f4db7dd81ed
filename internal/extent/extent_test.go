package extent

import (
	"bytes"
	"math/rand"
	"testing"
)

// flatModel mirrors Buffer semantics with a plain byte slice.
type flatModel []byte

func (m *flatModel) WriteAt(off int64, p []byte) {
	end := off + int64(len(p))
	if end > int64(len(*m)) {
		grown := make([]byte, end)
		copy(grown, *m)
		*m = grown
	}
	copy((*m)[off:], p)
}

func (m *flatModel) Truncate(size int64) {
	if size <= int64(len(*m)) {
		*m = (*m)[:size]
		return
	}
	grown := make([]byte, size)
	copy(grown, *m)
	*m = grown
}

func TestBufferBasics(t *testing.T) {
	b := NewBuffer()
	if b.Len() != 0 {
		t.Fatalf("empty len = %d", b.Len())
	}
	b.WriteAt(0, []byte("hello"))
	if got := string(b.Bytes()); got != "hello" {
		t.Fatalf("bytes = %q", got)
	}
	b.WriteAt(2, []byte("XY"))
	if got := string(b.Bytes()); got != "heXYo" {
		t.Fatalf("bytes = %q", got)
	}
	// Sparse write: the gap reads as zeros.
	b.WriteAt(10, []byte("!"))
	want := append([]byte("heXYo"), 0, 0, 0, 0, 0, '!')
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("sparse = %q", b.Bytes())
	}
	p := make([]byte, 3)
	if n := b.ReadAt(2, p); n != 3 || string(p) != "XYo" {
		t.Fatalf("ReadAt = %d %q", n, p)
	}
	if n := b.ReadAt(11, p); n != 0 {
		t.Fatalf("read past EOF = %d", n)
	}
}

func TestBufferChunkBoundaries(t *testing.T) {
	b := NewBuffer()
	content := make([]byte, 3*ChunkSize+100)
	for i := range content {
		content[i] = byte(i % 251)
	}
	b.WriteAt(0, content)
	if b.NumChunks() != 3 || b.Len() != int64(len(content)) {
		t.Fatalf("chunks=%d len=%d", b.NumChunks(), b.Len())
	}
	if !bytes.Equal(b.Bytes(), content) {
		t.Fatal("content mismatch after chunked write")
	}
	// Write straddling two chunks.
	straddle := bytes.Repeat([]byte{0xEE}, 100)
	b.WriteAt(ChunkSize-50, straddle)
	copy(content[ChunkSize-50:], straddle)
	if !bytes.Equal(b.Bytes(), content) {
		t.Fatal("content mismatch after straddling write")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	b := NewBuffer()
	content := bytes.Repeat([]byte("abcd"), ChunkSize) // 4 chunks
	b.WriteAt(0, content)
	snap := b.Snapshot()
	defer snap.Release()

	b.WriteAt(5, []byte("MUTATED"))
	b.Truncate(10)
	if !bytes.Equal(snap.Bytes(), content) {
		t.Fatal("snapshot changed under buffer mutation")
	}
	// Restore swaps the manifest back in.
	b.SetSnapshot(snap)
	if !bytes.Equal(b.Bytes(), content) {
		t.Fatal("restore mismatch")
	}
}

func TestSnapshotSharesUntouchedChunks(t *testing.T) {
	baseC, _ := Live()
	b := NewBuffer()
	b.WriteAt(0, make([]byte, 16*ChunkSize))
	// Force real (non-zero-chunk) content.
	for i := 0; i < 16; i++ {
		b.WriteAt(int64(i)*ChunkSize, []byte{byte(i + 1)})
	}
	c0, _ := Live()
	snap := b.Snapshot()
	c1, _ := Live()
	if c1 != c0 {
		t.Fatalf("snapshot allocated %d chunks; want 0", c1-c0)
	}
	// A one-chunk edit allocates exactly one chunk (COW of the touched one).
	b.WriteAt(3*ChunkSize+17, []byte("edit"))
	c2, _ := Live()
	if c2 != c1+1 {
		t.Fatalf("single-chunk edit allocated %d chunks; want 1", c2-c1)
	}
	snap.Release()
	b.Truncate(0)
	endC, _ := Live()
	if endC != baseC {
		t.Fatalf("leaked %d chunks", endC-baseC)
	}
}

func TestReleaseRefsResurrection(t *testing.T) {
	baseC, _ := Live()
	b := NewBuffer()
	b.WriteAt(0, bytes.Repeat([]byte{7}, 2*ChunkSize))
	b.ReleaseRefs()
	if c, _ := Live(); c != baseC {
		t.Fatalf("detached buffer still counts %d chunks live", c-baseC)
	}
	// Reads keep working on a detached buffer.
	p := make([]byte, 4)
	if n := b.ReadAt(ChunkSize, p); n != 4 || p[0] != 7 {
		t.Fatalf("detached read = %d %v", n, p)
	}
	// A mutation resurrects the references.
	b.WriteAt(0, []byte{9})
	if c, _ := Live(); c != baseC+2 {
		t.Fatalf("resurrected live = %d; want 2", c-baseC)
	}
	b.Truncate(0)
	if c, _ := Live(); c != baseC {
		t.Fatalf("leaked %d chunks", c-baseC)
	}
}

// TestBufferMatchesFlatModel drives random writes and truncates through a
// Buffer (with interleaved snapshot/restore churn) and a flat byte slice,
// asserting byte-for-byte equivalence throughout.
func TestBufferMatchesFlatModel(t *testing.T) {
	baseC, _ := Live()
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		b := NewBuffer()
		var m flatModel
		var snaps []*Snapshot
		var snapModels [][]byte
		for op := 0; op < 120; op++ {
			switch rng.Intn(10) {
			case 0, 1: // truncate
				size := int64(rng.Intn(4 * ChunkSize))
				b.Truncate(size)
				m.Truncate(size)
			case 2: // snapshot
				snaps = append(snaps, b.Snapshot())
				snapModels = append(snapModels, append([]byte(nil), m...))
			case 3: // restore a random snapshot
				if len(snaps) > 0 {
					i := rng.Intn(len(snaps))
					b.SetSnapshot(snaps[i])
					m = append(m[:0], snapModels[i]...)
				}
			default: // write
				off := int64(rng.Intn(3 * ChunkSize))
				n := rng.Intn(ChunkSize * 2)
				p := make([]byte, n)
				rng.Read(p)
				b.WriteAt(off, p)
				m.WriteAt(off, p)
			}
			if b.Len() != int64(len(m)) {
				t.Fatalf("round %d op %d: len %d vs model %d", round, op, b.Len(), len(m))
			}
		}
		if !bytes.Equal(b.Bytes(), m) {
			t.Fatalf("round %d: content diverged from model", round)
		}
		// Random-range reads agree too.
		for i := 0; i < 20; i++ {
			off := int64(rng.Intn(len(m) + 1))
			p := make([]byte, rng.Intn(ChunkSize))
			n := b.ReadAt(off, p)
			want := len(m) - int(off)
			if want > len(p) {
				want = len(p)
			}
			if want < 0 {
				want = 0
			}
			if n != want || !bytes.Equal(p[:n], m[off:int(off)+n]) {
				t.Fatalf("round %d: ReadAt(%d, %d) diverged", round, off, len(p))
			}
		}
		for _, s := range snaps {
			s.Release()
		}
		b.Truncate(0)
	}
	if endC, _ := Live(); endC != baseC {
		t.Fatalf("model churn leaked %d chunks", endC-baseC)
	}
}

func TestFromBytesAndIntern(t *testing.T) {
	baseC, _ := Live()
	content := bytes.Repeat([]byte{1, 2, 3}, ChunkSize) // 3 chunks exactly
	s := FromBytes(content)
	if s.NumChunks() != 3 || len(s.Tail()) != 0 {
		t.Fatalf("chunks=%d tail=%d", s.NumChunks(), len(s.Tail()))
	}
	if !bytes.Equal(s.Bytes(), content) {
		t.Fatal("FromBytes round-trip mismatch")
	}
	// Intern maps chunks (here: identity with retain, as the archive does).
	dup := s.Intern(func(c *Chunk) *Chunk { return c.retain() })
	if !bytes.Equal(dup.Bytes(), content) {
		t.Fatal("interned content mismatch")
	}
	dup.Release()
	s.Release()
	if endC, _ := Live(); endC != baseC {
		t.Fatalf("leaked %d chunks", endC-baseC)
	}
}

func TestHashStableAndDistinct(t *testing.T) {
	a := FromBytes(bytes.Repeat([]byte{1}, ChunkSize))
	b := FromBytes(bytes.Repeat([]byte{1}, ChunkSize))
	c := FromBytes(bytes.Repeat([]byte{2}, ChunkSize))
	defer a.Release()
	defer b.Release()
	defer c.Release()
	if a.Chunks()[0].Hash() != b.Chunks()[0].Hash() {
		t.Fatal("identical content hashed differently")
	}
	if a.Chunks()[0].Hash() == c.Chunks()[0].Hash() {
		t.Fatal("distinct content collided")
	}
}

// TestHashedChunkIsNotMutatedInPlace guards the dedup-correctness rule: once
// a chunk's hash is taken (it may be in an archive dedup table), writes must
// copy, never mutate.
func TestHashedChunkIsNotMutatedInPlace(t *testing.T) {
	b := NewBuffer()
	b.WriteAt(0, bytes.Repeat([]byte{5}, ChunkSize))
	snap := b.Snapshot()
	h := snap.Chunks()[0].Hash()
	data := snap.Chunks()[0].Data()
	snap.Release() // refs back to 1, but the chunk is hash-pinned
	b.WriteAt(0, []byte{99})
	if data[0] != 5 {
		t.Fatal("hashed chunk mutated in place")
	}
	b2 := NewBuffer()
	b2.WriteAt(0, bytes.Repeat([]byte{5}, ChunkSize))
	s2 := b2.Snapshot()
	defer s2.Release()
	if s2.Chunks()[0].Hash() != h {
		t.Fatal("hash no longer matches original content")
	}
}

// TestBuildSnapshotOwnsItsTail: the tail handed to BuildSnapshot is the
// snapshot's from then on — not copied — and nothing reached through the
// snapshot writes to it: Retain shares it, SetSnapshot copies out of it.
func TestBuildSnapshotOwnsItsTail(t *testing.T) {
	tail := bytes.Repeat([]byte{4}, 100)
	snap := BuildSnapshot(nil, tail)
	defer snap.Release()
	if &snap.Tail()[0] != &tail[0] {
		t.Fatal("BuildSnapshot copied the tail it was given")
	}
	b := NewBuffer()
	b.SetSnapshot(snap)
	b.WriteAt(0, bytes.Repeat([]byte{0xff}, 100))
	b.WriteAt(100, []byte{1, 2, 3})
	if held := snap.Retain(); !bytes.Equal(held.Bytes(), bytes.Repeat([]byte{4}, 100)) {
		t.Fatal("writing to a buffer restored from the snapshot changed the snapshot's tail")
	}
}
