package extent

import (
	"bytes"
	"crypto/sha256"
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

// TestPinnedChunkIsCopiedOnWrite guards what a store's pin promises: a chunk
// that passed through a store — paged in (WrapChunk), assembled (Freeze) or
// kept resident (Pin) — is copied on write even once the buffer writing it is
// its only owner, so a reader still holding it (an unlinked file open for
// reading) never sees it change.
func TestPinnedChunkIsCopiedOnWrite(t *testing.T) {
	stores := map[string]func(data []byte) *Chunk{
		"page-in": func(data []byte) *Chunk { return WrapChunk(data, sha256.Sum256(data)) },
		"freeze":  Freeze,
		"admit": func(data []byte) *Chunk {
			c := newChunk(data)
			c.Pin()
			return c
		},
	}
	for name, store := range stores {
		c := store(bytes.Repeat([]byte{5}, ChunkSize))
		b := NewBuffer()
		b.SetSnapshot(BuildSnapshot([]*Chunk{c}, nil))
		data := c.Data()
		c.release() // the buffer's reference is now the only one
		b.WriteAt(0, []byte{99})
		if data[0] != 5 {
			t.Fatalf("%s: a pinned chunk was written in place", name)
		}
		if got := b.Bytes(); got[0] != 99 || got[1] != 5 {
			t.Fatalf("%s: the buffer lost the write", name)
		}
		b.Truncate(0)
	}
}

// TestInPlaceWriteForgetsHash: being hashed does not pin a chunk — once the
// snapshot that was hashed is released, a small write lands in place — and
// the memoized hash goes with the old bytes, so Hash matches what the chunk
// holds now. A snapshot still held forces a copy, and keeps its hash.
func TestInPlaceWriteForgetsHash(t *testing.T) {
	b := NewBuffer()
	b.WriteAt(0, bytes.Repeat([]byte{5}, ChunkSize))
	snap := b.Snapshot()
	if h := snap.Chunks()[0].Hash(); h != sha256.Sum256(snap.Bytes()) {
		t.Fatal("hash does not match the content")
	}
	snap.Release()
	data := b.chunks[0].data
	b.WriteAt(7, []byte{99})
	if &b.chunks[0].data[0] != &data[0] {
		t.Fatal("a write to a hashed chunk the buffer alone owns copied it")
	}
	if h := b.chunks[0].Hash(); h != sha256.Sum256(b.Bytes()) {
		t.Fatal("an in-place write left the old hash memoized")
	}

	held := b.Snapshot()
	defer held.Release()
	h := held.Chunks()[0].Hash()
	b.WriteAt(7, []byte{100})
	if held.Bytes()[7] != 99 || held.Chunks()[0].Hash() != h {
		t.Fatal("a write while a snapshot is held changed the snapshot")
	}
	if h := b.chunks[0].Hash(); h != sha256.Sum256(b.Bytes()) {
		t.Fatal("the copy's hash does not match its content")
	}
}

// TestBuildSnapshotOwnsItsTail: the tail handed to BuildSnapshot is the
// snapshot's from then on — not copied — and nothing reached through the
// snapshot writes to it: Share shares it, SetSnapshot copies out of it.
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
	if held := snap.Share(); !bytes.Equal(held.Bytes(), bytes.Repeat([]byte{4}, 100)) {
		t.Fatal("writing to a buffer restored from the snapshot changed the snapshot's tail")
	}
}

// TestCaptureDirtySpans: a capture that follows another names it, and every
// byte outside a slot's dirty span is the byte the previous capture held
// there — through in-place writes, copies, whole-chunk writes, truncates and
// extends — while a slot the previous capture did not have reads as wholly
// dirty. SetSnapshot cuts the chain: the next capture follows none.
func TestCaptureDirtySpans(t *testing.T) {
	baseC, _ := Live()
	rng := rand.New(rand.NewSource(7))
	b := NewBuffer()
	var m flatModel
	prev := b.Capture()
	prevBytes := []byte(nil)
	for op := 0; op < 2000; op++ {
		switch r := rng.Intn(20); {
		case r < 2:
			size := int64(rng.Intn(4 * ChunkSize))
			b.Truncate(size)
			m.Truncate(size)
		case r < 3:
			b.SetSnapshot(prev)
			m = append(m[:0], prevBytes...)
			s := b.Capture()
			if _, follows := s.Captured(); follows != 0 {
				t.Fatalf("op %d: the capture after SetSnapshot follows %d", op, follows)
			}
			prev.Release()
			prev, prevBytes = s, s.Bytes()
		case r < 9:
			s := b.Capture()
			id, follows := s.Captured()
			if pid, _ := prev.Captured(); follows != pid || id == pid {
				t.Fatalf("op %d: capture %d follows %d, want %d", op, id, follows, pid)
			}
			cur := s.Bytes()
			for i := 0; i < s.NumChunks(); i++ {
				d := s.Dirty(i)
				lo, hi := i*ChunkSize, (i+1)*ChunkSize
				if hi > len(prevBytes) {
					if d != wholeChunk {
						t.Fatalf("op %d: slot %d is new since the previous capture but dirty only over %v", op, i, d)
					}
					continue
				}
				if !bytes.Equal(cur[lo:lo+int(d.Lo)], prevBytes[lo:lo+int(d.Lo)]) || !bytes.Equal(cur[lo+int(d.Hi):hi], prevBytes[lo+int(d.Hi):hi]) {
					t.Fatalf("op %d: slot %d changed outside its dirty span %v", op, i, d)
				}
			}
			prev.Release()
			prev, prevBytes = s, cur
		default:
			off := int64(rng.Intn(3 * ChunkSize))
			n := rng.Intn(ChunkSize / 2)
			if rng.Intn(5) == 0 {
				off, n = off/ChunkSize*ChunkSize, ChunkSize
			}
			p := make([]byte, n)
			rng.Read(p)
			b.WriteAt(off, p)
			m.WriteAt(off, p)
		}
		if !bytes.Equal(b.Bytes(), m) {
			t.Fatalf("op %d: content diverged from the model", op)
		}
	}
	prev.Release()
	b.Truncate(0)
	if endC, _ := Live(); endC != baseC {
		t.Fatalf("captures leaked %d chunks", endC-baseC)
	}
}

// TestCapturedChunkIsWrittenInPlace: once a capture is released, the chunk
// is the buffer's alone again, and a small write lands in place — the copy a
// pinned chunk forces is what the archive's patches and write-through puts
// avoid.
func TestCapturedChunkIsWrittenInPlace(t *testing.T) {
	b := NewBuffer()
	b.WriteAt(0, bytes.Repeat([]byte{1}, ChunkSize))
	b.Capture().Release()
	data := b.chunks[0].data
	b.WriteAt(100, []byte{2})
	if &b.chunks[0].data[0] != &data[0] {
		t.Fatal("a write after the capture was released copied the chunk")
	}
	held := b.Capture()
	b.WriteAt(100, []byte{3})
	if held.Bytes()[100] != 2 {
		t.Fatal("a write while a capture is held changed the capture")
	}
	held.Release()
	b.Truncate(0)
}
