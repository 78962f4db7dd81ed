package extent

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"runtime"
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

// flatSource is a chunk source over a flat copy of the content it stands
// for; it counts its sharers, and every one of them must give it back.
type flatSource struct {
	content []byte
	refs    int
	all     *[]*flatSource // every source of the test, to check at the end
}

func newFlatSource(content []byte, all *[]*flatSource) *flatSource {
	s := &flatSource{content: append([]byte(nil), content...), refs: 1, all: all}
	*all = append(*all, s)
	return s
}

func (s *flatSource) Size() int64 { return int64(len(s.content)) }

func (s *flatSource) ReadSlot(i int, dst []byte) error {
	if s.refs <= 0 {
		panic("read of a released source")
	}
	copy(dst, s.content[i*ChunkSize:(i+1)*ChunkSize])
	return nil
}

func (s *flatSource) ReadTail(dst []byte) error {
	copy(dst, s.content[len(s.content)-len(dst):])
	return nil
}

func (s *flatSource) Retain() { s.refs++ }

func (s *flatSource) Release() {
	if s.refs--; s.refs < 0 {
		panic("source over-released")
	}
}

// TestBufferMatchesFlatModel drives random writes and truncates through a
// Buffer (with interleaved snapshot/restore churn) and a flat byte slice,
// asserting byte-for-byte equivalence throughout. Commits hand the buffer a
// source holding the captured content (Attach), installs start it over with
// every slot absent (Install), and page-outs and fault-ins move clean slots
// out of and back into memory; every access first loads what extent asks it
// to, as the file system does. A page-out that drops a slot written since
// the commit — a dirty slot — diverges from the model at the next read of
// it. A restore installs a snapshot's model content (Install). A second
// buffer is installed with the first one's content and loads part of it, a
// held snapshot shares its chunks, and it is detached (ReleaseRefs), loads
// more while detached, and is written whole-chunk at random, while the held
// snapshot is released and the first buffer writes whole chunks: bytes
// handed back to the free list under a reader of the second buffer diverge
// from its model.
func TestBufferMatchesFlatModel(t *testing.T) {
	baseC, _ := Live()
	rng := rand.New(rand.NewSource(42))
	var sources []*flatSource
	must := func(_ int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	pageOuts, faultIns := 0, 0
	for round := 0; round < 20; round++ {
		b, other := NewBuffer(), NewBuffer()
		var m, om flatModel
		var snaps []*Snapshot
		var snapModels [][]byte
		var shared *Snapshot // shares the second buffer's chunks
		for op := 0; op < 160; op++ {
			switch rng.Intn(20) {
			case 0, 1: // truncate
				size := int64(rng.Intn(4 * ChunkSize))
				must(b.LoadEdges(size, size))
				b.Truncate(size)
				m.Truncate(size)
			case 2: // snapshot
				must(b.LoadEdges(b.Len(), b.Len()))
				snaps = append(snaps, b.Snapshot())
				snapModels = append(snapModels, append([]byte(nil), m...))
			case 3: // restore a random snapshot's content
				if len(snaps) > 0 {
					i := rng.Intn(len(snaps))
					b.Install(newFlatSource(snapModels[i], &sources))
					m = append(m[:0], snapModels[i]...)
				}
			case 4, 5: // commit: the capture's content becomes the source
				must(b.LoadEdges(b.Len(), b.Len()))
				c := b.Capture()
				id, _ := c.Captured()
				if !b.Attach(id, newFlatSource(c.Bytes(), &sources)) {
					t.Fatalf("round %d op %d: attach of the last capture refused", round, op)
				}
				c.Release()
			case 6: // install: every slot absent
				b.Install(newFlatSource(m, &sources))
			case 7, 8: // page out
				before := b.Resident()
				_, freed := b.PageOut(rng.Intn(b.NumChunks()+1), int64(rng.Intn(4*ChunkSize)))
				if b.Resident() != before-freed {
					t.Fatalf("round %d op %d: page-out freed %d, resident %d -> %d", round, op, freed, before, b.Resident())
				}
				pageOuts += int(freed / ChunkSize)
			case 9: // fault in a range
				off := int64(rng.Intn(4 * ChunkSize))
				n, err := b.LoadRange(off, int64(rng.Intn(2*ChunkSize)))
				must(n, err)
				faultIns += n
			case 10: // the second buffer takes the content, a snapshot shares it
				other.Install(newFlatSource(m, &sources))
				om = append(om[:0], m...)
				must(other.LoadRange(int64(rng.Intn(len(om)+1)), int64(rng.Intn(3*ChunkSize))))
				must(other.LoadEdges(other.Len(), other.Len()))
				if shared != nil {
					shared.Release()
				}
				shared = other.Snapshot()
			case 11: // the second buffer is detached: unlinked, still read
				other.ReleaseRefs()
			case 13: // the shared snapshot goes
				if shared != nil {
					shared.Release()
					shared = nil
				}
			case 12: // the second buffer writes whole chunks
				off := int64(rng.Intn(3)) * ChunkSize
				p := make([]byte, ChunkSize*(1+rng.Intn(2)))
				rng.Read(p)
				must(other.LoadEdges(off, off+int64(len(p))))
				other.WriteAt(off, p)
				om.WriteAt(off, p)
			default: // write, one in three over whole chunks
				off := int64(rng.Intn(3 * ChunkSize))
				n := rng.Intn(ChunkSize * 2)
				if rng.Intn(3) == 0 {
					off, n = off/ChunkSize*ChunkSize, ChunkSize*(1+rng.Intn(2))
				}
				p := make([]byte, n)
				rng.Read(p)
				must(b.LoadEdges(off, off+int64(n)))
				b.WriteAt(off, p)
				m.WriteAt(off, p)
			}
			if b.Len() != int64(len(m)) {
				t.Fatalf("round %d op %d: len %d vs model %d", round, op, b.Len(), len(m))
			}
			if off := int64(rng.Intn(len(om) + 1)); len(om) > 0 {
				p := make([]byte, min(int64(ChunkSize), int64(len(om))-off))
				must(other.LoadRange(off, int64(len(p))))
				if n := other.ReadAt(off, p); n != len(p) || !bytes.Equal(p, om[off:off+int64(n)]) {
					t.Fatalf("round %d op %d: the second buffer's ReadAt(%d, %d) diverged from its model", round, op, off, len(p))
				}
			}
			resident := int64(0)
			for _, c := range b.chunks {
				if counted(c) {
					resident += ChunkSize
				}
			}
			if resident != b.Resident() {
				t.Fatalf("round %d op %d: resident %d, present chunks hold %d", round, op, b.Resident(), resident)
			}
		}
		// Random-range reads agree.
		for i := 0; i < 20; i++ {
			off := int64(rng.Intn(len(m) + 1))
			p := make([]byte, rng.Intn(ChunkSize))
			must(b.LoadRange(off, int64(len(p))))
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
		must(b.LoadRange(0, b.Len()))
		if !bytes.Equal(b.Bytes(), m) {
			t.Fatalf("round %d: content diverged from model", round)
		}
		for i, s := range snaps {
			if !bytes.Equal(s.Bytes(), snapModels[i]) {
				t.Fatalf("round %d: snapshot %d diverged from its model", round, i)
			}
			s.Release()
		}
		must(other.LoadRange(0, other.Len()))
		if !bytes.Equal(other.Bytes(), om) {
			t.Fatalf("round %d: the second buffer diverged from its model", round)
		}
		if shared != nil {
			shared.Release()
		}
		b.Truncate(0)
		other.Truncate(0)
	}
	if pageOuts == 0 || faultIns == 0 {
		t.Fatalf("%d page-outs, %d fault-ins: the schedule does not cover paging", pageOuts, faultIns)
	}
	if endC, _ := Live(); endC != baseC {
		t.Fatalf("model churn leaked %d chunks", endC-baseC)
	}
	for i, s := range sources {
		if s.refs != 0 {
			t.Fatalf("source %d has %d sharers left", i, s.refs)
		}
	}
}

// TestFromBytesAndIntern: FromBytes builds a snapshot owning a chunked copy
// of its input.
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

// TestInPlaceWriteForgetsHash: being hashed does not stop a chunk being
// written in place — once the snapshot that was hashed is released, a small
// write lands in place — and
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
// snapshot's from then on — not copied.
func TestBuildSnapshotOwnsItsTail(t *testing.T) {
	tail := bytes.Repeat([]byte{4}, 100)
	snap := BuildSnapshot(nil, tail)
	defer snap.Release()
	if &snap.Tail()[0] != &tail[0] {
		t.Fatal("BuildSnapshot copied the tail it was given")
	}
	if !bytes.Equal(snap.Bytes(), bytes.Repeat([]byte{4}, 100)) {
		t.Fatal("the snapshot does not read its tail")
	}
}

// TestCaptureDirtySpans: a capture that follows another names it, and every
// byte outside a slot's dirty span is the byte the previous capture held
// there — through in-place writes, copies, whole-chunk writes, truncates and
// extends — while a slot the previous capture did not have reads as wholly
// dirty.
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
// shared chunk forces is what the archive's patches and write-through puts
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

// TestDetachedBufferKeepsSharedBytes: a detached buffer — an unlinked file
// still open for reading — goes on reading chunks it no longer holds a
// reference on. When the snapshot it shares them with is released, the last
// reference goes, and the bytes must not go back to the free list, where
// another buffer's next chunk would take them and overwrite them.
func TestDetachedBufferKeepsSharedBytes(t *testing.T) {
	baseC, _ := Live()
	a := NewBuffer()
	a.WriteAt(0, bytes.Repeat([]byte{7}, ChunkSize))
	snap := a.Snapshot()
	a.ReleaseRefs()
	snap.Release()
	b := NewBuffer()
	for v := byte(9); v <= 12; v++ {
		b.WriteAt(0, bytes.Repeat([]byte{v}, ChunkSize))
	}
	p := make([]byte, ChunkSize)
	if n := a.ReadAt(0, p); n != ChunkSize || !bytes.Equal(p, bytes.Repeat([]byte{7}, ChunkSize)) {
		t.Fatalf("the detached buffer reads %d, want 7", p[0])
	}
	if got := b.Bytes(); got[0] != 12 {
		t.Fatalf("the live buffer reads %d, want 12", got[0])
	}
	a.Truncate(0)
	b.Truncate(0)
	if endC, _ := Live(); endC != baseC {
		t.Fatalf("leaked %d chunks", endC-baseC)
	}
}

// TestRecycledChunkAllocBudget: the commit path's steady state — a chunk
// written whole, the capture archived as the buffer's source, the clean
// chunk paged out — takes the next chunk's bytes from the ones the page-out
// gave back, so a cycle allocates only the bookkeeping, not 64 KiB.
func TestRecycledChunkAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const cycles = 64
	content := bytes.Repeat([]byte{3}, 4*ChunkSize)
	var sources []*flatSource
	src := newFlatSource(content, &sources)
	b := NewBuffer()
	b.Install(src)
	chunk := bytes.Repeat([]byte{3}, ChunkSize)
	cycle := func() {
		b.WriteAt(0, chunk)
		c := b.Capture()
		id, _ := c.Captured()
		src.Retain() // Attach gives up the previous source: the same one
		if !b.Attach(id, src) {
			t.Fatal("attach of the last capture refused")
		}
		c.Release()
		if _, freed := b.PageOut(0, ChunkSize); freed != ChunkSize {
			t.Fatalf("page-out freed %d bytes, want one chunk", freed)
		}
	}
	cycle() // the first chunk's bytes come from the heap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / cycles
	if per >= 4<<10 {
		t.Fatalf("a page-out + whole-chunk write cycle allocated %d B, budget 4 KiB", per)
	}
	t.Logf("a cycle allocated %d B", per)
	b.Truncate(0)
}
