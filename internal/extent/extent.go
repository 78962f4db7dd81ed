// Package extent is the shared content store under the DataLinks data plane:
// file content is a slice of refcounted, immutable, fixed-size chunks plus a
// small mutable tail. Writes copy-on-write only the chunks they touch, a
// snapshot is an O(#chunks) reference grab, and identical chunks can be
// deduplicated by content hash — so archiving a new version of a file costs
// O(changed bytes), not O(file size).
//
// Three layers build on it:
//
//   - internal/fs keeps every inode's content in a Buffer.
//   - internal/archive stores versions as Snapshot manifests, interning
//     chunks by hash so mostly-identical versions share storage.
//   - internal/dlfm moves Snapshots (manifests) between the two instead of
//     flat byte slices.
//
// A buffer writes a chunk in place only while it is the chunk's sole owner
// (refs == 1): an in-place write forgets the memoized hash. A snapshot or an
// archived version that still shares the chunk forces a copy. A chunk that
// comes out of a store (LoadChunk, WrapChunk) never enters a buffer: a
// buffer's chunks are made by its own writes, or read from its source. That is what
// lets the commit path archive a small edit as a patch, and a whole chunk
// without the file's next write copying it. Capture is the
// commit path's snapshot: besides the chunks it hands over the byte span of
// every chunk slot written since the buffer's previous capture, and names
// that capture, so the archive can store a written slot as (the version it
// archived from the previous capture) + (the written bytes) without hashing
// the live chunk, and a clean slot as it was.
//
// A chunk slot may be absent: its bytes are not in memory but in the buffer's
// Source, the archived version the file's committed content was stored as.
// Install starts a buffer with every slot and its tail absent (a deferred
// install: nothing is read), and PageOut drops a clean slot — one not written
// since the capture the source was archived from (Attach) — back to absent.
// Reads need the slots they touch present (LoadRange); a write replaces the
// slots it covers whole without reading them and needs only the ones it
// covers in part (LoadEdges). A snapshot of a buffer with absent slots has
// them absent too and keeps the source, so a consumer that needs the bytes
// loads them through it (Snapshot.Load) and one that does not — the archive
// storing an unwritten slot as its predecessor's reference — reads nothing.
// A buffer's content only ever comes from writes and from a source
// (Install).
//
// A chunk's bytes are reused, not reallocated: every chunk the package makes
// takes its ChunkSize bytes from one free list (a sync.Pool, which the
// garbage collector trims), and the release that brings its reference count
// to zero hands them back, so the bytes a page-out frees back the next write,
// seal or fault-in. A zero count therefore means the bytes may already hold
// another chunk's content: nothing may read a chunk it holds no reference on,
// and a released Snapshot is never read again. The one holder that keeps
// pointing at chunks after giving up its references — a detached buffer
// (ReleaseRefs: an unlinked file still open for reading) — marks them
// orphans first; an orphan's bytes are left to the garbage collector, and
// only an orphan is brought back from a zero count (reattach).
//
// Buffers are NOT safe for concurrent use — the owning inode's lock guards
// them; the one exception is ReadAt, which only sets a chunk's referenced bit
// (atomically) and so runs under a shared lock. Chunks and Snapshots are
// immutable and may be shared freely across goroutines; their reference
// counts are atomic.
package extent

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
)

// ChunkSize is the fixed size of a sealed chunk. Content shorter than this
// lives entirely in a buffer's mutable tail.
const ChunkSize = 64 << 10

// Hash is the content hash of a chunk (dedup key).
type Hash [sha256.Size]byte

// Live chunk accounting, package-wide: a chunk is live while any owner holds
// a reference. The leak tests assert churn (update, snapshot, restore,
// unlink, archive drop) returns these to their baseline.
var (
	liveChunks atomic.Int64
	liveBytes  atomic.Int64
)

// Live reports the number of live (referenced) chunks and their total bytes.
func Live() (chunks, bytes int64) {
	return liveChunks.Load(), liveBytes.Load()
}

// Chunk is an immutable span of exactly ChunkSize bytes shared by reference.
type Chunk struct {
	data []byte // len == ChunkSize; never mutated once the chunk is shared

	refs atomic.Int64

	// The content hash is memoized: unchanged chunks carried across file
	// versions are hashed once, which is what keeps archive dedup O(changed
	// chunks) per version. hashed publishes hash; only the chunk's sole owner
	// clears it, when it writes the chunk in place.
	hashed atomic.Bool
	hashMu sync.Mutex
	hash   Hash

	// used is the slot's referenced bit: a read sets it, and PageOut clears
	// it on its first pass over the slot and drops the chunk on the next one
	// that finds it still clear (second chance).
	used atomic.Bool

	// pooled: data came from the free list and goes back to it when the
	// count reaches zero. orphan clears it.
	pooled atomic.Bool
}

// chunkBytes is the free list every chunk the package makes draws its bytes
// from, and release hands them back to. It has no size: the garbage
// collector empties it.
var chunkBytes = sync.Pool{New: func() any { return new([ChunkSize]byte) }}

// newChunk wraps data (owned by the chunk from here on) with one reference.
func newChunk(data []byte) *Chunk {
	c := &Chunk{}
	c.data = data
	c.refs.Store(1)
	liveChunks.Add(1)
	liveBytes.Add(int64(len(data)))
	return c
}

// allocChunk returns a chunk with one reference whose bytes come from the
// free list, holding whatever they held last: the caller fills all of them
// before anything reads the chunk.
func allocChunk() *Chunk {
	c := newChunk(chunkBytes.Get().(*[ChunkSize]byte)[:])
	c.pooled.Store(true)
	return c
}

// orphan marks a chunk that a holder keeps pointing at after dropping its
// reference: its bytes never go back to the free list, so the holder's reads
// stay valid after the last reference goes.
func (c *Chunk) orphan() { c.pooled.Store(false) }

// retain adds a reference. Retaining a fully released chunk resurrects it in
// the live accounting; that is sound only for a chunk whose bytes did not go
// back to the free list — an orphan, or one the package did not make.
func (c *Chunk) retain() *Chunk {
	if c.refs.Add(1) == 1 {
		if c.pooled.Load() {
			// An invariant, like over-release: only a reader that held no
			// reference could still reach a chunk whose bytes were reused.
			panic("extent: chunk retained after its bytes went back to the free list")
		}
		liveChunks.Add(1)
		liveBytes.Add(int64(len(c.data)))
	}
	return c
}

// release drops a reference. The last one hands a pooled chunk's bytes back
// to the free list: whoever takes them next overwrites them.
func (c *Chunk) release() {
	if n := c.refs.Add(-1); n == 0 {
		liveChunks.Add(-1)
		liveBytes.Add(-int64(len(c.data)))
		if c.pooled.Load() {
			chunkBytes.Put((*[ChunkSize]byte)(c.data))
		}
	} else if n < 0 {
		// An invariant, not an input check: every release pairs with a
		// retain. The model tests are its proof: TestBufferMatchesFlatModel
		// and the archive's TestArchiveModel drive seeded schedules of
		// writes, truncates, snapshots, restores and releases against a
		// model, and would reach here on the first unpaired release.
		panic("extent: chunk over-released")
	}
}

// Hash returns the memoized content hash of the chunk.
func (c *Chunk) Hash() Hash {
	if !c.hashed.Load() {
		c.hashMu.Lock()
		if !c.hashed.Load() {
			c.hash = sha256.Sum256(c.data)
			c.hashed.Store(true)
		}
		c.hashMu.Unlock()
	}
	return c.hash
}

// readSlot reads chunk slot i of src into a chunk of its own.
func readSlot(src Source, i int) (*Chunk, error) {
	c := allocChunk()
	if err := src.ReadSlot(i, c.data); err != nil {
		c.release()
		return nil, err
	}
	return c, nil
}

// LoadChunk reads chunk slot i of src into a chunk of its own — a store
// materializing a slot of an archived version. known, when not nil, is
// the content hash the read verified, so Hash does not compute it again.
func LoadChunk(src Source, i int, known *Hash) (*Chunk, error) {
	c, err := readSlot(src, i)
	if err != nil {
		return nil, err
	}
	if known != nil {
		c.hash = *known
		c.hashed.Store(true)
	}
	return c, nil
}

// Data exposes the chunk's bytes. Callers must not modify them, nor read them
// once the reference they hold is released.
func (c *Chunk) Data() []byte { return c.data }

// ReleaseChunk drops a caller-owned reference.
func (c *Chunk) ReleaseChunk() { c.release() }

// zeroChunk backs holes from sparse writes and zero-extending truncates: any
// number of zero chunks share this one allocation. The permanent reference
// keeps it out of in-place-write eligibility (refs is always >= 2 while any
// buffer holds it).
var zeroChunk = newChunk(make([]byte, ChunkSize))

// Buffer is mutable content: sealed chunks plus a tail shorter than
// ChunkSize. The zero value is an empty buffer.
//
// Invariant: length = len(chunks)*ChunkSize + len(tail) + absentTail, 0 <=
// len(tail)+absentTail < ChunkSize, and at most one of the two non-zero. The tail's backing array grows geometrically (append), fixing
// the quadratic reallocate-per-write append path of a flat []byte.
type Buffer struct {
	chunks []*Chunk // nil: an absent slot, whose bytes src holds
	tail   []byte
	// absentTail is the length of a tail still in src (0: the tail is
	// present, possibly empty). Only Install makes it non-zero.
	absentTail int

	// src is where absent slots load from. srcCapture names the capture src
	// was archived from: while it is the buffer's last capture, a slot not
	// written since holds exactly src's bytes and may be paged out.
	src        Source
	srcCapture uint64
	// resident is the bytes of the present slots, the shared zero chunk not
	// counted.
	resident int64

	// detached marks a buffer whose references were dropped (unlinked file
	// whose data outlives the namespace entry for open handles). Reads still
	// work; the first mutation or snapshot re-retains everything.
	detached bool

	// captured names the last Capture (0: none since the content was last
	// replaced wholesale). While it is set, dirty[i] is the span of chunk slot
	// i written since that capture: empty when untouched, the whole chunk when
	// the slot's chunk was replaced or appended. dirty is made on the first
	// write after a capture; slots past its end are untouched.
	captured uint64
	dirty    []Span
}

// Source holds the bytes of a buffer's absent slots: the archived version the
// content was stored as. ReadSlot fills dst (ChunkSize bytes) with chunk
// slot i and ReadTail fills dst with the tail, both verified against the
// store. Retain and Release count the buffers and snapshots that share the
// source; the last Release gives it up. ReadSlot and ReadTail may be called
// concurrently.
type Source interface {
	Size() int64
	ReadSlot(i int, dst []byte) error
	ReadTail(dst []byte) error
	Retain()
	Release()
}

// counted reports whether a slot holding c takes memory of its own: present
// and not the shared zero chunk.
func counted(c *Chunk) bool { return c != nil && c != zeroChunk }

// setSlot puts c in slot i, keeping the resident count.
func (b *Buffer) setSlot(i int, c *Chunk) {
	if counted(b.chunks[i]) {
		b.resident -= ChunkSize
	}
	if counted(c) {
		b.resident += ChunkSize
	}
	b.chunks[i] = c
}

// Span is the byte range [Lo, Hi) of one chunk.
type Span struct{ Lo, Hi int32 }

// Len is the span's length in bytes.
func (s Span) Len() int { return int(s.Hi - s.Lo) }

// wholeChunk is the dirty span of a slot whose chunk was replaced or added.
var wholeChunk = Span{0, ChunkSize}

// touch widens slot i's dirty span over [lo, hi).
func (b *Buffer) touch(i, lo, hi int) {
	if b.captured == 0 {
		return
	}
	if len(b.dirty) < len(b.chunks) {
		b.dirty = append(b.dirty, make([]Span, len(b.chunks)-len(b.dirty))...)
	}
	d := &b.dirty[i]
	if d.Lo == d.Hi {
		*d = Span{int32(lo), int32(hi)}
		return
	}
	d.Lo, d.Hi = min(d.Lo, int32(lo)), max(d.Hi, int32(hi))
}

// appendChunk adds a sealed chunk, wholly dirty, at the end of the body.
func (b *Buffer) appendChunk(c *Chunk) {
	b.chunks = append(b.chunks, nil)
	b.setSlot(len(b.chunks)-1, c)
	b.touch(len(b.chunks)-1, 0, ChunkSize)
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Len returns the content length, absent slots and tail included.
func (b *Buffer) Len() int64 {
	return b.bodyLen() + int64(len(b.tail)+b.absentTail)
}

// bodyLen is the length of the sealed chunks.
func (b *Buffer) bodyLen() int64 { return int64(len(b.chunks)) * ChunkSize }

// NumChunks reports how many sealed chunk slots the buffer has.
func (b *Buffer) NumChunks() int { return len(b.chunks) }

// Resident reports the bytes of the buffer's present chunk slots (the shared
// zero chunk, which costs nothing per slot, not counted).
func (b *Buffer) Resident() int64 { return b.resident }

// Install replaces the content with src's, reading nothing: every slot and
// the tail start absent, and load from src when first needed. The buffer
// owns src from here on. The installed content counts as a capture src was
// archived from, so a slot loaded and not written since may be paged out.
func (b *Buffer) Install(src Source) {
	size := src.Size()
	b.drop()
	b.chunks = make([]*Chunk, size/ChunkSize)
	b.tail, b.absentTail = b.tail[:0], int(size%ChunkSize)
	b.captured, b.dirty = captureSeq.Add(1), nil
	b.setSource(src, b.captured)
}

// Attach makes src, the version archived from the buffer's capture id, the
// source of its absent and clean slots. It reports false, taking nothing,
// when the buffer was captured again or replaced since: then src does not
// describe it. A previous source is given up — every slot it could load is
// src's too, unchanged since capture id.
func (b *Buffer) Attach(id uint64, src Source) bool {
	if id == 0 || id != b.captured {
		return false
	}
	b.setSource(src, id)
	return true
}

// setSource replaces the source.
func (b *Buffer) setSource(src Source, id uint64) {
	if b.src != nil {
		b.src.Release()
	}
	b.src, b.srcCapture = src, id
}

// drop gives up every chunk reference and the source, leaving the buffer
// empty.
func (b *Buffer) drop() {
	if !b.detached {
		for _, c := range b.chunks {
			if c != nil {
				c.release()
			}
		}
	}
	b.chunks, b.tail, b.absentTail = nil, b.tail[:0], 0
	b.resident, b.detached = 0, false
	b.setSource(nil, 0)
}

// Absent reports whether [off, off+n) touches an absent slot or tail.
func (b *Buffer) Absent(off, n int64) bool {
	if b.src == nil {
		return false
	}
	end := min(off+n, b.Len())
	for i := off / ChunkSize; i*ChunkSize < end; i++ {
		if i >= int64(len(b.chunks)) {
			return b.absentTail > 0
		}
		if b.chunks[i] == nil {
			return true
		}
	}
	return false
}

// LoadRange loads every absent slot [off, off+n) touches, and the tail when
// the range reaches it, reporting how many it loaded. On an error the slots
// loaded so far stay.
func (b *Buffer) LoadRange(off, n int64) (int, error) {
	loaded := 0
	end := min(off+n, b.Len())
	for i := off / ChunkSize; i*ChunkSize < end; i++ {
		if i >= int64(len(b.chunks)) {
			return b.loadTail(loaded)
		}
		if b.chunks[i] == nil {
			if err := b.loadSlot(int(i)); err != nil {
				return loaded, err
			}
			loaded++
		}
	}
	return loaded, nil
}

// LoadEdges loads what a write over [off, end) — or a Truncate to off, with
// end == off — needs: the absent slots it covers only in part and, when it
// reaches past the sealed chunks, the absent tail. Slots it covers whole are
// replaced unread.
func (b *Buffer) LoadEdges(off, end int64) (int, error) {
	loaded := 0
	for _, at := range [2]int64{off, end} {
		i := at / ChunkSize
		if at%ChunkSize != 0 && i < int64(len(b.chunks)) && b.chunks[i] == nil {
			if err := b.loadSlot(int(i)); err != nil {
				return loaded, err
			}
			loaded++
		}
	}
	if end > b.bodyLen() {
		return b.loadTail(loaded)
	}
	return loaded, nil
}

// loadSlot reads absent slot i from the source into a chunk of its own. A
// detached buffer holds no references, so the chunk's is dropped at once —
// as an orphan's, since the buffer goes on reading it.
func (b *Buffer) loadSlot(i int) error {
	c, err := readSlot(b.src, i)
	if err != nil {
		return fmt.Errorf("extent: loading chunk slot %d: %w", i, err)
	}
	b.setSlot(i, c)
	if b.detached {
		c.orphan()
		c.release()
	}
	return nil
}

// loadTail reads an absent tail from the source; loaded counts the slots
// loaded before it.
func (b *Buffer) loadTail(loaded int) (int, error) {
	if b.absentTail == 0 {
		return loaded, nil
	}
	tail := make([]byte, b.absentTail)
	if err := b.src.ReadTail(tail); err != nil {
		return loaded, fmt.Errorf("extent: loading the tail: %w", err)
	}
	b.tail, b.absentTail = tail, 0
	return loaded + 1, nil
}

// PageOut drops clean slots back to absent, from slot from on, until it has
// freed want bytes, and reports the slot to resume at (NumChunks when it
// reached the end) and the bytes freed. A slot is clean when the source was
// archived from the buffer's last capture and the slot was not written
// since; a dirty slot, the tail and a buffer without such a source are never
// paged out. Second chance: a slot whose referenced bit is set has it
// cleared and is passed over.
func (b *Buffer) PageOut(from int, want int64) (next int, freed int64) {
	if !b.Pageable() {
		return len(b.chunks), 0
	}
	for i := from; i < len(b.chunks); i++ {
		if freed >= want {
			return i, freed
		}
		c := b.chunks[i]
		if !counted(c) || i < len(b.dirty) && b.dirty[i].Len() > 0 {
			continue
		}
		if c.used.Load() {
			c.used.Store(false)
			continue
		}
		b.setSlot(i, nil)
		c.release()
		freed += ChunkSize
	}
	return len(b.chunks), freed
}

// Pageable reports whether PageOut may find clean slots: the buffer has a
// source archived from its last capture and is not detached.
func (b *Buffer) Pageable() bool {
	return b.src != nil && b.captured != 0 && b.srcCapture == b.captured && !b.detached
}

// ReadAt copies content at off into p, returning the bytes copied. Reading
// at or past EOF returns 0. The range must be present (LoadRange). ReadAt
// sets the referenced bit of each chunk it reads.
func (b *Buffer) ReadAt(off int64, p []byte) int {
	size := b.Len()
	if off < 0 || off >= size {
		return 0
	}
	if max := size - off; int64(len(p)) > max {
		p = p[:max]
	}
	total := 0
	for len(p) > 0 {
		ci := int(off / ChunkSize)
		cs := int(off % ChunkSize)
		var src []byte
		if ci < len(b.chunks) {
			c := b.chunks[ci]
			if !c.used.Load() {
				c.used.Store(true)
			}
			src = c.data[cs:]
		} else {
			src = b.tail[off-int64(len(b.chunks))*ChunkSize:]
			// The tail is the final segment; one copy finishes the read.
		}
		n := copy(p, src)
		p = p[n:]
		off += int64(n)
		total += n
	}
	return total
}

// WriteAt writes p at off, zero-filling any gap past the current end (like
// a sparse write). Only the chunks the write touches are copied; a write
// that fully covers a chunk replaces it without reading the old content, so
// only the slots LoadEdges names must be present.
func (b *Buffer) WriteAt(off int64, p []byte) {
	b.reattach()
	end := off + int64(len(p))
	if end > b.Len() {
		b.extend(end)
	}
	b.overwrite(off, p)
}

// overwrite copies p over existing content at off. Caller ensured capacity.
func (b *Buffer) overwrite(off int64, p []byte) {
	bodyLen := int64(len(b.chunks)) * ChunkSize
	for len(p) > 0 {
		if off >= bodyLen {
			copy(b.tail[off-bodyLen:], p)
			return
		}
		ci := int(off / ChunkSize)
		cs := int(off % ChunkSize)
		n := ChunkSize - cs
		if n > len(p) {
			n = len(p)
		}
		old := b.chunks[ci]
		b.touch(ci, cs, cs+n)
		switch {
		case cs == 0 && n == ChunkSize:
			// Full overwrite: build the new chunk straight from p.
			c := allocChunk()
			copy(c.data, p)
			b.setSlot(ci, c)
			if old != nil {
				old.release()
			}
		case old == nil:
			panic(fmt.Sprintf("extent: partial write to absent slot %d (LoadEdges first)", ci))
		case old.refs.Load() == 1:
			// Exclusive: no snapshot or stored copy can see this chunk, so
			// mutate in place; its old hash no longer holds.
			copy(old.data[cs:], p[:n])
			old.hashed.Store(false)
		default:
			// Shared: copy-on-write.
			c := allocChunk()
			copy(c.data, old.data)
			copy(c.data[cs:], p[:n])
			b.setSlot(ci, c)
			old.release()
		}
		p = p[n:]
		off += int64(n)
	}
}

// extend zero-extends the buffer to newLen, sealing the tail as it fills.
// Whole zero chunks share the package's single zero chunk.
func (b *Buffer) extend(newLen int64) {
	cur := b.Len()
	if newLen <= cur {
		return
	}
	b.needTail()
	// Fill the tail up to a chunk boundary (or the target) with zeros.
	if len(b.tail) > 0 || newLen < int64(len(b.chunks)+1)*ChunkSize {
		want := newLen - int64(len(b.chunks))*ChunkSize
		if want > ChunkSize {
			want = ChunkSize
		}
		b.tail = zeroFill(b.tail, int(want))
		if len(b.tail) == ChunkSize {
			b.sealTail()
		}
	}
	// Whole zero chunks for the remaining body.
	for int64(len(b.chunks)+1)*ChunkSize <= newLen {
		b.appendChunk(zeroChunk.retain())
	}
	// Remaining zeros go to the (empty) tail.
	if rem := newLen - int64(len(b.chunks))*ChunkSize; rem > int64(len(b.tail)) {
		b.tail = zeroFill(b.tail, int(rem))
	}
}

// zeroFill appends zeros until len(p) == n (no-op if already there).
func zeroFill(p []byte, n int) []byte {
	if len(p) >= n {
		return p
	}
	return append(p, make([]byte, n-len(p))...)
}

// sealTail turns the full tail into a chunk, keeping the tail's backing
// array for future appends.
func (b *Buffer) sealTail() {
	c := allocChunk()
	copy(c.data, b.tail)
	b.appendChunk(c)
	b.tail = b.tail[:0]
}

// needTail is the invariant every reader and writer of the tail keeps: it
// was loaded first (LoadRange, LoadEdges).
func (b *Buffer) needTail() {
	if b.absentTail > 0 {
		panic("extent: the tail is absent (LoadEdges first)")
	}
}

// Truncate sets the length to size, zero-extending if it grows. Only the
// slot or tail that size cuts in part must be present (LoadEdges(size,
// size)).
func (b *Buffer) Truncate(size int64) {
	b.reattach()
	b.truncate(size)
	if len(b.chunks) == 0 && b.absentTail == 0 {
		// Nothing is left that the source could load or page out.
		b.setSource(nil, 0)
	}
}

func (b *Buffer) truncate(size int64) {
	if size >= b.Len() {
		b.extend(size)
		return
	}
	keep := int(size / ChunkSize)
	rem := int(size % ChunkSize)
	if keep >= len(b.chunks) {
		if size == b.bodyLen() {
			b.tail, b.absentTail = b.tail[:0], 0
			return
		}
		b.needTail()
		b.tail = b.tail[:size-b.bodyLen()]
		return
	}
	var newTail []byte
	if rem > 0 {
		if b.chunks[keep] == nil {
			panic(fmt.Sprintf("extent: truncate into absent slot %d (LoadEdges first)", keep))
		}
		newTail = append(b.tail[:0], b.chunks[keep].data[:rem]...)
	} else {
		newTail = b.tail[:0]
	}
	for i := keep; i < len(b.chunks); i++ {
		if c := b.chunks[i]; c != nil {
			b.setSlot(i, nil)
			c.release()
		}
	}
	b.chunks = b.chunks[:keep]
	if len(b.dirty) > keep {
		b.dirty = b.dirty[:keep]
	}
	b.tail, b.absentTail = newTail, 0
}

// Snapshot captures the current content in O(#chunks): sealed chunks are
// retained by reference, only the tail (< ChunkSize) is copied. Absent slots
// stay absent in the snapshot, which shares the buffer's source; the tail
// must be present.
func (b *Buffer) Snapshot() *Snapshot {
	b.reattach()
	b.needTail()
	chunks := make([]*Chunk, len(b.chunks))
	for i, c := range b.chunks {
		if c != nil {
			chunks[i] = c.retain()
		}
	}
	if b.src != nil {
		b.src.Retain()
	}
	return &Snapshot{chunks: chunks, tail: append([]byte(nil), b.tail...), src: b.src}
}

// captureSeq names captures process-wide, so no two name the same state.
var captureSeq atomic.Uint64

// Capture is Snapshot for the commit path. The snapshot also carries what
// changed since the buffer's previous capture — that capture's name and the
// dirty span of every chunk slot — and becomes the capture the next one
// follows. The first capture follows none.
func (b *Buffer) Capture() *Snapshot {
	s := b.Snapshot()
	s.id = captureSeq.Add(1)
	if b.captured != 0 {
		s.follows, s.dirty = b.captured, b.dirty
	}
	b.captured, b.dirty = s.id, nil
	return s
}

// SetBytes replaces the buffer's content with a copy of p.
func (b *Buffer) SetBytes(p []byte) {
	b.Truncate(0)
	b.WriteAt(0, p)
}

// Bytes materializes the whole content as a fresh byte slice. The content
// must be present (LoadRange).
func (b *Buffer) Bytes() []byte {
	out := make([]byte, b.Len())
	b.ReadAt(0, out)
	return out
}

// ReleaseRefs drops the buffer's chunk references without discarding the
// structure: reads keep working (unlinked file held open), but the chunks no
// longer count as live unless something else references them. Each is marked
// an orphan before its reference goes, so its bytes never go back to the free
// list under the reads. A later mutation or snapshot re-retains. The source
// stays while a slot or the tail is absent, so a reader can still load it;
// with nothing absent it is given up.
func (b *Buffer) ReleaseRefs() {
	if b.detached {
		return
	}
	absent := b.absentTail > 0
	for _, c := range b.chunks {
		if c == nil {
			absent = true
		} else {
			c.orphan()
			c.release()
		}
	}
	if !absent {
		b.setSource(nil, 0)
	}
	b.detached = true
}

// reattach undoes ReleaseRefs before any mutation or snapshot.
func (b *Buffer) reattach() {
	if !b.detached {
		return
	}
	for _, c := range b.chunks {
		if c != nil {
			c.retain()
		}
	}
	b.detached = false
}

// WrapChunk wraps data (owned by the chunk from here on; callers must not
// modify it) as a chunk whose content hash is already known — a blob read
// back from the disk tier, whose read verified the hash.
func WrapChunk(data []byte, h Hash) *Chunk {
	c := newChunk(data)
	c.hash = h
	c.hashed.Store(true)
	return c
}

// Snapshot is an immutable manifest of content: shared chunks plus a tail
// nothing ever writes to. A nil chunk is an absent slot, whose bytes src
// holds. Snapshots are safe for concurrent use.
type Snapshot struct {
	chunks []*Chunk
	tail   []byte
	src    Source

	// Set by Capture: the capture's name, the one it follows (0: none) and,
	// when it follows one, the span of each chunk slot written since.
	id, follows uint64
	dirty       []Span
}

// BuildSnapshot assembles a snapshot from already-retained chunks and a tail.
// Ownership of both transfers to the snapshot: the chunk references, and the
// tail bytes, which are NOT copied — the caller must never write to them
// again (a snapshot's tail is immutable). This is the archive's
// materialization path (archive.Held.Load), which reads each slot into a
// chunk of its own through LoadChunk and passes the tail it read.
func BuildSnapshot(chunks []*Chunk, tail []byte) *Snapshot {
	return &Snapshot{chunks: chunks, tail: tail}
}

// FromBytes builds a snapshot owning a chunked copy of p.
func FromBytes(p []byte) *Snapshot {
	var chunks []*Chunk
	for int64(len(p)) >= ChunkSize {
		c := allocChunk()
		copy(c.data, p)
		chunks = append(chunks, c)
		p = p[ChunkSize:]
	}
	return &Snapshot{chunks: chunks, tail: append([]byte(nil), p...)}
}

// Len returns the content length.
func (s *Snapshot) Len() int64 {
	return int64(len(s.chunks))*ChunkSize + int64(len(s.tail))
}

// NumChunks reports the number of sealed chunks in the manifest.
func (s *Snapshot) NumChunks() int { return len(s.chunks) }

// Chunks exposes the manifest's chunks (archive interning); a nil one is an
// absent slot (Load). Callers must not modify the returned slice or the
// chunks, and use them only while they hold the snapshot.
func (s *Snapshot) Chunks() []*Chunk { return s.chunks }

// Source is where the snapshot's absent slots load from (nil when it has
// none).
func (s *Snapshot) Source() Source { return s.src }

// Load returns slot i as a caller-owned chunk reference: the present chunk,
// or an absent slot read through the source.
func (s *Snapshot) Load(i int) (*Chunk, error) {
	if c := s.chunks[i]; c != nil {
		return c.retain(), nil
	}
	c, err := readSlot(s.src, i)
	if err != nil {
		return nil, fmt.Errorf("extent: loading chunk slot %d: %w", i, err)
	}
	return c, nil
}

// Tail exposes the manifest's tail bytes. Callers must not modify them.
func (s *Snapshot) Tail() []byte { return s.tail }

// Captured reports the capture's name and the capture it follows: both 0 for
// a plain snapshot, follows 0 for a capture that follows none.
func (s *Snapshot) Captured() (id, follows uint64) { return s.id, s.follows }

// Dirty reports the span of chunk slot i written since the capture s
// follows: empty when the slot is unchanged, the whole chunk when its chunk
// was replaced or appended. Meaningful only for a capture that follows one.
func (s *Snapshot) Dirty(i int) Span {
	if i < len(s.dirty) {
		return s.dirty[i]
	}
	return Span{}
}

// Bytes materializes the content as a fresh byte slice, reading absent slots
// through the source. It is for content whose source cannot fail — tests,
// and materialized archive versions, which have no absent slots: a failing
// source panics. Callers that must handle the error use Load.
func (s *Snapshot) Bytes() []byte {
	out := make([]byte, 0, s.Len())
	for i := range s.chunks {
		c, err := s.Load(i)
		if err != nil {
			panic(err)
		}
		out = append(out, c.data...)
		c.release()
	}
	return append(out, s.tail...)
}

// Release drops the snapshot's chunk references and its source. A chunk
// whose last reference this was hands its bytes back to the free list, so
// nothing may read the snapshot, or a chunk or Data slice borrowed from it,
// after Release. Releasing twice is a bug.
func (s *Snapshot) Release() {
	for _, c := range s.chunks {
		if c != nil {
			c.release()
		}
	}
	if s.src != nil {
		s.src.Release()
	}
}
