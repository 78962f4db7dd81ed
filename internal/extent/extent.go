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
// and the chunk is not pinned (refs == 1 && !pinned). A chunk is pinned when
// it passes through a store — WrapChunk and Freeze build pinned chunks, and a
// store that keeps a caller's chunk (chunkdisk's resident copies) pins it —
// so a detached reader of a stored chunk never sees it change. Being hashed
// does not pin: an in-place write forgets the memoized hash. A snapshot, a
// quarantine copy or an archived version that still shares the chunk forces
// a copy. That is what lets the commit path archive a small edit as a patch,
// and a whole chunk without the file's next write copying it. Capture is the
// commit path's snapshot: besides the chunks it hands over the byte span of
// every chunk slot written since the buffer's previous capture, and names
// that capture, so the archive can store a written slot as (the version it
// archived from the previous capture) + (the written bytes) without hashing
// the live chunk, and a clean slot as it was. Share lets the archive job and
// the replica ship own one capture without copying it.
//
// Buffers are NOT safe for concurrent use — the owning inode's lock guards
// them. Chunks and Snapshots are immutable and may be shared freely across
// goroutines; their reference counts are atomic.
package extent

import (
	"crypto/sha256"
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

	// pinned: the chunk passed through a store, so it is never written in
	// place, even once the buffer is its only owner.
	pinned atomic.Bool
}

// newChunk wraps data (owned by the chunk from here on) with one reference.
func newChunk(data []byte) *Chunk {
	c := &Chunk{}
	c.data = data
	c.refs.Store(1)
	liveChunks.Add(1)
	liveBytes.Add(int64(len(data)))
	return c
}

// retain adds a reference. Retaining a fully released chunk resurrects it in
// the live accounting (the data was never freed).
func (c *Chunk) retain() *Chunk {
	if c.refs.Add(1) == 1 {
		liveChunks.Add(1)
		liveBytes.Add(int64(len(c.data)))
	}
	return c
}

// release drops a reference.
func (c *Chunk) release() {
	if n := c.refs.Add(-1); n == 0 {
		liveChunks.Add(-1)
		liveBytes.Add(-int64(len(c.data)))
	} else if n < 0 {
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

// Pin marks the chunk as held by a store: no buffer writes it in place from
// then on. chunkdisk pins every chunk it keeps resident.
func (c *Chunk) Pin() { c.pinned.Store(true) }

// Freeze wraps data (owned by the chunk from here on; callers must not modify
// it) as a pinned chunk whose hash is computed only if asked for: the
// archive's materialization of a patched slot, assembled in a private buffer.
func Freeze(data []byte) *Chunk {
	c := newChunk(data)
	c.Pin()
	return c
}

// Data exposes the chunk's bytes. Callers must not modify them.
func (c *Chunk) Data() []byte { return c.data }

// RetainChunk adds a caller-owned reference (exported for the archive's
// dedup table; buffers and snapshots manage their own references).
func (c *Chunk) RetainChunk() *Chunk { return c.retain() }

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
// Invariant: length = len(chunks)*ChunkSize + len(tail), 0 <= len(tail) <
// ChunkSize. The tail's backing array grows geometrically (append), fixing
// the quadratic reallocate-per-write append path of a flat []byte.
type Buffer struct {
	chunks []*Chunk
	tail   []byte

	// detached marks a buffer whose references were dropped (unlinked file
	// whose data outlives the namespace entry for open handles). Reads still
	// work; the first mutation or snapshot re-retains everything.
	detached bool

	// captured names the last Capture (0: none since the content was last
	// replaced wholesale). While it is set, dirty[i] is the span of chunk slot
	// i written since that capture: empty when untouched, the whole chunk when
	// the slot's chunk was replaced or appended.
	captured uint64
	dirty    []Span
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
	d := &b.dirty[i]
	if d.Lo == d.Hi {
		*d = Span{int32(lo), int32(hi)}
		return
	}
	d.Lo, d.Hi = min(d.Lo, int32(lo)), max(d.Hi, int32(hi))
}

// appendChunk adds a sealed chunk, wholly dirty, at the end of the body.
func (b *Buffer) appendChunk(c *Chunk) {
	b.chunks = append(b.chunks, c)
	if b.captured != 0 {
		b.dirty = append(b.dirty, wholeChunk)
	}
}

// NewBuffer returns an empty buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Len returns the content length.
func (b *Buffer) Len() int64 {
	return int64(len(b.chunks))*ChunkSize + int64(len(b.tail))
}

// NumChunks reports how many sealed chunks the buffer holds (tests).
func (b *Buffer) NumChunks() int { return len(b.chunks) }

// ReadAt copies content at off into p, returning the bytes copied. Reading
// at or past EOF returns 0.
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
			src = b.chunks[ci].data[cs:]
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
// that fully covers a chunk replaces it without reading the old content.
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
			data := make([]byte, ChunkSize)
			copy(data, p)
			b.chunks[ci] = newChunk(data)
			old.release()
		case old.refs.Load() == 1 && !old.pinned.Load():
			// Exclusive and in no store: no snapshot or stored copy can see
			// this chunk, so mutate in place; its old hash no longer holds.
			copy(old.data[cs:], p[:n])
			old.hashed.Store(false)
		default:
			// Shared or pinned: copy-on-write.
			data := make([]byte, ChunkSize)
			copy(data, old.data)
			copy(data[cs:], p[:n])
			b.chunks[ci] = newChunk(data)
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
	data := make([]byte, ChunkSize)
	copy(data, b.tail)
	b.appendChunk(newChunk(data))
	b.tail = b.tail[:0]
}

// Truncate sets the length to size, zero-extending if it grows.
func (b *Buffer) Truncate(size int64) {
	b.reattach()
	if size >= b.Len() {
		b.extend(size)
		return
	}
	keep := int(size / ChunkSize)
	rem := int(size % ChunkSize)
	if keep >= len(b.chunks) {
		b.tail = b.tail[:size-int64(len(b.chunks))*ChunkSize]
		return
	}
	newTail := append(b.tail[:0], b.chunks[keep].data[:rem]...)
	for _, c := range b.chunks[keep:] {
		c.release()
	}
	b.chunks = b.chunks[:keep]
	if b.captured != 0 {
		b.dirty = b.dirty[:keep]
	}
	b.tail = newTail
}

// Snapshot captures the current content in O(#chunks): sealed chunks are
// retained by reference, only the tail (< ChunkSize) is copied.
func (b *Buffer) Snapshot() *Snapshot {
	b.reattach()
	chunks := make([]*Chunk, len(b.chunks))
	for i, c := range b.chunks {
		chunks[i] = c.retain()
	}
	return &Snapshot{chunks: chunks, tail: append([]byte(nil), b.tail...)}
}

// captureSeq names captures process-wide, so no two name the same state.
var captureSeq atomic.Uint64

// Capture is Snapshot for the commit path. The snapshot also carries what
// changed since the buffer's previous capture — that capture's name and the
// dirty span of every chunk slot — and becomes the capture the next one
// follows. The first capture, and the first after SetSnapshot, follows none.
func (b *Buffer) Capture() *Snapshot {
	s := b.Snapshot()
	s.id = captureSeq.Add(1)
	if b.captured != 0 {
		s.follows, s.dirty = b.captured, b.dirty
	}
	b.captured = s.id
	b.dirty = make([]Span, len(b.chunks))
	return s
}

// SetSnapshot replaces the buffer's content with the snapshot's — the
// restore path's "manifest swap". O(#chunks) plus the tail copy. The next
// Capture follows none: nothing says which archived version the swapped-in
// content is.
func (b *Buffer) SetSnapshot(s *Snapshot) {
	old := b.chunks
	detached := b.detached
	b.chunks = make([]*Chunk, len(s.chunks))
	for i, c := range s.chunks {
		b.chunks[i] = c.retain()
	}
	b.tail = append(b.tail[:0], s.tail...)
	b.detached = false
	b.captured, b.dirty = 0, nil
	if !detached {
		for _, c := range old {
			c.release()
		}
	}
}

// SetBytes replaces the buffer's content with a copy of p.
func (b *Buffer) SetBytes(p []byte) {
	b.Truncate(0)
	b.WriteAt(0, p)
}

// Bytes materializes the whole content as a fresh byte slice.
func (b *Buffer) Bytes() []byte {
	out := make([]byte, b.Len())
	b.ReadAt(0, out)
	return out
}

// ReleaseRefs drops the buffer's chunk references without discarding the
// structure: reads keep working (unlinked file held open), but the chunks no
// longer count as live unless something else references them. A later
// mutation or snapshot re-retains.
func (b *Buffer) ReleaseRefs() {
	if b.detached {
		return
	}
	for _, c := range b.chunks {
		c.release()
	}
	b.detached = true
}

// reattach undoes ReleaseRefs before any mutation or snapshot.
func (b *Buffer) reattach() {
	if !b.detached {
		return
	}
	for _, c := range b.chunks {
		c.retain()
	}
	b.detached = false
}

// WrapChunk wraps data (owned by the chunk from here on; callers must not
// modify it) as a pinned chunk whose content hash is already known — the disk
// tier's page-in path, which verifies the hash against the file before
// wrapping.
func WrapChunk(data []byte, h Hash) *Chunk {
	c := newChunk(data)
	c.hash = h
	c.hashed.Store(true)
	c.Pin()
	return c
}

// Snapshot is an immutable manifest of content: shared chunks plus a tail
// nothing ever writes to. Snapshots are safe for concurrent use.
type Snapshot struct {
	chunks []*Chunk
	tail   []byte

	// Set by Capture: the capture's name, the one it follows (0: none) and,
	// when it follows one, the span of each chunk slot written since.
	id, follows uint64
	dirty       []Span

	// shared counts the owners Share added beyond the first.
	shared atomic.Int32
}

// BuildSnapshot assembles a snapshot from already-retained chunks and a tail.
// Ownership of both transfers to the snapshot: the chunk references, and the
// tail bytes, which are NOT copied — the caller must never write to them
// again (a snapshot's tail is immutable; Share shares it, SetSnapshot copies
// out of it). This is the archive's materialization path, which pages chunks
// in one by one, passes the frozen bytes of the paged-in tail blob
// (WrapChunk's contract) and hands the finished manifest to the restore swap.
func BuildSnapshot(chunks []*Chunk, tail []byte) *Snapshot {
	return &Snapshot{chunks: chunks, tail: tail}
}

// FromBytes builds a snapshot owning a chunked copy of p.
func FromBytes(p []byte) *Snapshot {
	var chunks []*Chunk
	for int64(len(p)) >= ChunkSize {
		data := make([]byte, ChunkSize)
		copy(data, p)
		chunks = append(chunks, newChunk(data))
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

// Chunks exposes the manifest's chunks (archive interning). Callers must not
// modify the returned slice or the chunks.
func (s *Snapshot) Chunks() []*Chunk { return s.chunks }

// Tail exposes the manifest's tail bytes. Callers must not modify them.
func (s *Snapshot) Tail() []byte { return s.tail }

// Captured reports the capture's name and the capture it follows: both 0 for
// a plain snapshot, follows 0 for a capture that follows none.
func (s *Snapshot) Captured() (id, follows uint64) { return s.id, s.follows }

// Dirty reports the span of chunk slot i written since the capture s
// follows: empty when the slot is unchanged, the whole chunk when its chunk
// was replaced or appended. Meaningful only for a capture that follows one.
func (s *Snapshot) Dirty(i int) Span { return s.dirty[i] }

// Bytes materializes the content as a fresh byte slice.
func (s *Snapshot) Bytes() []byte {
	out := make([]byte, 0, s.Len())
	for _, c := range s.chunks {
		out = append(out, c.data...)
	}
	return append(out, s.tail...)
}

// Share adds an owner of the same snapshot — no copy, no allocation. Every
// owner calls Release once; the chunk references go with the last.
func (s *Snapshot) Share() *Snapshot {
	s.shared.Add(1)
	return s
}

// Release drops the snapshot's chunk references — or, while Share added
// other owners, one owner's share. The manifest structure is deliberately
// left intact: chunk data is never freed, so a reader that
// still holds an alias of this snapshot (the archive hands out Entry values
// whose Manifest pointer aliases the store's copy, and Drop/TruncateAfter
// may release it concurrently) keeps reading valid content — release only
// affects live accounting and dedup eligibility. Releasing twice is a bug.
func (s *Snapshot) Release() {
	if s.shared.Add(-1) >= 0 {
		return
	}
	for _, c := range s.chunks {
		c.release()
	}
}

// Intern rebuilds this snapshot's manifest through fn, which maps each chunk
// to its canonical (deduplicated) representative and is expected to retain
// the returned chunk. Used by the archive store; the receiver is unchanged.
func (s *Snapshot) Intern(fn func(*Chunk) *Chunk) *Snapshot {
	chunks := make([]*Chunk, len(s.chunks))
	for i, c := range s.chunks {
		chunks[i] = fn(c)
	}
	return &Snapshot{chunks: chunks, tail: append([]byte(nil), s.tail...)}
}
