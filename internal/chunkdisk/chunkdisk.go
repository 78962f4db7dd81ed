// Package chunkdisk is the durable tier under the archive server: a
// hash-addressed blob store on a real directory. It keeps no copy of a blob
// in memory; the member's memory tier is the file system's resident chunks
// (internal/fs), which page against the archive.
//
// This package owns a blob's whole lifetime: the bytes AND the count of
// version slots that reference them, in one shard under one mutex. Put takes
// a reference, storing the bytes only when the store does not hold them
// (PutBytes is Put for bytes that are not a chunk of their own — a patch cut
// out of a live chunk, a version's tail); Ref takes one on bytes already held
// and reports false, holding nothing, when they are not; Release gives one
// back. Three invariants are the protocol:
//
//  1. A count and its liveness never change under different locks: the
//     reference count and the index entry of a hash both live in its shard,
//     and a blob is dead exactly when it is indexed with no reference.
//  2. A reference is never granted on bytes that are not yet on the device:
//     a Put or Ref that meets a write in flight for its hash waits for the
//     outcome, and a failed write leaves no count behind.
//  3. A release to zero cannot be overtaken by a claimer: the blob turns dead
//     in the critical section that drops the count, so the next Put or Ref
//     sees either a held blob or a dead one it revives in place.
//
// Counts are volatile. A store opened over an existing directory adopts every
// blob it finds as dead — nothing references it yet — and the archive's
// catalog replay Refs back what its histories list; the first sweep reclaims
// the rest.
//
// Every blob is written through at Put time (the durability point), from
// where the caller's bytes lie, and the store keeps nothing of them: the live
// file goes on writing the chunk it stored. A blob is read one way: ReadInto
// reads it from the device into the caller's buffer and verifies its content
// hash on the way (a corrupted or truncated pack record surfaces as an error,
// never as silent bad data).
// That is how the archive assembles a chunk slot from its base and patches.
// ReadForTransfer is the same read for a copy to another store, and Get is
// ReadInto into a chunk of its own.
//
// Deletion is deferred: the Release that drops the last reference only marks
// the disk copy dead. A sweep (archive GC) retires dead records in place — so
// TruncateAfter/Drop never pay disk I/O inline, and a hash that is re-archived
// before the sweep is revived without a device transfer.
//
// Every blob is appended to a packfile (see pack.go) as a raw record, the
// bytes as they were put: one sequential append stream, no file per blob, one
// form on disk. A directory holding a blob in a form earlier stores wrote — a
// pack record or footer entry flagged compressed, or a fan-out dir of loose
// blobs (ab/cdef…, one file per hash) — fails Open with a RetiredFormError
// naming the file, before anything in it is moved, cut or quarantined.
// Config.Fsync selects the durability policy (none | group | always, see
// internal/fsyncer), and a single-owner lockfile (archive.lock) keeps two
// processes from corrupting one directory.
//
// Blobs are usually extent chunks (exactly extent.ChunkSize bytes) but the
// store is length-agnostic: the archive also stores version tails (the
// sub-chunk final segment of a file) through the same interface.
package chunkdisk

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"datalinks/internal/dirlock"
	"datalinks/internal/extent"
	"datalinks/internal/fsyncer"
	"datalinks/internal/metrics"
)

// shardCount must be a power of two.
const shardCount = 16

// Config configures a store.
type Config struct {
	// Dir is the root of the on-disk store (required).
	Dir string
	// MemoryBudget is ignored: the store keeps no blob in memory.
	MemoryBudget int64
	// PackTargetBytes seals the active packfile once it grows past this
	// (<= 0: DefaultPackTargetBytes).
	PackTargetBytes int64
	// packGarbageRatio compacts a sealed packfile once this fraction of its
	// payload is dead (<= 0 or >= 1: DefaultPackGarbageRatio).
	packGarbageRatio float64
	// Fsync selects the durability policy for blob and pack writes; see
	// internal/fsyncer. The default (PolicyNone) matches the historical
	// rely-on-the-OS behaviour.
	Fsync fsyncer.Policy
	// Metrics, if set, mirrors the tier counters (chunkdisk.fsyncs,
	// chunkdisk.pack.appends, chunkdisk.pack.dead_bytes) into a registry.
	Metrics *metrics.Registry
}

// Stats is a point-in-time view of the tier counters.
type Stats struct {
	Spills    int64 // blobs written to disk
	PageIns   int64 // blobs read back from disk
	Evictions int64 // always 0: the store keeps no blob in memory
	GCFreed   int64 // dead disk blobs reclaimed by Sweep
	DiskBlobs int64 // blobs currently on disk (incl. dead, pre-sweep)
	DiskBytes int64 // blob bytes currently on disk
	DeadBlobs int64 // disk blobs awaiting sweep

	// Packfile / durability counters.
	Fsyncs          int64 // physical fdatasync calls issued by this store
	PackAppends     int64 // records appended to packfiles
	PackFiles       int64 // packfiles currently on disk
	PackDeadBytes   int64 // dead payload bytes awaiting compaction
	PackCompactions int64 // packfiles evacuated and unlinked
	PackTornBytes   int64 // invalid pack suffix quarantined at open
	FilesCreated    int64 // packfiles this store created
}

// diskMeta describes one on-disk blob: a record inside packfile pack whose
// payload starts at byte offset off.
type diskMeta struct {
	size int64 // payload length: the blob as it was put
	pack int64 // packfile sequence
	off  int64 // payload offset within the pack
}

// blobState is what a shard knows of one hash: how many version slots
// reference it and where its device copy lies. A hash is indexed from its
// write-through or adoption until a sweep reclaims it; with refs == 0 it is
// dead, on disk and awaiting the sweep.
type blobState struct {
	diskMeta
	refs int64
}

// shard is one stripe of the store: everything the store knows about the
// hashes it owns, under one mutex.
type shard struct {
	mu sync.Mutex
	// settled is broadcast whenever a write-through finishes: what refLocked
	// waits on.
	settled sync.Cond
	blobs   map[extent.Hash]blobState
	// putting holds the hashes of write-throughs in flight: a reference or a
	// read of one waits for the outcome.
	putting map[extent.Hash]struct{}
}

// Store is a tiered blob store. Safe for concurrent use.
type Store struct {
	dir    string
	shards [shardCount]shard

	packs *packSet
	sync  *fsyncer.Syncer // durability policy (never nil)
	lock  *dirlock.Lock   // archive.lock we own (nil when not held)

	// Optional metrics mirrors (nil without a registry).
	mFsyncs      *metrics.Counter
	mPackAppends *metrics.Counter
	mPackDead    *metrics.Counter

	spills          atomic.Int64
	pageIns         atomic.Int64
	gcFreed         atomic.Int64
	diskBlobs       atomic.Int64
	diskBytes       atomic.Int64
	deadBlobs       atomic.Int64
	fsyncs          atomic.Int64
	packAppends     atomic.Int64
	packFiles       atomic.Int64
	packDeadBytes   atomic.Int64
	packCompactions atomic.Int64
	packTornBytes   atomic.Int64
	filesCreated    atomic.Int64

	// scannedPacks counts the packs Open indexed by scanning their records
	// rather than from a footer.
	scannedPacks int

	closeOnce sync.Once
	closeErr  error

	// afterPackAppend, when a test sets it, runs in Put between the pack
	// append and the publication of the record in the index; an error it
	// returns fails the write.
	afterPackAppend func() error
	// afterFooterWrite, when a test sets it, runs when a pack's footer has
	// been written and before the fsync; an error it returns stops the seal
	// there, the pack not marked sealed.
	afterFooterWrite func() error
}

// ctrInc / ctrAdd bump an optional registry mirror.
func (s *Store) ctrInc(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (s *Store) ctrAdd(c *metrics.Counter, n int64) {
	if c != nil {
		c.Add(n)
	}
}

// countFsync records one physical fdatasync.
func (s *Store) countFsync() {
	s.fsyncs.Add(1)
	s.ctrInc(s.mFsyncs)
}

// Open returns a store over cfg.Dir, creating the directory if needed. Blobs
// already present (a previous process's store) are adopted as dead: nothing
// references them yet, so the first sweep reclaims whatever the new archive
// does not re-intern first. Open takes single ownership of the directory via
// an archive.lock file (O_EXCL + pid): a second live store over the same
// directory fails fast instead of corrupting the first, and a lock left by a
// dead process is stolen.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("chunkdisk: Config.Dir is required")
	}
	s := &Store{dir: cfg.Dir}
	if cfg.Metrics != nil {
		s.mFsyncs = cfg.Metrics.Counter("chunkdisk.fsyncs")
		s.mPackAppends = cfg.Metrics.Counter("chunkdisk.pack.appends")
		s.mPackDead = cfg.Metrics.Counter("chunkdisk.pack.dead_bytes")
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.settled.L = &sh.mu
		sh.blobs = make(map[extent.Hash]blobState)
		sh.putting = make(map[extent.Hash]struct{})
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("chunkdisk: %w", err)
	}
	if err := s.acquireLock(); err != nil {
		return nil, err
	}
	// One listing of the directory serves the loose-dir check and the packs'
	// adoption.
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		s.releaseLock()
		return nil, fmt.Errorf("chunkdisk: %w", err)
	}
	if err := s.refuseLoose(entries); err != nil {
		s.releaseLock()
		return nil, err
	}
	s.packs = newPackSet(s, cfg.Dir, cfg.PackTargetBytes, cfg.packGarbageRatio)
	// The group-commit flush: one fdatasync of the active pack covers every
	// append that completed before the round began. It does its own fsync
	// counting (a barrier with no active pack syncs nothing and must not
	// count) — no onSync hook.
	s.sync = fsyncer.New(cfg.Fsync, 0, s.packs.flushActive, nil)
	if err := s.adoptPacks(entries); err != nil {
		s.packs.close(false)
		s.releaseLock()
		return nil, err
	}
	return s, nil
}

// lockName is the single-owner lockfile kept in the store directory.
const lockName = "archive.lock"

// acquireLock takes single ownership of the directory via dirlock, which
// stamps the lockfile with pid + process start token: a dead owner — even
// one whose pid has been recycled by an unrelated process — is stolen from,
// a live owner is refused.
func (s *Store) acquireLock() error {
	lk, err := dirlock.Acquire(s.dir, lockName)
	if err != nil {
		return fmt.Errorf("chunkdisk: %w", err)
	}
	s.lock = lk
	return nil
}

// releaseLock removes the lockfile if this store holds it.
func (s *Store) releaseLock() {
	if s.lock != nil {
		s.lock.Release()
		s.lock = nil
	}
}

// RetiredFormError fails the open of a directory that holds a blob in a form
// earlier stores wrote and this one does not read: a pack record or footer
// entry flagged compressed, or a two-hex-digit fan-out dir of loose blobs.
// Nothing in the directory has been changed when it is returned.
type RetiredFormError struct {
	Path string // the pack file or fan-out dir
	Form string // what is there
}

func (e *RetiredFormError) Error() string {
	return fmt.Sprintf("chunkdisk: %s holds %s, a retired blob form this store does not read", e.Path, e.Form)
}

// refuseLoose fails the open of a directory with a fan-out dir of the loose
// one-file-per-hash layout: dir/ab/cdef…. entries is the directory's
// listing; it looks at nothing but a two-hex-digit directory name.
func (s *Store) refuseLoose(entries []os.DirEntry) error {
	for _, e := range entries {
		name := e.Name()
		if len(name) != 2 || !e.IsDir() {
			continue
		}
		if _, err := hex.DecodeString(name); err == nil {
			return &RetiredFormError{Path: filepath.Join(s.dir, name), Form: "loose blobs"}
		}
	}
	return nil
}

// indexDeadLocked indexes an adopted blob as dead: on disk, referenced by
// nothing until a Ref or a re-Put revives it. Caller holds the shard lock (or
// is Open, before any concurrency).
func (s *Store) indexDeadLocked(sh *shard, h extent.Hash, meta diskMeta) {
	sh.blobs[h] = blobState{diskMeta: meta}
	s.diskBlobs.Add(1)
	s.diskBytes.Add(meta.size)
	s.deadBlobs.Add(1)
}

// shardFor picks the shard owning a hash.
func (s *Store) shardFor(h extent.Hash) *shard {
	return &s.shards[h[0]&(shardCount-1)]
}

// refLocked takes one reference on h if the store holds its bytes, reviving
// a dead blob in place. A write-through in flight for h is waited out first —
// referenced bytes are on the device — so a false return leaves the shard
// locked with h absent and nothing about to change that. Caller holds the
// shard lock.
func (s *Store) refLocked(sh *shard, h extent.Hash) bool {
	for {
		if b := sh.blobs[h]; b.refs > 0 {
			b.refs++
			sh.blobs[h] = b
			return true
		}
		if _, putting := sh.putting[h]; !putting {
			break
		}
		sh.settled.Wait()
	}
	b, ok := sh.blobs[h]
	if !ok {
		return false
	}
	s.deadBlobs.Add(-1) // indexed with no reference: dead until now
	b.refs = 1
	sh.blobs[h] = b
	return true
}

// Ref takes one reference on bytes the store already holds — live, or dead
// but unswept and revived in place, with no device transfer either way — and
// reports false, holding nothing, when it does not hold them.
func (s *Store) Ref(h extent.Hash) bool {
	sh := s.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.refLocked(sh, h)
}

// Put takes one reference on h, which the caller guarantees is the chunk's
// content hash, storing the bytes only if the store does not hold them: they
// are written through before Put returns, as PutBytes does, and nothing of the
// chunk is kept. wrote reports whether a device transfer happened — false when
// the bytes were already held. A failed write takes no reference.
func (s *Store) Put(h extent.Hash, c *extent.Chunk) (wrote bool, err error) {
	return s.PutBytes(h, c.Data())
}

// PutBytes is Put for bytes that are not a chunk of their own — a patch cut
// out of a live chunk, a version's tail — which the caller may write to again
// once it returns: they are written through from where they lie, and the blob
// is read back from the device when it is wanted.
func (s *Store) PutBytes(h extent.Hash, data []byte) (wrote bool, err error) {
	sh := s.shardFor(h)
	sh.mu.Lock()
	if s.refLocked(sh, h) {
		sh.mu.Unlock()
		return false, nil
	}
	sh.putting[h] = struct{}{}
	sh.mu.Unlock()

	meta, pack, werr := s.writeThrough(h, data)

	sh.mu.Lock()
	delete(sh.putting, h)
	if werr == nil {
		s.publishLocked(sh, h, meta)
	}
	sh.settled.Broadcast()
	sh.mu.Unlock()
	if werr != nil {
		return false, werr
	}
	s.packs.published(pack)
	return true, nil
}

// writeThrough appends a blob to the shared packfile. The pack comes back
// pinned until the caller has published the blob in the index; a failed write
// leaves no pin, and any record it did append is dead space.
func (s *Store) writeThrough(h extent.Hash, data []byte) (meta diskMeta, pack *packMeta, err error) {
	meta = diskMeta{size: int64(len(data))}
	if pack, meta.off, err = s.packs.append(h, data); err != nil {
		return meta, nil, err
	}
	meta.pack = pack.seq
	if s.afterPackAppend != nil {
		if err = s.afterPackAppend(); err != nil {
			s.packs.abandon(pack, meta.size)
			return meta, nil, err
		}
	}
	return meta, pack, nil
}

// publishLocked indexes a blob whose write-through landed, with the
// reference its Put takes. Caller holds the shard lock.
func (s *Store) publishLocked(sh *shard, h extent.Hash, meta diskMeta) {
	sh.blobs[h] = blobState{diskMeta: meta, refs: 1}
	s.diskBlobs.Add(1)
	s.diskBytes.Add(meta.size)
	s.spills.Add(1)
}

// Get reads blob h into a chunk of its own, with h as its known hash. The
// caller must release the chunk, and holds a reference on the blob across the
// call, as for ReadInto.
func (s *Store) Get(h extent.Hash) (*extent.Chunk, error) {
	b, ok := s.lookup(h)
	if !ok {
		return nil, errNotStored(h)
	}
	data := make([]byte, b.size)
	if _, err := s.ReadInto(h, data); err != nil {
		return nil, err
	}
	return extent.WrapChunk(data, h), nil
}

// ReadInto reads the bytes of blob h from the device into dst, verifies them
// against h and reports how many there are. A blob longer than dst is an
// error. The caller holds a reference across the call (the archive holds a
// version's blobs for the length of a read), so the blob cannot be swept
// mid-read.
func (s *Store) ReadInto(h extent.Hash, dst []byte) (int, error) {
	b, ok := s.lookup(h)
	if !ok {
		return 0, errNotStored(h)
	}
	if b.size > int64(len(dst)) {
		return 0, errLonger(h, int(b.size), len(dst))
	}
	dst = dst[:b.size]
	if err := s.readPackBlob(h, dst, false); err != nil {
		return 0, err
	}
	if sum := sha256.Sum256(dst); extent.Hash(sum) != h {
		return 0, errCorrupted(h)
	}
	s.pageIns.Add(1)
	return len(dst), nil
}

// RecordOverhead is how many bytes a pack record adds to the blob it frames:
// ReadForTransfer reads into a buffer that much longer than the blob.
const RecordOverhead = packRecHdrLen + packRecMeta

// ReadForTransfer returns the bytes of blob h, read into dst, for a copy to
// another store. The blob comes with its pack record and is verified against
// the record's CRC — which covers the hash the record was written under —
// instead of being hashed again: the receiving store checks the content hash
// whenever it reads the blob back, as every read does. dst must be
// RecordOverhead bytes longer than the blob. The caller holds a reference
// across the call, as for ReadInto.
func (s *Store) ReadForTransfer(h extent.Hash, dst []byte) ([]byte, error) {
	b, ok := s.lookup(h)
	if !ok {
		return nil, errNotStored(h)
	}
	if RecordOverhead+b.size > int64(len(dst)) {
		return nil, errLonger(h, int(b.size), len(dst)-RecordOverhead)
	}
	rec := dst[:RecordOverhead+b.size]
	if err := s.readPackBlob(h, rec, true); err != nil {
		return nil, err
	}
	if got, data, _, ok, _ := parseRecord(rec); ok && got == h {
		s.pageIns.Add(1)
		return data, nil
	}
	return nil, errCorrupted(h)
}

func errLonger(h extent.Hash, n, room int) error {
	return fmt.Errorf("chunkdisk: blob %x is %d bytes, longer than the %d it is read into", h[:8], n, room)
}

// errCorrupted, like the two errors beside it, takes the hash by value: a
// read that slices its own h for an error would move h to the heap on every
// call, failing or not.
func errCorrupted(h extent.Hash) error {
	return fmt.Errorf("chunkdisk: blob %x corrupted on disk", h[:8])
}

func errNotStored(h extent.Hash) error {
	return fmt.Errorf("chunkdisk: blob %x not stored", h[:8])
}

// lookup returns what the index holds of h. A write-through in flight is
// waited out first, after which the blob is on the device, or not stored.
func (s *Store) lookup(h extent.Hash) (blobState, bool) {
	sh := s.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		if _, putting := sh.putting[h]; !putting {
			b, ok := sh.blobs[h]
			return b, ok
		}
		sh.settled.Wait()
	}
}

// readPackBlob reads blob h's stored bytes into buf, which is as long as
// them; framed reads the whole pack record, header and all. The shared
// relocMu is held across the read so compaction cannot unlink the pack under
// it, and the index entry is looked up after locking: a blob the compactor
// relocated since the caller looked it up is found at its new address.
func (s *Store) readPackBlob(h extent.Hash, buf []byte, framed bool) error {
	ps := s.packs
	ps.relocMu.RLock()
	defer ps.relocMu.RUnlock()
	sh := s.shardFor(h)
	sh.mu.Lock()
	cur, ok := sh.blobs[h]
	sh.mu.Unlock()
	if !ok {
		// Swept in the window. Callers hold a reference across a read, so
		// this indicates a contract violation — surface it as missing.
		return errNotStored(h)
	}
	off := cur.off
	if framed {
		off -= RecordOverhead
	}
	return ps.readInto(cur.pack, off, buf)
}

// Release gives one reference back. At zero the disk copy is dead, left for
// the next sweep — in this critical section, so no Put or Ref can come
// between the count and the death.
func (s *Store) Release(h extent.Hash) {
	sh := s.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch b := sh.blobs[h]; {
	case b.refs > 1:
		b.refs--
		sh.blobs[h] = b
	case b.refs == 1:
		b.refs = 0
		sh.blobs[h] = b
		s.deadBlobs.Add(1)
	}
}

// Sweep reclaims every dead blob and returns how many it freed. Each retires
// in place — the index entry goes away, the record's bytes become dead space
// — with no file I/O; packs whose garbage ratio crossed the threshold are
// then compacted. The archive calls it from GCNow and once more at Close.
func (s *Store) Sweep() int {
	freed := 0
	packDead := make(map[int64]int64)
	packBlobs := make(map[int64]int64)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for h, b := range sh.blobs {
			if b.refs != 0 {
				continue
			}
			// A reader cannot be mid-read: dead means unreferenced, and
			// readers pin references.
			meta := b.diskMeta
			delete(sh.blobs, h)
			s.deadBlobs.Add(-1)
			s.diskBlobs.Add(-1)
			s.diskBytes.Add(-meta.size)
			s.gcFreed.Add(1)
			packDead[meta.pack] += meta.size
			packBlobs[meta.pack]++
			freed++
		}
		sh.mu.Unlock()
	}
	s.packs.retire(packDead, packBlobs)
	s.packs.maybeCompact()
	return freed
}

// Sync is the commit durability barrier: under the group policy it returns
// after a (shared) fdatasync covering every pack append that completed
// before the call; under none and always it returns immediately (nothing
// promised / already flushed per write).
func (s *Store) Sync() error {
	return s.sync.Barrier()
}

// SyncRound is Sync, additionally reporting the group-commit round that made
// the caller's appends durable (0 under none/always). Traces use it.
func (s *Store) SyncRound() (uint64, error) {
	return s.sync.BarrierRound()
}

// errClosed fails a write to a closed store.
var errClosed = errors.New("chunkdisk: store closed")

// Close seals the active packfile (fsyncing it under policies that sync) and
// releases the directory lock. The store must not be used afterwards.
// Idempotent.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.packs.close(true)
		s.releaseLock()
	})
	return s.closeErr
}

// Crash simulates process death for tests: pack handles close without any
// flush, and the directory lock is released (a real
// crash releases it too — the pid check lets the next open steal it), but no
// seal-time fsync and no final sweep happen. The on-disk state is exactly
// what the OS had.
func (s *Store) Crash() {
	s.closeOnce.Do(func() {
		_ = s.packs.close(false)
		s.releaseLock()
	})
}

// Stats returns the current tier counters.
func (s *Store) Stats() Stats {
	return Stats{
		Spills:          s.spills.Load(),
		PageIns:         s.pageIns.Load(),
		GCFreed:         s.gcFreed.Load(),
		DiskBlobs:       s.diskBlobs.Load(),
		DiskBytes:       s.diskBytes.Load(),
		DeadBlobs:       s.deadBlobs.Load(),
		Fsyncs:          s.fsyncs.Load(),
		PackAppends:     s.packAppends.Load(),
		PackFiles:       s.packFiles.Load(),
		PackDeadBytes:   s.packDeadBytes.Load(),
		PackCompactions: s.packCompactions.Load(),
		PackTornBytes:   s.packTornBytes.Load(),
		FilesCreated:    s.filesCreated.Load(),
	}
}

// Dir reports the on-disk root.
func (s *Store) Dir() string { return s.dir }
