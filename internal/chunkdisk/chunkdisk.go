// Package chunkdisk is the durable tier under the archive server: a
// hash-addressed blob store on a real directory with a bounded in-memory LRU
// of hot chunks in front of it.
//
// This package owns a blob's whole lifetime: the bytes AND the count of
// version slots that reference them, in one shard under one mutex. Put takes
// a reference, storing the bytes only when the store does not hold them; Ref
// takes one on bytes already held and reports false, holding nothing, when
// they are not; Release gives one back. Three invariants are the protocol:
//
//  1. A count and its liveness never change under different locks: the
//     reference count, the resident copy, the index entry and the dead mark
//     of a hash all live in its shard.
//  2. A reference is never granted on bytes that are not yet on the device:
//     a Put or Ref that meets a write in flight for its hash waits for the
//     outcome, and a failed write leaves no count behind.
//  3. A release to zero cannot be overtaken by a claimer: the resident copy
//     is freed and the disk copy marked dead in the critical section that
//     drops the count, so the next Put or Ref sees either a held blob or a
//     dead one it revives in place.
//
// Counts are volatile. A store opened over an existing directory adopts every
// blob it finds as dead — nothing references it yet — and the archive's
// catalog replay Refs back what its histories list; the first sweep reclaims
// the rest.
//
// Every blob is written through to disk at Put time (the durability point),
// and the LRU decides which blobs also stay resident in memory. Get serves
// residents from memory and pages evicted blobs back in from disk, verifying
// their content hash on the way (a corrupted or truncated chunk file surfaces
// as an error, never as silent bad data).
//
// Deletion is deferred: the Release that drops the last reference frees the
// memory copy immediately but only marks the disk copy dead. A background
// sweep (archive GC) unlinks dead files in batches — so TruncateAfter/Drop
// never pay disk I/O inline, and a hash that is re-archived before the sweep
// is revived without a device transfer.
//
// With Dir == "" the store runs memory-only: no spill, no eviction, and the
// last Release frees immediately — the semantics the archive had before the
// disk tier.
//
// Small blobs — at or below Config.PackThreshold — are batched into
// append-only packfiles instead of costing one file each (see pack.go);
// large blobs keep the loose one-file-per-hash layout. Config.Fsync selects
// the durability policy for all of it (none | group | always, see
// internal/fsyncer), and a single-owner lockfile (archive.lock) keeps two
// processes from corrupting one directory.
//
// Blobs are usually extent chunks (exactly extent.ChunkSize bytes) but the
// store is length-agnostic: the archive also stores version tails (the
// sub-chunk final segment of a file) through the same interface.
package chunkdisk

import (
	"bytes"
	"compress/flate"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/dirlock"
	"datalinks/internal/extent"
	"datalinks/internal/fsyncer"
	"datalinks/internal/metrics"
	"datalinks/internal/seglog"
)

// shardCount must be a power of two. The LRU budget is split evenly across
// shards, so eviction is approximate-global but never cross-shard locked.
const shardCount = 16

// DefaultMemoryBudget bounds the resident LRU when the caller does not.
const DefaultMemoryBudget = 64 << 20

// Config configures a store.
type Config struct {
	// Dir is the root of the on-disk store. Empty means memory-only (no
	// spill, no eviction — the pre-tier archive semantics).
	Dir string
	// MemoryBudget is the LRU budget in bytes; <= 0 means
	// DefaultMemoryBudget. Ignored in memory-only mode (nothing backs an
	// evicted chunk there).
	MemoryBudget int64
	// Compress writes spilled blobs through compress/flate when that makes
	// them smaller (a blob that would grow — e.g. already-random content —
	// stays raw; the decision is per blob, recorded in the file name's ".z"
	// suffix). Content hashes are always verified on the UNCOMPRESSED bytes,
	// so a corrupted compressed file still surfaces as an error on page-in.
	// A store opened without Compress still reads ".z" blobs left by an
	// earlier compressed store, and vice versa.
	Compress bool
	// PackThreshold batches blobs whose (uncompressed) size is at or below
	// this into packfiles: 0 uses DefaultPackThreshold (one extent chunk,
	// so tails and single-chunk deltas batch), negative disables packing
	// entirely (every blob loose — the pre-packfile layout). Ignored in
	// memory-only mode.
	PackThreshold int64
	// PackTargetBytes seals the active packfile once it grows past this
	// (<= 0: DefaultPackTargetBytes).
	PackTargetBytes int64
	// PackGarbageRatio compacts a sealed packfile once this fraction of its
	// payload is dead (<= 0 or >= 1: DefaultPackGarbageRatio).
	PackGarbageRatio float64
	// Fsync selects the durability policy for blob and pack writes; see
	// internal/fsyncer. The default (PolicyNone) matches the historical
	// rely-on-the-OS behaviour.
	Fsync fsyncer.Policy
	// FsyncMaxDelay, under PolicyGroup, lets a group-commit leader wait this
	// long before flushing so more committers coalesce into its round.
	FsyncMaxDelay time.Duration
	// Metrics, if set, mirrors the tier counters (chunkdisk.fsyncs,
	// chunkdisk.pack.appends, chunkdisk.pack.dead_bytes) into a registry.
	Metrics *metrics.Registry
}

// Stats is a point-in-time view of the tier counters.
type Stats struct {
	Spills        int64 // blobs written to disk
	PageIns       int64 // blobs read back from disk on Get
	Evictions     int64 // resident blobs dropped by the LRU
	GCFreed       int64 // dead disk files unlinked by Sweep
	ResidentBlobs int64 // blobs currently in the LRU
	ResidentBytes int64 // bytes currently in the LRU
	DiskBlobs     int64 // blobs currently on disk (incl. dead, pre-sweep)
	DiskBytes     int64 // physical bytes currently on disk (post-compression)
	// DiskLogicalBytes is the uncompressed size of the on-disk blobs whose
	// logical size is known: everything written by this process, plus adopted
	// raw blobs. An adopted ".z" blob is counted at its physical size until
	// its first page-in learns (and corrects to) the real logical length.
	DiskLogicalBytes int64
	DeadBlobs        int64 // disk blobs awaiting sweep

	// Packfile / durability counters.
	Fsyncs          int64 // physical fdatasync calls issued by this store
	PackAppends     int64 // records appended to packfiles
	PackFiles       int64 // packfiles currently on disk
	PackDeadBytes   int64 // dead payload bytes awaiting compaction
	PackCompactions int64 // packfiles evacuated and unlinked
	PackTornBytes   int64 // invalid pack suffix quarantined at open
	FilesCreated    int64 // files this store created (loose blobs + packs)
}

// entry is one resident blob.
type entry struct {
	hash  extent.Hash
	chunk *extent.Chunk // retained while resident
	size  int64
	elem  *list.Element
	// writing marks the entry's disk write-through as in flight: it cannot be
	// evicted (a reader paging it "back in" before the file exists would race
	// the first write) and nothing can take a reference on it yet.
	writing bool
}

// diskMeta describes one on-disk blob: a loose file (pack == 0) or a record
// inside packfile pack at byte offset off.
type diskMeta struct {
	size       int64 // physical payload length
	logical    int64 // uncompressed length (== size for raw blobs)
	compressed bool  // flate-encoded (".z" suffix for loose blobs)
	pack       int64 // packfile sequence, 0 = loose file
	off        int64 // payload offset within the pack
}

// shard is one stripe of the store: everything the store knows about the
// hashes it owns, under one mutex.
type shard struct {
	mu sync.Mutex
	// settled is broadcast whenever a write-through or a sweep's unlink
	// finishes: what refLocked waits on.
	settled  sync.Cond
	refs     map[extent.Hash]int64 // version slots referencing each held blob; > 0 means the bytes are on the device
	resident map[extent.Hash]*entry
	lru      *list.List // of *entry; front = hottest
	resBytes int64
	onDisk   map[extent.Hash]diskMeta
	dead     map[extent.Hash]struct{} // on disk, unreferenced, awaiting sweep
	sweeping map[extent.Hash]struct{} // claimed by an in-flight sweep
}

// Store is a tiered blob store. Safe for concurrent use.
type Store struct {
	dir           string // "" = memory-only
	budget        int64  // per shard
	compress      bool
	packThreshold int64 // pack blobs at or below this; < 0 = packs disabled
	shards        [shardCount]shard

	packs *packSet        // nil when packing is disabled or memory-only
	sync  *fsyncer.Syncer // durability policy (never nil)
	lock  *dirlock.Lock   // archive.lock we own (nil when not held)

	// Optional metrics mirrors (nil without a registry).
	mFsyncs      *metrics.Counter
	mPackAppends *metrics.Counter
	mPackDead    *metrics.Counter

	spills          atomic.Int64
	pageIns         atomic.Int64
	evictions       atomic.Int64
	gcFreed         atomic.Int64
	resBlobs        atomic.Int64
	resBytes        atomic.Int64
	diskBlobs       atomic.Int64
	diskBytes       atomic.Int64
	diskLogical     atomic.Int64
	deadBlobs       atomic.Int64
	fsyncs          atomic.Int64
	packAppends     atomic.Int64
	packFiles       atomic.Int64
	packDeadBytes   atomic.Int64
	packCompactions atomic.Int64
	packTornBytes   atomic.Int64
	filesCreated    atomic.Int64

	closeOnce sync.Once
	closeErr  error

	// afterPackAppend, when a test sets it, runs in Put between the pack
	// append and the publication of the record in the index; an error it
	// returns fails the write.
	afterPackAppend func() error
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

// Open returns a store over cfg.Dir, creating the directory if needed. Blob
// files already present (a previous process's store) are adopted as dead:
// nothing references them yet, so the first sweep reclaims whatever the new
// archive does not re-intern first. Open takes single ownership of the
// directory via an archive.lock file (O_EXCL + pid): a second live store
// over the same directory fails fast instead of corrupting the first, and a
// lock left by a dead process is stolen.
func Open(cfg Config) (*Store, error) {
	budget := cfg.MemoryBudget
	if budget <= 0 {
		budget = DefaultMemoryBudget
	}
	s := &Store{dir: cfg.Dir, budget: budget / shardCount, compress: cfg.Compress}
	s.packThreshold = cfg.PackThreshold
	if s.packThreshold == 0 {
		s.packThreshold = DefaultPackThreshold
	}
	if cfg.Metrics != nil {
		s.mFsyncs = cfg.Metrics.Counter("chunkdisk.fsyncs")
		s.mPackAppends = cfg.Metrics.Counter("chunkdisk.pack.appends")
		s.mPackDead = cfg.Metrics.Counter("chunkdisk.pack.dead_bytes")
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.settled.L = &sh.mu
		sh.refs = make(map[extent.Hash]int64)
		sh.resident = make(map[extent.Hash]*entry)
		sh.lru = list.New()
		sh.onDisk = make(map[extent.Hash]diskMeta)
		sh.dead = make(map[extent.Hash]struct{})
		sh.sweeping = make(map[extent.Hash]struct{})
	}
	if cfg.Dir == "" {
		s.sync = fsyncer.New(fsyncer.PolicyNone, 0, func() error { return nil }, nil)
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("chunkdisk: %w", err)
	}
	if err := s.acquireLock(); err != nil {
		return nil, err
	}
	if s.packThreshold > 0 {
		s.packs = newPackSet(s, cfg.Dir, cfg.PackTargetBytes, cfg.PackGarbageRatio)
	}
	// The flush callback does its own fsync counting (a barrier with no
	// active pack syncs nothing and must not count) — no onSync hook.
	s.sync = fsyncer.New(cfg.Fsync, cfg.FsyncMaxDelay, s.flushForGroup, nil)
	if err := s.adoptExisting(); err != nil {
		s.releaseLock()
		return nil, err
	}
	if s.packs != nil {
		if err := s.adoptPacks(); err != nil {
			s.releaseLock()
			return nil, err
		}
	}
	return s, nil
}

// flushForGroup is the group-commit flush callback: one fdatasync of the
// active packfile covers every pack append that completed before the round
// began. (Loose blobs sync individually at write time under group/always —
// each lives in its own file, so there is nothing to coalesce. The counting
// happens via the syncer's onSync hook.)
func (s *Store) flushForGroup() error {
	if s.packs == nil {
		return nil
	}
	return s.packs.flushActive()
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

// adoptExisting indexes blob files left by a previous store over the same
// directory, marking them dead until something re-interns them.
func (s *Store) adoptExisting() error {
	subdirs, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("chunkdisk: %w", err)
	}
	for _, sub := range subdirs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sub.Name()))
		if err != nil {
			return fmt.Errorf("chunkdisk: %w", err)
		}
		for _, fi := range files {
			if strings.HasSuffix(fi.Name(), seglog.TmpSuffix) {
				// A crash mid-writeBlob strands its temp file; nothing will
				// ever reference it, so reclaim it now.
				os.Remove(filepath.Join(s.dir, sub.Name(), fi.Name()))
				continue
			}
			name, compressed := strings.CutSuffix(fi.Name(), ".z")
			raw, err := hex.DecodeString(sub.Name() + name)
			if err != nil || len(raw) != len(extent.Hash{}) {
				continue // not a blob file; leave it alone
			}
			info, err := fi.Info()
			if err != nil {
				continue
			}
			var h extent.Hash
			copy(h[:], raw)
			sh := s.shardFor(h)
			sh.mu.Lock()
			// Logical size of an adopted compressed blob is unknown until it
			// is read; account its physical size (see Stats.DiskLogicalBytes).
			sh.onDisk[h] = diskMeta{size: info.Size(), logical: info.Size(), compressed: compressed}
			sh.dead[h] = struct{}{}
			sh.mu.Unlock()
			s.diskBlobs.Add(1)
			s.diskBytes.Add(info.Size())
			s.diskLogical.Add(info.Size())
			s.deadBlobs.Add(1)
		}
	}
	return nil
}

// shardFor picks the shard owning a hash.
func (s *Store) shardFor(h extent.Hash) *shard {
	return &s.shards[h[0]&(shardCount-1)]
}

// path returns the blob file for a hash: dir/ab/cdef… (two-level fan-out),
// with a ".z" suffix for flate-compressed blobs.
func (s *Store) path(h extent.Hash, compressed bool) string {
	hx := hex.EncodeToString(h[:])
	name := hx[2:]
	if compressed {
		name += ".z"
	}
	return filepath.Join(s.dir, hx[:2], name)
}

// refLocked takes one reference on h if the store holds its bytes, reviving
// a dead blob in place. A write-through or a sweep's unlink in flight for h
// is waited out first — referenced bytes have neither — so a false return
// leaves the shard locked with h absent and nothing about to change that.
// Caller holds the shard lock.
func (s *Store) refLocked(sh *shard, h extent.Hash) bool {
	for {
		if n := sh.refs[h]; n > 0 {
			sh.refs[h] = n + 1
			return true
		}
		_, swept := sh.sweeping[h]
		if e := sh.resident[h]; !swept && (e == nil || !e.writing) {
			break
		}
		sh.settled.Wait()
	}
	if _, ok := sh.onDisk[h]; !ok {
		return false
	}
	if _, wasDead := sh.dead[h]; wasDead {
		delete(sh.dead, h)
		s.deadBlobs.Add(-1)
	}
	sh.refs[h] = 1
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
// content hash, storing the bytes only if the store does not hold them: the
// chunk is admitted to the resident LRU and, in disk mode, written through to
// disk before Put returns. wrote reports whether a device transfer happened —
// false when the bytes were already held. A failed write takes no reference.
func (s *Store) Put(h extent.Hash, c *extent.Chunk) (wrote bool, err error) {
	size := int64(len(c.Data()))
	sh := s.shardFor(h)
	sh.mu.Lock()
	if s.refLocked(sh, h) {
		sh.mu.Unlock()
		return false, nil
	}
	e := s.admitLocked(sh, h, c, size)
	if s.dir == "" {
		sh.refs[h] = 1
		sh.mu.Unlock()
		return true, nil
	}
	e.writing = true // pin until the file exists
	sh.mu.Unlock()

	// Compress outside the shard lock; keep the compressed form only when it
	// actually shrinks the blob.
	data := c.Data()
	compressed := false
	if s.compress {
		if z := deflate(data); len(z) < len(data) {
			data = z
			compressed = true
		}
	}
	// Small blobs append to the shared packfile (sequential writes, no file
	// cycle); large blobs keep the loose one-file-per-hash layout.
	var werr error
	var pack *packMeta // where the blob went, pinned until it is in the index
	meta := diskMeta{size: int64(len(data)), logical: size, compressed: compressed}
	if s.packs != nil && size <= s.packThreshold {
		if pack, meta.off, werr = s.packs.append(h, data, size, compressed); werr == nil {
			meta.pack = pack.seq
			if s.afterPackAppend != nil {
				werr = s.afterPackAppend()
			}
		}
	} else {
		werr = s.writeBlob(s.path(h, compressed), data)
	}

	sh.mu.Lock()
	e.writing = false
	if werr == nil {
		sh.onDisk[h] = meta
		sh.refs[h] = 1
		s.diskBlobs.Add(1)
		s.diskBytes.Add(int64(len(data)))
		s.diskLogical.Add(size)
		s.spills.Add(1)
	} else {
		// The write-through failed: an unbacked resident blob would read
		// fine until its eviction, then vanish — free it now so the failure
		// stays visible (a Put waiting on this one stores the bytes itself,
		// and the archiver's pending-archive row retries the version).
		s.freeResidentLocked(sh, e)
	}
	s.evictLocked(sh)
	sh.settled.Broadcast()
	sh.mu.Unlock()
	if pack != nil {
		s.packs.published(pack)
	}
	if werr != nil {
		return false, werr
	}
	return true, nil
}

// deflate returns data flate-compressed at the default level.
func deflate(data []byte) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return data
	}
	if _, err := w.Write(data); err != nil || w.Close() != nil {
		return data
	}
	return buf.Bytes()
}

// inflate reverses deflate.
func inflate(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	out, err := io.ReadAll(r)
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	return out, err
}

// writeBlob persists data atomically (seglog.ReplaceFile). Under policies
// that sync, the data is fdatasynced before the rename — a loose blob lives
// in its own file, so group commit has nothing to coalesce and both group
// and always flush inline here.
func (s *Store) writeBlob(dst string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("chunkdisk: %w", err)
	}
	syncing := s.sync.Policy() != fsyncer.PolicyNone
	fsyncs, err := seglog.ReplaceFile(dst, data, syncing)
	if err == nil && syncing {
		// A possibly fresh fan-out subdir must survive a power loss too: sync
		// the root for the subdir's own entry.
		if err = seglog.SyncDir(s.dir); err == nil {
			fsyncs++
		}
	}
	s.fsyncs.Add(int64(fsyncs))
	s.ctrAdd(s.mFsyncs, int64(fsyncs))
	if err != nil {
		return fmt.Errorf("chunkdisk: %w", err)
	}
	s.filesCreated.Add(1)
	return nil
}

// Get returns a retained chunk holding the blob's bytes, paging it in from
// disk if it was evicted. The caller must release the returned chunk, and
// holds a reference on the blob across the call (the archive Refs a version's
// blobs for the length of a materialization), so the file cannot be swept
// mid-read.
func (s *Store) Get(h extent.Hash) (*extent.Chunk, error) {
	sh := s.shardFor(h)
	sh.mu.Lock()
	if e, ok := sh.resident[h]; ok {
		sh.lru.MoveToFront(e.elem)
		c := e.chunk.RetainChunk()
		sh.mu.Unlock()
		return c, nil
	}
	if s.dir == "" {
		sh.mu.Unlock()
		return nil, fmt.Errorf("chunkdisk: blob %x not stored", h[:8])
	}
	meta, ok := sh.onDisk[h]
	if !ok {
		sh.mu.Unlock()
		return nil, fmt.Errorf("chunkdisk: blob %x not stored", h[:8])
	}
	sh.mu.Unlock()

	var data []byte
	var err error
	if meta.pack != 0 {
		data, meta, err = s.readPackBlob(h, meta)
	} else {
		data, err = os.ReadFile(s.path(h, meta.compressed))
		if err != nil {
			err = fmt.Errorf("chunkdisk: %w", err)
		}
	}
	if err != nil {
		return nil, err
	}
	if meta.compressed {
		if data, err = inflate(data); err != nil {
			return nil, fmt.Errorf("chunkdisk: blob %x undecodable on disk: %w", h[:8], err)
		}
	}
	// The hash always covers the uncompressed bytes.
	if sum := sha256.Sum256(data); extent.Hash(sum) != h {
		return nil, fmt.Errorf("chunkdisk: blob %x corrupted on disk", h[:8])
	}
	c := extent.WrapChunk(data, h)
	s.pageIns.Add(1)

	sh.mu.Lock()
	if meta.pack == 0 && meta.compressed && meta.logical != int64(len(data)) {
		// An adopted loose ".z" blob was accounted at its physical size; the
		// first page-in learns the real logical length — correct the books.
		// (Pack records carry their logical length in the frame.)
		if m, ok := sh.onDisk[h]; ok && m.compressed {
			s.diskLogical.Add(int64(len(data)) - m.logical)
			m.logical = int64(len(data))
			sh.onDisk[h] = m
		}
	}
	if e, ok := sh.resident[h]; ok {
		// A concurrent Get admitted it first; use the resident copy.
		sh.lru.MoveToFront(e.elem)
		r := e.chunk.RetainChunk()
		sh.mu.Unlock()
		c.ReleaseChunk()
		return r, nil
	}
	s.admitLocked(sh, h, c, int64(len(data)))
	s.evictLocked(sh)
	sh.mu.Unlock()
	return c, nil
}

// readPackBlob reads one pack-resident blob. The shared relocMu is held
// across the read so compaction cannot unlink the pack under it, and the
// index entry is re-read after locking: a blob the compactor relocated in
// the window since the caller looked it up is found at its new address.
func (s *Store) readPackBlob(h extent.Hash, meta diskMeta) ([]byte, diskMeta, error) {
	ps := s.packs
	ps.relocMu.RLock()
	defer ps.relocMu.RUnlock()
	sh := s.shardFor(h)
	sh.mu.Lock()
	cur, ok := sh.onDisk[h]
	sh.mu.Unlock()
	if !ok {
		// Swept in the window. Callers hold a reference across Get, so this
		// indicates a contract violation — surface it as missing.
		return nil, meta, fmt.Errorf("chunkdisk: blob %x not stored", h[:8])
	}
	meta = cur
	data, err := ps.read(meta.pack, meta.off, meta.size)
	return data, meta, err
}

// evictLocked drops cold residents until the shard fits its budget. Memory
// mode never evicts (there is no disk copy to page back from).
func (s *Store) evictLocked(sh *shard) {
	if s.dir == "" {
		return
	}
	for sh.resBytes > s.budget {
		el := sh.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		if e.writing {
			// The coldest entry is mid-write-through; it cannot be dropped
			// yet and everything hotter is even less evictable.
			return
		}
		s.freeResidentLocked(sh, e)
		s.evictions.Add(1)
	}
}

// admitLocked makes c the resident copy of h, hottest in the LRU. Caller
// holds the shard lock.
func (s *Store) admitLocked(sh *shard, h extent.Hash, c *extent.Chunk, size int64) *entry {
	e := &entry{hash: h, chunk: c.RetainChunk(), size: size}
	e.elem = sh.lru.PushFront(e)
	sh.resident[h] = e
	sh.resBytes += size
	s.resBlobs.Add(1)
	s.resBytes.Add(size)
	return e
}

// freeResidentLocked drops e's memory copy. Caller holds the shard lock.
func (s *Store) freeResidentLocked(sh *shard, e *entry) {
	sh.lru.Remove(e.elem)
	delete(sh.resident, e.hash)
	sh.resBytes -= e.size
	e.chunk.ReleaseChunk()
	s.resBlobs.Add(-1)
	s.resBytes.Add(-e.size)
}

// Release gives one reference back. At zero the resident copy is freed
// (memory returns to baseline without waiting for GC) and the disk copy, if
// any, is marked dead for the next sweep — in this critical section, so no
// Put or Ref can come between the count and the mark.
func (s *Store) Release(h extent.Hash) {
	sh := s.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch n := sh.refs[h]; {
	case n > 1:
		sh.refs[h] = n - 1
	case n == 1:
		delete(sh.refs, h)
		if e, ok := sh.resident[h]; ok {
			s.freeResidentLocked(sh, e)
		}
		if _, ok := sh.onDisk[h]; ok {
			sh.dead[h] = struct{}{}
			s.deadBlobs.Add(1)
		}
	}
}

// Sweep reclaims every dead blob and returns how many it freed. Loose blobs
// unlink their file; pack-resident blobs retire in place (the index entry
// goes away, the bytes become dead space) and packs whose garbage ratio
// crossed the threshold are compacted. The archive's background GC calls
// this on a timer.
func (s *Store) Sweep() int {
	if s.dir == "" {
		return 0
	}
	freed := 0
	type claimed struct {
		h          extent.Hash
		compressed bool
	}
	packDead := make(map[int64]int64)
	packBlobs := make(map[int64]int64)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		claim := make([]claimed, 0, len(sh.dead))
		for h := range sh.dead {
			if e, ok := sh.resident[h]; ok {
				// Paged in by a Get that held no reference (the source side
				// of a transfer racing a drop): it goes with the disk copy.
				s.freeResidentLocked(sh, e)
			}
			meta := sh.onDisk[h]
			if meta.pack != 0 {
				// Retire the record in place: no per-blob file I/O. A reader
				// cannot be mid-read — dead means unreferenced, and readers
				// pin references.
				delete(sh.onDisk, h)
				delete(sh.dead, h)
				s.deadBlobs.Add(-1)
				s.diskBlobs.Add(-1)
				s.diskBytes.Add(-meta.size)
				s.diskLogical.Add(-meta.logical)
				packDead[meta.pack] += meta.size
				packBlobs[meta.pack]++
				freed++
				s.gcFreed.Add(1)
				continue
			}
			claim = append(claim, claimed{h: h, compressed: meta.compressed})
			sh.sweeping[h] = struct{}{}
			delete(sh.dead, h)
			s.deadBlobs.Add(-1)
		}
		sh.mu.Unlock()
		for _, cl := range claim {
			err := os.Remove(s.path(cl.h, cl.compressed))
			sh.mu.Lock()
			if meta, ok := sh.onDisk[cl.h]; ok {
				delete(sh.onDisk, cl.h)
				s.diskBlobs.Add(-1)
				s.diskBytes.Add(-meta.size)
				s.diskLogical.Add(-meta.logical)
			}
			delete(sh.sweeping, cl.h)
			sh.settled.Broadcast()
			sh.mu.Unlock()
			if err == nil || os.IsNotExist(err) {
				freed++
				s.gcFreed.Add(1)
			}
		}
	}
	if s.packs != nil {
		if len(packDead) > 0 {
			s.packs.retire(packDead, packBlobs)
		}
		s.packs.maybeCompact()
	}
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

// Close seals the active packfile (fsyncing it under policies that sync) and
// releases the directory lock. The store must not be used afterwards; a
// memory-only store's Close is a no-op. Idempotent.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		if s.packs != nil {
			s.closeErr = s.packs.close(true)
		}
		s.releaseLock()
	})
	return s.closeErr
}

// Crash simulates process death for tests: pack handles close without any
// flush and the directory lock is released (a real crash releases it too —
// the pid check lets the next open steal it), but no seal-time fsync and no
// final sweep happen. The on-disk state is exactly what the OS had.
func (s *Store) Crash() {
	s.closeOnce.Do(func() {
		if s.packs != nil {
			_ = s.packs.close(false)
		}
		s.releaseLock()
	})
}

// Stats returns the current tier counters.
func (s *Store) Stats() Stats {
	return Stats{
		Spills:           s.spills.Load(),
		PageIns:          s.pageIns.Load(),
		Evictions:        s.evictions.Load(),
		GCFreed:          s.gcFreed.Load(),
		ResidentBlobs:    s.resBlobs.Load(),
		ResidentBytes:    s.resBytes.Load(),
		DiskBlobs:        s.diskBlobs.Load(),
		DiskBytes:        s.diskBytes.Load(),
		DiskLogicalBytes: s.diskLogical.Load(),
		DeadBlobs:        s.deadBlobs.Load(),
		Fsyncs:           s.fsyncs.Load(),
		PackAppends:      s.packAppends.Load(),
		PackFiles:        s.packFiles.Load(),
		PackDeadBytes:    s.packDeadBytes.Load(),
		PackCompactions:  s.packCompactions.Load(),
		PackTornBytes:    s.packTornBytes.Load(),
		FilesCreated:     s.filesCreated.Load(),
	}
}

// Dir reports the on-disk root ("" in memory-only mode).
func (s *Store) Dir() string { return s.dir }
