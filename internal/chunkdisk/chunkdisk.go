// Package chunkdisk is the durable tier under the archive server: a
// hash-addressed blob store on a real directory with a bounded in-memory LRU
// of hot chunks in front of it.
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
// A disk store writes every blob through at Put time (the durability point),
// from where the caller's bytes lie, and keeps nothing of them: the live file
// goes on writing the chunk it stored. The LRU is a read cache — Get pages a
// blob in from disk, verifying its content hash on the way (a corrupted or
// truncated pack record surfaces as an error, never as silent bad data), and
// keeps it resident for the next Get. ReadInto reads into a caller's buffer
// without admitting anything — how the archive assembles a patched chunk from
// its base and patches. Every chunk the LRU admits is pinned (extent.Chunk.Pin)
// so no buffer a materialization handed it to writes it in place.
//
// Deletion is deferred: the Release that drops the last reference frees the
// memory copy immediately but only marks the disk copy dead. A sweep (archive
// GC) retires dead records in place — so TruncateAfter/Drop never pay disk
// I/O inline, and a hash that is re-archived before the sweep is revived
// without a device transfer.
//
// With Dir == "" the store runs memory-only: Put keeps (and pins) the chunk
// it is given, its only copy; no spill, no eviction, and the last Release
// frees immediately — the semantics the archive had before the disk tier.
//
// Every blob is appended to a packfile (see pack.go): one sequential append
// stream, no file per blob. A directory an older store left loose blobs in
// (ab/cdef…, one file per hash) is converted when it is opened. Config.Fsync
// selects the durability policy (none | group | always, see
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
	// stays raw; the decision is per blob, recorded in its pack record's
	// flags). Content hashes are always verified on the UNCOMPRESSED bytes,
	// so a corrupted compressed record still surfaces as an error on page-in.
	// A store opened without Compress still reads compressed records left by
	// an earlier compressed store, and vice versa.
	Compress bool
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
	// Metrics, if set, mirrors the tier counters (chunkdisk.fsyncs,
	// chunkdisk.pack.appends, chunkdisk.pack.dead_bytes) into a registry.
	Metrics *metrics.Registry
}

// Stats is a point-in-time view of the tier counters.
type Stats struct {
	Spills        int64 // blobs written to disk
	PageIns       int64 // blobs read back from disk on Get
	Evictions     int64 // resident blobs dropped by the LRU
	GCFreed       int64 // dead disk blobs reclaimed by Sweep
	ResidentBlobs int64 // blobs currently in the LRU
	ResidentBytes int64 // bytes currently in the LRU
	DiskBlobs     int64 // blobs currently on disk (incl. dead, pre-sweep)
	DiskBytes     int64 // physical bytes currently on disk (post-compression)
	// DiskLogicalBytes is the uncompressed size of the on-disk blobs (every
	// pack record carries it in its frame).
	DiskLogicalBytes int64
	DeadBlobs        int64 // disk blobs awaiting sweep

	// Packfile / durability counters.
	Fsyncs          int64 // physical fdatasync calls issued by this store
	PackAppends     int64 // records appended to packfiles
	PackFiles       int64 // packfiles currently on disk
	PackDeadBytes   int64 // dead payload bytes awaiting compaction
	PackCompactions int64 // packfiles evacuated and unlinked
	PackTornBytes   int64 // invalid pack suffix quarantined at open
	FilesCreated    int64 // packfiles this store created
}

// entry is one resident blob.
type entry struct {
	hash  extent.Hash
	chunk *extent.Chunk // retained while resident
	size  int64
	elem  *list.Element
}

// diskMeta describes one on-disk blob: a record inside packfile pack whose
// payload starts at byte offset off.
type diskMeta struct {
	size       int64 // physical payload length
	logical    int64 // uncompressed length (== size for raw blobs)
	compressed bool  // flate-encoded
	pack       int64 // packfile sequence
	off        int64 // payload offset within the pack
}

// blobState is what a shard knows of one hash: how many version slots
// reference it — more than none means the store holds the bytes — and, in
// disk mode, where its device copy lies. A disk store indexes a hash from its
// write-through or adoption until a sweep reclaims it; a memory-only store,
// while it is referenced.
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
	settled  sync.Cond
	blobs    map[extent.Hash]blobState
	resident map[extent.Hash]*entry
	lru      *list.List // of *entry; front = hottest
	resBytes int64
	dead     map[extent.Hash]struct{} // on disk, unreferenced, awaiting sweep
	// putting holds the hashes of write-throughs in flight: a reference or a
	// read of one waits for the outcome.
	putting map[extent.Hash]struct{}
}

// Store is a tiered blob store. Safe for concurrent use.
type Store struct {
	dir      string // "" = memory-only
	budget   int64  // per shard
	compress bool
	shards   [shardCount]shard

	packs *packSet        // nil in memory-only mode
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

// Open returns a store over cfg.Dir, creating the directory if needed. Blobs
// already present (a previous process's store) are adopted as dead: nothing
// references them yet, so the first sweep reclaims whatever the new archive
// does not re-intern first. Open takes single ownership of the directory via
// an archive.lock file (O_EXCL + pid): a second live store over the same
// directory fails fast instead of corrupting the first, and a lock left by a
// dead process is stolen.
func Open(cfg Config) (*Store, error) {
	budget := cfg.MemoryBudget
	if budget <= 0 {
		budget = DefaultMemoryBudget
	}
	s := &Store{dir: cfg.Dir, budget: budget / shardCount, compress: cfg.Compress}
	if cfg.Metrics != nil {
		s.mFsyncs = cfg.Metrics.Counter("chunkdisk.fsyncs")
		s.mPackAppends = cfg.Metrics.Counter("chunkdisk.pack.appends")
		s.mPackDead = cfg.Metrics.Counter("chunkdisk.pack.dead_bytes")
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.settled.L = &sh.mu
		sh.blobs = make(map[extent.Hash]blobState)
		sh.resident = make(map[extent.Hash]*entry)
		sh.lru = list.New()
		sh.dead = make(map[extent.Hash]struct{})
		sh.putting = make(map[extent.Hash]struct{})
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
	s.packs = newPackSet(s, cfg.Dir, cfg.PackTargetBytes, cfg.PackGarbageRatio)
	// The group-commit flush: one fdatasync of the active pack covers every
	// append that completed before the round began. It does its own fsync
	// counting (a barrier with no active pack syncs nothing and must not
	// count) — no onSync hook.
	s.sync = fsyncer.New(cfg.Fsync, 0, s.packs.flushActive, nil)
	if err := s.adoptPacks(); err != nil {
		s.releaseLock()
		return nil, err
	}
	if err := s.migrateLoose(); err != nil {
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

// migrateLoose moves the blobs an older store left loose — dir/ab/cdef…, one
// file per hash, ".z" when flate-compressed — into the packs, indexed dead
// like every adopted blob. A file whose content does not match its name stays
// where it is, unindexed: replay drops the versions that list it, as for any
// missing blob. The packs written to are synced before the first loose file
// goes, whatever the policy, since until then the file is the only copy; a
// crash midway only repeats work. Runs during Open, after adoptPacks.
func (s *Store) migrateLoose() error {
	subdirs, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("chunkdisk: %w", err)
	}
	first := s.packs.nextSeq // the packs this open appends to
	var gone []string        // loose files a pack holds, stranded temp files
	for _, sub := range subdirs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sub.Name()))
		if err != nil {
			return fmt.Errorf("chunkdisk: %w", err)
		}
		for _, fi := range files {
			path := filepath.Join(s.dir, sub.Name(), fi.Name())
			name, compressed := strings.CutSuffix(fi.Name(), ".z")
			raw, err := hex.DecodeString(sub.Name() + name)
			switch {
			case strings.HasSuffix(fi.Name(), seglog.TmpSuffix): // a crash mid-write stranded it
			case err != nil || len(raw) != len(extent.Hash{}):
				continue // not a blob file; leave it alone
			default:
				if packed, err := s.packLoose(extent.Hash(raw), path, compressed); err != nil {
					return err
				} else if !packed {
					continue
				}
			}
			gone = append(gone, path)
		}
	}
	// The loose files go once their bytes, and the names of the packs that
	// now hold them, are durable.
	for seq := first; seq < s.packs.nextSeq; seq++ {
		f, err := os.Open(s.packs.files.Path(uint64(seq)))
		if err == nil {
			err = f.Sync()
			f.Close()
		}
		if err != nil {
			return fmt.Errorf("chunkdisk: %w", err)
		}
	}
	if first < s.packs.nextSeq {
		if err := seglog.SyncDir(s.dir); err != nil {
			return fmt.Errorf("chunkdisk: %w", err)
		}
	}
	for _, path := range gone {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("chunkdisk: %w", err)
		}
		os.Remove(filepath.Dir(path)) // succeeds once the fan-out dir is empty
	}
	return nil
}

// packLoose appends the loose blob file at path to the active pack as it lies
// and indexes it dead — unless a pack already holds h. It reports false,
// writing nothing, when the bytes do not hash to h.
func (s *Store) packLoose(h extent.Hash, path string, compressed bool) (bool, error) {
	if _, held := s.shardFor(h).blobs[h]; held {
		return true, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("chunkdisk: %w", err)
	}
	logical := data
	if compressed {
		if logical, err = inflate(data); err != nil {
			return false, nil
		}
	}
	if sha256.Sum256(logical) != h {
		return false, nil
	}
	pm, off, err := s.packs.append(h, data, int64(len(logical)), compressed)
	if err != nil {
		return false, err
	}
	s.indexDeadLocked(s.shardFor(h), h, diskMeta{size: int64(len(data)), logical: int64(len(logical)), compressed: compressed, pack: pm.seq, off: off})
	s.packs.published(pm)
	return true, nil
}

// indexDeadLocked indexes an adopted blob as dead: on disk, referenced by
// nothing until a Ref or a re-Put revives it. Caller holds the shard lock (or
// is Open, before any concurrency).
func (s *Store) indexDeadLocked(sh *shard, h extent.Hash, meta diskMeta) {
	sh.blobs[h] = blobState{diskMeta: meta}
	sh.dead[h] = struct{}{}
	s.diskBlobs.Add(1)
	s.diskBytes.Add(meta.size)
	s.diskLogical.Add(meta.logical)
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
	if _, wasDead := sh.dead[h]; wasDead {
		delete(sh.dead, h)
		s.deadBlobs.Add(-1)
	}
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
// content hash, storing the bytes only if the store does not hold them: a
// disk store writes them through before Put returns, as PutBytes does, and
// keeps nothing; a memory-only store keeps the chunk itself, pinned. wrote
// reports whether a device transfer happened — false when the bytes were
// already held. A failed write takes no reference.
func (s *Store) Put(h extent.Hash, c *extent.Chunk) (wrote bool, err error) {
	if s.dir != "" {
		return s.PutBytes(h, c.Data())
	}
	sh := s.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.refLocked(sh, h) {
		return false, nil
	}
	s.admitLocked(sh, h, c, int64(len(c.Data())))
	sh.blobs[h] = blobState{refs: 1}
	return true, nil
}

// PutBytes is Put for bytes that are not a chunk of their own — a patch cut
// out of a live chunk, a version's tail — which the caller may write to again
// once it returns: a memory-only store keeps a copy, its only way to serve the
// blob; a disk store writes them through from where they lie, and the blob is
// read back from the device when it is wanted.
func (s *Store) PutBytes(h extent.Hash, data []byte) (wrote bool, err error) {
	if s.dir == "" {
		c := extent.WrapChunk(append([]byte(nil), data...), h)
		defer c.ReleaseChunk()
		return s.Put(h, c)
	}
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

// writeThrough appends a blob to the shared packfile, compressed outside any
// lock when that shrinks it. The pack comes back pinned until the caller has
// published the blob in the index; a failed write leaves no pin, and any
// record it did append is dead space.
func (s *Store) writeThrough(h extent.Hash, data []byte) (meta diskMeta, pack *packMeta, err error) {
	size := int64(len(data))
	compressed := false
	if s.compress {
		if z := deflate(data); len(z) < len(data) {
			data = z
			compressed = true
		}
	}
	meta = diskMeta{size: int64(len(data)), logical: size, compressed: compressed}
	if pack, meta.off, err = s.packs.append(h, data, size, compressed); err != nil {
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
	s.diskLogical.Add(meta.logical)
	s.spills.Add(1)
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

// Get returns a retained chunk holding the blob's bytes, paging it in from
// disk if it was evicted. The caller must release the returned chunk, and
// holds a reference on the blob across the call (the archive Refs a version's
// blobs for the length of a materialization), so the file cannot be swept
// mid-read.
func (s *Store) Get(h extent.Hash) (*extent.Chunk, error) {
	sh := s.shardFor(h)
	sh.mu.Lock()
	if e := s.residentLocked(sh, h); e != nil {
		sh.lru.MoveToFront(e.elem)
		c := e.chunk.RetainChunk()
		sh.mu.Unlock()
		return c, nil
	}
	if s.dir == "" {
		sh.mu.Unlock()
		return nil, fmt.Errorf("chunkdisk: blob %x not stored", h[:8])
	}
	_, ok := sh.blobs[h]
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("chunkdisk: blob %x not stored", h[:8])
	}

	data, meta, err := s.readPackBlob(h, nil)
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
	if e := s.residentLocked(sh, h); e != nil {
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

// ReadInto copies the bytes of blob h into dst and reports how many there
// are: from memory when h is resident, else from the device — verified
// against h on the way, like a page-in — and either way without admitting h
// to the LRU, so a materialization can assemble a chunk out of a base and its
// patches in one buffer of its own. A blob longer than dst is an error. The
// caller holds a reference across the call, as for Get.
func (s *Store) ReadInto(h extent.Hash, dst []byte) (int, error) {
	sh := s.shardFor(h)
	sh.mu.Lock()
	resident := s.residentLocked(sh, h) != nil
	b, ok := sh.blobs[h]
	sh.mu.Unlock()
	if resident || !ok || s.dir == "" || b.compressed {
		// A resident copy, one that inflates into a buffer of its own
		// anyway, or none at all: as Get has it.
		c, err := s.Get(h)
		if err != nil {
			return 0, err
		}
		defer c.ReleaseChunk()
		if len(c.Data()) > len(dst) {
			return 0, errLonger(h, len(c.Data()), len(dst))
		}
		return copy(dst, c.Data()), nil
	}
	if b.size > int64(len(dst)) {
		return 0, errLonger(h, int(b.size), len(dst))
	}
	dst = dst[:b.size]
	if _, _, err := s.readPackBlob(h, dst); err != nil {
		return 0, err
	}
	if sum := sha256.Sum256(dst); extent.Hash(sum) != h {
		return 0, fmt.Errorf("chunkdisk: blob %x corrupted on disk", h[:8])
	}
	s.pageIns.Add(1)
	return len(dst), nil
}

func errLonger(h extent.Hash, n, room int) error {
	return fmt.Errorf("chunkdisk: blob %x is %d bytes, longer than the %d it is read into", h[:8], n, room)
}

// residentLocked returns h's resident entry, nil when it has none. A
// write-through in flight has no copy to serve: it is waited out, after which
// the blob is on the device, or not stored. Caller holds the shard lock.
func (s *Store) residentLocked(sh *shard, h extent.Hash) *entry {
	for {
		if _, putting := sh.putting[h]; !putting {
			return sh.resident[h]
		}
		sh.settled.Wait()
	}
}

// readPackBlob reads blob h's pack record into buf, which is as long as the
// record, or into a buffer of its own when buf is nil, and reports where it
// was. The shared
// relocMu is held across the read so compaction cannot unlink the pack under
// it, and the index entry is looked up after locking: a blob the compactor
// relocated since the caller looked it up is found at its new address.
func (s *Store) readPackBlob(h extent.Hash, buf []byte) ([]byte, diskMeta, error) {
	ps := s.packs
	ps.relocMu.RLock()
	defer ps.relocMu.RUnlock()
	sh := s.shardFor(h)
	sh.mu.Lock()
	cur, ok := sh.blobs[h]
	sh.mu.Unlock()
	if !ok {
		// Swept in the window. Callers hold a reference across Get, so this
		// indicates a contract violation — surface it as missing.
		return nil, diskMeta{}, fmt.Errorf("chunkdisk: blob %x not stored", h[:8])
	}
	meta := cur.diskMeta
	if buf == nil {
		buf = make([]byte, meta.size)
	}
	return buf, meta, ps.readInto(meta.pack, meta.off, buf)
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
		s.freeResidentLocked(sh, el.Value.(*entry))
		s.evictions.Add(1)
	}
}

// admitLocked makes c the resident copy of h, hottest in the LRU, and pins
// it. Caller holds the shard lock.
func (s *Store) admitLocked(sh *shard, h extent.Hash, c *extent.Chunk, size int64) {
	c.Pin()
	e := &entry{hash: h, chunk: c.RetainChunk(), size: size}
	e.elem = sh.lru.PushFront(e)
	sh.resident[h] = e
	sh.resBytes += size
	s.resBlobs.Add(1)
	s.resBytes.Add(size)
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
	switch b := sh.blobs[h]; {
	case b.refs > 1:
		b.refs--
		sh.blobs[h] = b
	case b.refs == 1:
		if e, ok := sh.resident[h]; ok {
			s.freeResidentLocked(sh, e)
		}
		if s.dir == "" {
			delete(sh.blobs, h)
			break
		}
		b.refs = 0
		sh.blobs[h] = b
		sh.dead[h] = struct{}{}
		s.deadBlobs.Add(1)
	}
}

// Sweep reclaims every dead blob and returns how many it freed. Each retires
// in place — the index entry goes away, the record's bytes become dead space
// — with no file I/O; packs whose garbage ratio crossed the threshold are
// then compacted. The archive calls it from GCNow and once more at Close.
func (s *Store) Sweep() int {
	if s.dir == "" {
		return 0
	}
	freed := 0
	packDead := make(map[int64]int64)
	packBlobs := make(map[int64]int64)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for h := range sh.dead {
			if e, ok := sh.resident[h]; ok {
				// Paged in by a Get that held no reference (the source side
				// of a transfer racing a drop): it goes with the disk copy.
				s.freeResidentLocked(sh, e)
			}
			// A reader cannot be mid-read: dead means unreferenced, and
			// readers pin references.
			meta := sh.blobs[h].diskMeta
			delete(sh.blobs, h)
			delete(sh.dead, h)
			s.deadBlobs.Add(-1)
			s.diskBlobs.Add(-1)
			s.diskBytes.Add(-meta.size)
			s.diskLogical.Add(-meta.logical)
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

// Close seals the active packfile (fsyncing it under policies that sync),
// drops the resident copies of a disk store — the directory holds every blob
// — and releases the directory lock. The store must not be used afterwards; a
// memory-only store's Close is a no-op. Idempotent.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		if s.packs != nil {
			s.closeErr = s.packs.close(true)
		}
		s.dropResident()
		s.releaseLock()
	})
	return s.closeErr
}

// Crash simulates process death for tests: pack handles close without any
// flush, the memory copies go, and the directory lock is released (a real
// crash releases it too — the pid check lets the next open steal it), but no
// seal-time fsync and no final sweep happen. The on-disk state is exactly
// what the OS had.
func (s *Store) Crash() {
	s.closeOnce.Do(func() {
		if s.packs != nil {
			_ = s.packs.close(false)
		}
		s.dropResident()
		s.releaseLock()
	})
}

// dropResident frees every resident copy of a disk store (a memory-only
// store's residents are its only copy and stay).
func (s *Store) dropResident() {
	if s.dir == "" {
		return
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.resident {
			s.freeResidentLocked(sh, e)
		}
		sh.mu.Unlock()
	}
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
