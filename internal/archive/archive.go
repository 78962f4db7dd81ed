// Package archive implements the archive server of §4.4: a versioned store
// of linked-file contents used for update atomicity (restore the last
// committed version after an abort or crash) and for coordinated
// point-in-time restore (each version carries the host database state
// identifier that was current when it committed).
//
// Storage is tiered and delta-based:
//
//   - Each version's metadata is a delta manifest against its predecessor —
//     the list of chunk slots whose reference changed, plus the new tail.
//     A full manifest (checkpoint) is stored for version 0, whenever the
//     delta would exceed half the file, and at least every checkpointEvery
//     versions, so materializing any version walks a bounded chain.
//     Metadata cost per version is therefore O(changed chunks), not
//     O(file size / ChunkSize).
//   - A slot's reference is a base chunk's hash plus an ordered list of
//     patches, each an offset and the hash of the patch bytes, stored as a
//     blob of its own. A version archived from an extent capture that follows
//     the capture the path's newest version came from stores each slot the
//     commit wrote over less than 1/patchFraction of a chunk as its
//     predecessor's reference plus one patch, until the chain reaches
//     maxChain, and each untouched slot as its predecessor's reference —
//     neither hashes the live chunk, so the file goes on writing it in place.
//     Materializing a patched slot reads the base and the patches into a
//     buffer of the chunk's own, each verified against its hash.
//   - Chunk and tail bytes live in a chunkdisk store: interned by content
//     hash, written through to disk (when a directory is configured) from
//     the capture as they lie, with a bounded in-memory LRU that only reads
//     fill. Resident memory is capped by the LRU budget no matter how many
//     versions accumulate; chunks page in on Get/Latest/AsOf/restore.
//   - Dropping versions (TruncateAfter, Drop, unlink) releases references;
//     blobs that reach zero are freed from memory immediately and their disk
//     records are reclaimed later by GC (GCNow, and once more at Close).
//   - With a directory configured, every version's manifest is also written
//     through to a durable catalog (internal/catalog: append-only checksummed
//     log + snapshot checkpoints, in the same directory), and TruncateAfter/
//     Drop append tombstones. NewTiered over an existing directory replays
//     the catalog: the whole version history comes back into service with
//     zero re-archiving, which is what makes the archive a database-managed
//     store rather than a cache over the chunk packs.
//
// A configurable latency models the paper's tertiary archive device. The
// latency of a Put is charged per NEW chunk transferred — deduplicated
// chunks never travel — so the "block new updates until archiving completes"
// behaviour stays observable while its cost tracks the delta, not the file.
//
// Three invariants make the patches safe:
//
//  1. A patch is stored only when the store can prove it is relative to the
//     newest version it holds: the capture names the capture it follows, and
//     the history records which capture its newest version was archived from
//     (fileVersions.follows). A restore, an import, recovery's
//     archiveCurrent, link's version 0 or a failed archive leaves no such
//     record, and the slot's next version is stored whole.
//  2. Nothing the archive keeps aliases a chunk the live file may still
//     write in place — not a resident LRU entry, not a pack write, not a
//     shipped frame. Patches, whole chunks and tails go straight from the
//     capture to the device while the capture still holds the chunk
//     (chunkdisk.Put and PutBytes keep nothing in a disk store); a
//     memory-only store, whose copy is the only one, copies a patch or tail
//     and pins a whole chunk.
//  3. Writing in place is gated by extent's own test — the buffer is the
//     chunk's only owner and no store pinned it — so a snapshot, a quarantine
//     copy or a version that still shares the chunk forces a copy. Hashing
//     a chunk does not pin it: an in-place write forgets the hash.
//
// A blob's lifetime is not decided here: chunkdisk keeps the reference count
// beside the bytes, and this package only takes references (Put, Ref) for the
// slots its manifests list and gives them back (Release) when a version is
// dropped or a read is done. Locking is sharded two ways: version lists shard
// by (server, path) key, chunkdisk by content hash — concurrent archivers of
// different files never contend on a global mutex. Lock order is always entry
// shard → chunkdisk shard.
package archive

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/catalog"
	"datalinks/internal/chunkdisk"
	"datalinks/internal/extent"
	"datalinks/internal/fsyncer"
	"datalinks/internal/metrics"
	"datalinks/internal/obs"
)

// Version numbers a file's archived states, starting at 0 for the content
// at link time.
type Version int64

// checkpointEvery is the default delta-chain bound: at least every this many
// versions a full manifest is stored, so materialization applies at most this
// many deltas on top of one checkpoint (TierConfig.CheckpointEvery overrides).
const checkpointEvery = 16

// maxChain bounds a slot's chain: its base chunk plus at most maxChain-1
// patches. A written slot whose predecessor's chain is shorter gets a patch;
// one whose chain is at the bound is stored whole again, written through from
// the live chunk without pinning it — the file's next write to it still lands
// in place — and the next chain starts from that base. At 4 a 4 KiB edit
// stream stores (3 x 4 KiB + 64 KiB) / 4 = 19 KiB per version instead of 64,
// and reading a version reads at most three patches besides the base.
const maxChain = 4

// patchFraction: a slot written over less than 1/patchFraction of its chunk
// since the previous capture is stored as a patch; a larger write, as a chunk.
const patchFraction = 4

// slotRef is one chunk slot of a version: the hash of its base chunk and the
// patches laid over it, in order. patches aliases a frozen record's list.
type slotRef struct {
	base    extent.Hash
	patches []catalog.Patch
}

// chain is the number of blobs a slot reads: its base and its patches.
func (r slotRef) chain() int { return 1 + len(r.patches) }

// patchable reports whether a slot written over d since the capture its
// reference r was archived from is stored as r plus a patch of d.
func (r slotRef) patchable(d extent.Span) bool {
	return d.Len() > 0 && d.Len() < extent.ChunkSize/patchFraction && r.chain() < maxChain
}

// sameSlot reports whether two slot references name the same content.
func sameSlot(a, b slotRef) bool {
	if a.base != b.base || len(a.patches) != len(b.patches) {
		return false
	}
	for i := range a.patches {
		if a.patches[i].Off != b.patches[i].Off || a.patches[i].Hash != b.patches[i].Hash {
			return false
		}
	}
	return true
}

// Entry is one archived version of one file: the metadata plus a handle
// through which the content can be materialized. Snapshot() is valid while
// the version remains archived (it fails after a TruncateAfter/Drop that
// discards it — the chunks may be gone).
type Entry struct {
	Server  string
	Path    string
	Version Version
	StateID uint64 // host database state identifier (tail LSN) at commit
	Size    int64
	Stored  time.Time

	st  *Store
	key string
	idx int
	gen uint64
}

// Snapshot materializes the version as an extent manifest for an O(#chunks)
// restore swap, paging cold chunks in from the disk tier as needed. The
// caller owns the returned snapshot and must Release it.
func (e Entry) Snapshot() (*extent.Snapshot, error) {
	if e.st == nil {
		return nil, fmt.Errorf("%w: entry not bound to a store", ErrNotFound)
	}
	return e.st.materialize(e.key, e.idx, e.gen, e.Version)
}

// Errors.
var (
	ErrNotFound = errors.New("archive: no such version")
	// ErrStale rejects a Put whose version is not newer than what is already
	// archived. Recovery treats it as benign: the version already made it to
	// the device (e.g. an archiver that survived the crash completed it).
	ErrStale = errors.New("archive: version not newer than archived")
)

// shardCount must be a power of two.
const shardCount = 16

// genCounter distinguishes successive histories of the same path (drop +
// re-link): stale Entry handles from a dropped history never resolve against
// the new one.
var genCounter atomic.Uint64

// fileVersions is the per-(server,path) version history: one manifest record
// per version — a full slot list (checkpoint) or a delta against the version
// before it — and the very records the durable catalog's shadow holds, frozen
// once they are here. An Entry is assembled from a record on demand.
type fileVersions struct {
	recs []*catalog.PutRec
	// last caches the newest version's full slot list so Put diffs against
	// it without walking the delta chain. O(#chunks of one version) memory
	// per archived file. Replaced, never written in place.
	last []slotRef
	gen  uint64 // distinguishes re-linked histories of the same path
	// capture names the extent capture the newest version was archived from
	// (0: none, or not known to this process). A capture that follows it may
	// be stored as patches against last.
	capture uint64
}

// entry assembles the handle of version index i. Server and Path are
// substrings of the record's key. Caller holds the entry shard lock.
func (s *Store) entry(fv *fileVersions, i int) Entry {
	r := fv.recs[i]
	server, path, _ := splitKey(r.Key)
	return Entry{
		Server:  server,
		Path:    path,
		Version: Version(r.Version),
		StateID: r.StateID,
		Size:    r.Size,
		Stored:  time.Unix(0, r.StoredUnixNano),
		st:      s,
		key:     r.Key,
		idx:     i,
		gen:     fv.gen,
	}
}

// follows reports whether capture names the capture the newest version was
// archived from — the proof invariant 1 asks for before a capture that
// follows it is stored as patches against that version.
func (fv *fileVersions) follows(capture uint64) bool {
	return fv != nil && capture != 0 && fv.capture == capture
}

// key is the one "server \x00 path" string the index, the catalog and every
// record of the history share.
func (fv *fileVersions) key() string { return fv.recs[0].Key }

// newest reports the highest archived version of the history.
func (fv *fileVersions) newest() Version {
	return Version(fv.recs[len(fv.recs)-1].Version)
}

// indexOf finds the version numbered v, or -1.
func (fv *fileVersions) indexOf(v Version) int {
	for i, r := range fv.recs {
		if r.Version == int64(v) {
			return i
		}
	}
	return -1
}

// entryShard holds the version histories of a subset of (server, path) keys,
// and the arena their appended records are carved from.
type entryShard struct {
	mu      sync.Mutex
	entries map[string]*fileVersions
	arena   catalog.Arena
}

// PutStats reports what one Put physically did.
type PutStats struct {
	NewChunks    int   // chunks that had to be stored
	SharedChunks int   // chunks deduplicated against stored content
	DeltaChunks  int   // chunk slots recorded in the delta manifest
	NewBytes     int64 // bytes the device received (new chunks + new tail)
	DedupedBytes int64 // bytes NOT transferred thanks to dedup
}

// DedupStats is the store-wide view of the dedup machinery.
type DedupStats struct {
	LogicalBytes  int64 // sum of version sizes as archived
	NewBytes      int64 // bytes physically stored across all Puts
	DedupedBytes  int64 // logical bytes that deduplicated away
	SharedChunks  int64 // chunk references served by dedup
	ResidentBytes int64 // bytes currently resident in MEMORY (the LRU tier)
}

// TierConfig configures the durable tier.
type TierConfig struct {
	// Dir is the on-disk chunk store root; "" keeps the store memory-only.
	// With a directory, the store also keeps a durable catalog (manifest log
	// + snapshot checkpoints) there, and NewTiered replays it: a restarted
	// process serves the full pre-restart version history with zero
	// re-archiving.
	Dir string
	// MemoryBudget bounds the hot-chunk LRU (bytes); <= 0 uses the
	// chunkdisk default. Ignored when Dir is empty.
	MemoryBudget int64
	// CheckpointEvery bounds the delta chain: a full manifest at least every
	// this many versions (<= 0: the package default of 16; 1 makes every
	// version a checkpoint).
	CheckpointEvery int
	// Compress flate-compresses spilled chunks when that shrinks them;
	// content hashes are still verified on the uncompressed bytes. Ignored
	// when Dir is empty.
	Compress bool
	// Fsync selects the durability policy shared by packfile/blob writes and
	// catalog log appends: none (default — rely on the OS page cache), group
	// (concurrent committers coalesce behind shared fdatasyncs at the commit
	// barrier), or always (every append flushes inline). See internal/fsyncer.
	Fsync fsyncer.Policy
	// PackTargetBytes seals the active packfile once it grows past this
	// (<= 0: the chunkdisk default).
	PackTargetBytes int64
	// Metrics, if set, mirrors the tier's fsync/pack counters
	// (chunkdisk.fsyncs, chunkdisk.pack.appends, chunkdisk.pack.dead_bytes,
	// catalog.fsyncs) into a registry.
	Metrics *metrics.Registry
}

// RecoveryStats reports what NewTiered replayed from an existing archive
// directory.
type RecoveryStats struct {
	Files           int   // histories rebuilt from the catalog
	Versions        int   // versions restored to service
	DroppedVersions int   // versions discarded because a referenced blob is missing
	TornBytes       int64 // invalid catalog-log tail quarantined at open
	SnapshotRecords int   // catalog records loaded from the snapshot checkpoint
	LogRecords      int   // catalog records replayed from the log
}

// Store is an archive server. Safe for concurrent use.
type Store struct {
	shards  [shardCount]entryShard
	disk    *chunkdisk.Store
	cat     *catalog.Catalog // nil in memory-only mode
	ckEvery int
	recov   RecoveryStats
	seed    maphash.Seed
	clock   func() time.Time

	latency atomic.Int64 // nanoseconds per device transfer unit

	closeOnce sync.Once

	// compactFailures counts catalog checkpoints that failed
	// (archive.catalog.compact_failures): the log keeps growing meanwhile.
	compactFailures *metrics.Counter

	// Stats for the experiment harness.
	puts         atomic.Int64
	restores     atomic.Int64
	logicalBytes atomic.Int64
	newBytes     atomic.Int64
	dedupedBytes atomic.Int64
	sharedChunks atomic.Int64

	// beforeIndex, when a test sets it, runs in PutSnapshotCtx between
	// interning a version's blobs and indexing the version; an error it
	// returns fails the Put — an archive that dies mid-job.
	beforeIndex func() error
	// tombstoneSyncErr, when a test sets it, runs after the tombstone barrier
	// of TruncateAfter and Drop; an error it returns is the barrier's.
	tombstoneSyncErr func() error
}

// New returns a memory-only archive store (the disk tier disabled). latency
// is the simulated device cost per transfer unit (one chunk's worth of new
// data for Put, one round trip for Get); zero means instant.
func New(latency time.Duration, clock func() time.Time) *Store {
	s, err := NewTiered(latency, clock, TierConfig{})
	if err != nil {
		// Memory-only construction cannot fail.
		panic(err)
	}
	return s
}

// NewTiered returns an archive store with the durable tier configured. With
// a directory, any version history a previous process left there (catalog +
// chunk packs) is replayed back into service before the store returns: the
// full index is rebuilt and one blob reference taken per listed slot —
// versions referencing missing blobs are dropped rather than failing the
// open, and a torn catalog-log tail is quarantined. See Recovery for what was
// replayed.
func NewTiered(latency time.Duration, clock func() time.Time, tier TierConfig) (*Store, error) {
	if clock == nil {
		clock = time.Now
	}
	disk, err := chunkdisk.Open(chunkdisk.Config{
		Dir:             tier.Dir,
		MemoryBudget:    tier.MemoryBudget,
		Compress:        tier.Compress,
		PackTargetBytes: tier.PackTargetBytes,
		Fsync:           tier.Fsync,
		Metrics:         tier.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	s := &Store{seed: maphash.MakeSeed(), clock: clock, disk: disk, ckEvery: tier.CheckpointEvery, compactFailures: &metrics.Counter{}}
	if tier.Metrics != nil {
		s.compactFailures = tier.Metrics.Counter("archive.catalog.compact_failures")
	}
	if s.ckEvery <= 0 {
		s.ckEvery = checkpointEvery
	}
	s.latency.Store(int64(latency))
	for i := range s.shards {
		s.shards[i].entries = make(map[string]*fileVersions)
	}
	if tier.Dir != "" {
		cat, err := catalog.Open(tier.Dir, catalog.Config{Fsync: tier.Fsync, Metrics: tier.Metrics})
		if err != nil {
			disk.Close()
			return nil, fmt.Errorf("archive: %w", err)
		}
		repaired := s.replay(cat)
		// Persist the folded-in log and any repairs as a fresh checkpoint so
		// the next open starts from a snapshot and an empty log. A clean
		// snapshot-only open (nothing to fold, nothing repaired) skips the
		// rewrite — cold-open cost must not grow with archive size for a
		// no-op.
		if cat.LogSize() > 0 || s.recov.TornBytes > 0 || repaired {
			if err := cat.Compact(); err != nil {
				cat.Close()
				disk.Close()
				return nil, fmt.Errorf("archive: %w", err)
			}
		}
		s.cat = cat
	}
	return s, nil
}

// replay rebuilds the in-memory version index by adopting the records of the
// catalog's shadow: for every key, walk the delta chain oldest-first — one
// hash list, advanced in place — and take one blob reference per chunk slot
// (and tail) of each version, which turns the blobs the chunk store adopted
// as dead back into held content with zero device transfer. The first version
// referencing a blob the store does not hold gives back what it took and ends
// that key's history — it and everything after it are dropped (later deltas
// chain through it, and blobs only vanish through corruption or manual
// deletion, so the safe prefix is what remains). repaired reports whether any
// history was trimmed (the caller then persists the repair via a catalog
// checkpoint).
func (s *Store) replay(cat *catalog.Catalog) (repaired bool) {
	st := cat.Stats()
	s.recov.TornBytes = st.TornBytes
	s.recov.SnapshotRecords = st.SnapshotRecords
	s.recov.LogRecords = st.LogRecords
	var full []slotRef // the walk's slot list, reused from key to key
	cat.Range(func(k string, hist []*catalog.PutRec) (keep int) {
		if _, _, ok := splitKey(k); !ok {
			// Not a key this store ever writes; ignore rather than guess.
			repaired = true
			return 0
		}
		fv := &fileVersions{gen: genCounter.Add(1), recs: make([]*catalog.PutRec, 0, len(hist))}
		full = full[:0]
		for _, rec := range hist {
			// A chain that does not start at a checkpoint, or a delta that
			// grows the file by slots it does not fill, cannot be walked.
			if !rec.IsFull && (len(fv.recs) == 0 || rec.NChunks-len(full) > len(rec.Mods)) {
				break
			}
			full = advance(full, rec)
			if !s.refRec(full, rec) {
				break
			}
			fv.recs = append(fv.recs, rec)
		}
		keep = len(fv.recs)
		if keep < len(hist) {
			s.recov.DroppedVersions += len(hist) - keep
			repaired = true
		}
		if keep == 0 {
			return 0
		}
		// Not the walk's list: after a missing blob that one has already
		// advanced to the version that failed.
		fv.last = slotsAt(fv, keep-1)
		s.shardFor(k).entries[k] = fv // no shard lock: the store is not shared before NewTiered returns
		s.recov.Files++
		s.recov.Versions += keep
		return keep
	})
	return repaired
}

// advance moves a full slot list one version forward IN PLACE and returns it
// (grown if the version has more chunks) — the single implementation of the
// chain step, shared by live materialization (slotsAt) and the replay and
// import walks. A checkpoint names every slot's base, a delta only the changed
// slots'; either way a slot the record names takes the patches the record
// lists for it, none if it lists none, and a slot a delta does not name keeps
// its predecessor's base and patches.
func advance(full []slotRef, rec *catalog.PutRec) []slotRef {
	if rec.IsFull {
		full = resize(full[:0], rec.NChunks)
		for i, h := range rec.Full {
			full[i] = slotRef{base: h}
		}
	} else {
		full = resize(full, rec.NChunks)
		for _, m := range rec.Mods {
			full[m.Idx] = slotRef{base: m.Hash}
		}
	}
	for p := rec.Patches; len(p) > 0; {
		n := 1
		for n < len(p) && p[n].Idx == p[0].Idx {
			n++
		}
		full[p[0].Idx].patches = p[:n:n]
		p = p[n:]
	}
	return full
}

// resize sets a slot list's length to n; slots it adds are empty.
func resize(full []slotRef, n int) []slotRef {
	if n <= len(full) {
		return full[:n]
	}
	return append(full, make([]slotRef, n-len(full))...)
}

// Recovery reports what NewTiered replayed from the archive directory (zero
// for a fresh or memory-only store).
func (s *Store) Recovery() RecoveryStats { return s.recov }

// GCNow sweeps dead disk chunks immediately, returning how many files were
// freed (tests and explicit maintenance).
func (s *Store) GCNow() int { return s.disk.Sweep() }

// Close sweeps dead disk chunks one final time, closes the durable catalog
// and the disk tier (sealing the active packfile and releasing the
// archive-dir lock). A memory-only store remains usable afterwards; a tiered
// store rejects further Puts (its catalog is closed) but keeps serving
// memory-resident reads. Idempotent.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		s.disk.Sweep()
		if s.cat != nil {
			s.cat.Close()
		}
		s.disk.Close()
	})
}

// Crash simulates the archive process dying for tests: no final sweep, no
// pack seal fsync — the directory is left exactly as the OS had it, and the
// single-owner lock is released so a successor store can open it (a real
// crash releases it too, via the lockfile's dead-pid check).
func (s *Store) Crash() {
	s.closeOnce.Do(func() {
		if s.cat != nil {
			s.cat.Close()
		}
		s.disk.Crash()
	})
}

// Fsyncs reports the physical fdatasync calls the durable tier has issued:
// chunk/pack flushes (chunkdisk) and manifest-log flushes (catalog). Both
// are zero under FsyncPolicy none.
func (s *Store) Fsyncs() (chunk, cat int64) {
	chunk = s.disk.Stats().Fsyncs
	if s.cat != nil {
		cat = s.cat.Fsyncs()
	}
	return chunk, cat
}

func key(server, path string) string { return server + "\x00" + path }

// splitKey is key's inverse (catalog replay).
func splitKey(k string) (server, path string, ok bool) {
	i := strings.IndexByte(k, 0)
	if i < 0 {
		return "", "", false
	}
	return k[:i], k[i+1:], true
}

// lockHistory locks the entry shard of (server, path) — the caller unlocks it
// — and returns it with the path's history, nil when nothing is archived.
func (s *Store) lockHistory(server, path string) (*entryShard, *fileVersions) {
	k := key(server, path)
	sh := s.shardFor(k)
	sh.mu.Lock()
	return sh, sh.entries[k]
}

// shardFor picks the entry shard for a key.
func (s *Store) shardFor(k string) *entryShard {
	return &s.shards[maphash.String(s.seed, k)&(shardCount-1)]
}

// SetLatency adjusts the simulated device latency.
func (s *Store) SetLatency(d time.Duration) { s.latency.Store(int64(d)) }

// sleep charges the device cost for units transfer units (minimum one round
// trip per operation).
func (s *Store) sleep(units int64) {
	d := time.Duration(s.latency.Load())
	if d <= 0 {
		return
	}
	if units < 1 {
		units = 1
	}
	time.Sleep(d * time.Duration(units))
}

// refRec takes one reference per blob a version's full slot list and tail
// name — every slot's base and patches — all of which the chunk store must
// already hold: on the first it does not, the references taken so far are
// given back and refRec reports false.
func (s *Store) refRec(slots []slotRef, rec *catalog.PutRec) bool {
	for i := range slots {
		if !s.refSlot(slots[i]) {
			s.releaseSlots(slots[:i])
			return false
		}
	}
	if rec.TailLen > 0 && !s.disk.Ref(rec.TailHash) {
		s.releaseSlots(slots)
		return false
	}
	return true
}

// refSlot takes one reference on each blob of a slot, all of them or none.
func (s *Store) refSlot(r slotRef) bool {
	if !s.disk.Ref(r.base) {
		return false
	}
	for i, p := range r.patches {
		if !s.disk.Ref(p.Hash) {
			s.releaseSlot(slotRef{base: r.base, patches: r.patches[:i]})
			return false
		}
	}
	return true
}

// releaseRec gives back every blob reference a version holds.
func (s *Store) releaseRec(slots []slotRef, rec *catalog.PutRec) {
	s.releaseSlots(slots)
	if rec.TailLen > 0 {
		s.disk.Release(rec.TailHash)
	}
}

func (s *Store) releaseSlots(slots []slotRef) {
	for _, r := range slots {
		s.releaseSlot(r)
	}
}

func (s *Store) releaseSlot(r slotRef) {
	s.disk.Release(r.base)
	for _, p := range r.patches {
		s.disk.Release(p.Hash)
	}
}

// slotsAt materializes the full slot list of version index idx (a fresh
// slice) by walking back to the nearest checkpoint and applying deltas
// forward. Caller holds the entry shard lock.
func slotsAt(fv *fileVersions, idx int) []slotRef {
	base := idx
	for !fv.recs[base].IsFull {
		base--
	}
	n := 0
	for _, r := range fv.recs[base : idx+1] {
		n = max(n, r.NChunks)
	}
	slots := make([]slotRef, 0, n)
	for _, r := range fv.recs[base : idx+1] {
		slots = advance(slots, r)
	}
	return slots
}

// PutSnapshot archives a version of a file from an extent manifest. The
// snapshot is not consumed — the store interns the content by hash.
// Versions must be archived in increasing order per file; re-archiving an
// existing version returns ErrStale (versions are immutable).
func (s *Store) PutSnapshot(server, path string, v Version, stateID uint64, snap *extent.Snapshot) (PutStats, error) {
	return s.PutSnapshotCtx(context.Background(), server, path, v, stateID, snap)
}

// PutSnapshotCtx is PutSnapshot carrying a trace context: when the context
// holds a span, the commit durability barrier gets an "archive.barrier" span
// whose "fsync" child records which group-commit round (pack and catalog)
// made this version durable.
//
// A snapshot that is an extent capture following the capture this store's
// newest version of the path was archived from is stored against that
// version: clean slots keep its slot references, small writes become patches
// (internSlots). Anything else — a plain snapshot, a first capture, a capture
// following one this store never archived — is stored chunk by chunk.
func (s *Store) PutSnapshotCtx(ctx context.Context, server, path string, v Version, stateID uint64, snap *extent.Snapshot) (PutStats, error) {
	id, follows := snap.Captured()
	for {
		// Invariant 1: patch only against the version archived from the
		// capture this one follows.
		var prev []slotRef
		if follows != 0 {
			sh, fv := s.lockHistory(server, path)
			if fv.follows(follows) {
				prev = fv.last
			}
			sh.mu.Unlock()
		}
		// Intern every blob first: the references pin them, so a stale
		// rejection can unwind symmetrically and a concurrent drop of an
		// older version can never free content this version shares.
		var st PutStats
		slots, lists, err := s.internSlots(snap, prev, &st)
		if err != nil {
			return PutStats{}, err
		}
		// The record is carved from the shard's arena once the shard is locked;
		// until then it is built here.
		tail := snap.Tail()
		r := catalog.PutRec{Version: int64(v), StateID: stateID, Size: snap.Len(), NChunks: len(slots), TailLen: len(tail)}
		if len(tail) > 0 {
			var wrote bool
			if r.TailHash, wrote, err = s.putTail(tail); err != nil {
				s.releaseSlots(slots)
				return PutStats{}, err
			}
			if wrote {
				st.NewBytes += int64(len(tail))
			} else {
				st.DedupedBytes += int64(len(tail))
			}
		}
		if s.beforeIndex != nil {
			if err := s.beforeIndex(); err != nil {
				s.releaseRec(slots, &r)
				return PutStats{}, err
			}
		}
		sh, fv := s.lockHistory(server, path)
		if prev != nil && !fv.follows(follows) {
			// The history moved on while the blobs were interned (a restore,
			// an import, a drop): store the capture chunk by chunk instead.
			sh.mu.Unlock()
			s.releaseRec(slots, &r)
			follows = 0
			continue
		}
		if fv == nil {
			// Indexed below, once its first version is logged: a history in
			// the index is never empty.
			fv, r.Key = &fileVersions{gen: genCounter.Add(1)}, key(server, path)
		} else {
			r.Key = fv.key()
		}
		if len(fv.recs) > 0 && fv.newest() >= v {
			last := fv.newest()
			sh.mu.Unlock()
			s.releaseRec(slots, &r)
			return PutStats{}, fmt.Errorf("%w: version %d of %s (archived %d)", ErrStale, v, path, last)
		}
		// Delta against the cached predecessor list; checkpoint when the delta
		// would not save metadata or the chain is due for one.
		changed := func(i int) bool { return i >= len(fv.last) || !sameSlot(fv.last[i], slots[i]) }
		sinceFull, nmods := 0, 0
		for i := len(fv.recs) - 1; i >= 0 && !fv.recs[i].IsFull; i-- {
			sinceFull++
		}
		if len(fv.recs) > 0 {
			for i := range slots {
				if changed(i) {
					nmods++
				}
			}
		}
		rec := sh.arena.Rec()
		*rec = r
		switch {
		case len(fv.recs) == 0 || sinceFull+1 >= s.ckEvery || nmods*2 >= len(slots):
			rec.IsFull = true
			if len(slots) > 0 {
				rec.Full = sh.arena.Hashes(len(slots))
			}
			for i := range slots {
				rec.Full[i] = slots[i].base
			}
		case nmods > 0:
			rec.Mods = sh.arena.Mods(nmods)[:0]
			for i := range slots {
				if changed(i) {
					rec.Mods = append(rec.Mods, catalog.Mod{Idx: int32(i), Hash: slots[i].base})
				}
			}
		}
		linkPatches(rec, slots, lists, &sh.arena)
		st.DeltaChunks = nmods
		rec.StoredUnixNano = s.clock().UnixNano()
		if s.cat != nil {
			// Write the manifest through to the durable catalog before the
			// version becomes visible outside the shard lock. The blobs are
			// already on the device (written above), so a crash right here
			// loses only this version's index entry — its blobs are adopted as
			// dead and swept at the next open, and recovery's pending-archive
			// pass re-archives the version. An unlogged version must not be
			// served (it would silently vanish at the next restart).
			if err := s.cat.AppendPut(rec); err != nil {
				sh.mu.Unlock()
				s.releaseRec(slots, rec)
				return PutStats{}, fmt.Errorf("archive: catalog: %w", err)
			}
		}
		if len(fv.recs) == 0 {
			sh.entries[rec.Key] = fv
		}
		fv.recs = append(fv.recs, rec)
		fv.last, fv.capture = slots, id
		sh.mu.Unlock()
		return st, s.afterPut(ctx, rec, st)
	}
}

// afterPut is the tail of a Put once its version is indexed: the catalog
// checkpoint if one is due, the commit durability barrier, the counters and
// the simulated device transfer.
func (s *Store) afterPut(ctx context.Context, rec *catalog.PutRec, st PutStats) error {
	s.compactCatalog()
	// Commit durability barrier (group policy; no-op under none/always):
	// one coalesced fdatasync covers this commit's pack appends, then one
	// covers its catalog append — shared with every concurrent committer.
	// Blobs flush before the manifest so a crash between the two leaves a
	// manifest whose blobs exist (the reverse would reference lost bytes,
	// which replay would then have to drop). The version is already indexed;
	// a barrier failure reports that its durability is not established.
	bar := obs.SpanFrom(ctx).Child("archive.barrier")
	fsp := bar.Child("fsync")
	err := s.syncRounds(fsp)
	fsp.End()
	bar.End()
	if err != nil {
		return err
	}
	s.puts.Add(1)
	s.logicalBytes.Add(rec.Size)
	s.newBytes.Add(st.NewBytes)
	s.dedupedBytes.Add(st.DedupedBytes)
	s.sharedChunks.Add(int64(st.SharedChunks))

	// Device transfer: only new blobs travel.
	s.sleep(int64(st.NewChunks))
	return nil
}

// compactCatalog checkpoints the catalog if an append pushed its log past the
// threshold — outside the shard lock, so a large snapshot write never stalls
// the shard's readers. A failure is counted, not returned: the log keeps
// growing and a later append retries.
func (s *Store) compactCatalog() {
	if s.cat != nil && s.cat.CompactIfDue() != nil {
		s.compactFailures.Inc()
	}
}

// tombstoneBarrier is the commit barrier of a TruncateAfter or Drop
// tombstone: the round that makes it durable.
func (s *Store) tombstoneBarrier() error {
	if s.cat == nil {
		return nil
	}
	s.compactCatalog()
	err := s.cat.Sync()
	if err == nil && s.tombstoneSyncErr != nil {
		err = s.tombstoneSyncErr()
	}
	if err != nil {
		return fmt.Errorf("archive: catalog: %w", err)
	}
	return nil
}

// syncRounds waits for the group-commit rounds of the pack and the catalog
// appends, noting on fsp which rounds they were.
func (s *Store) syncRounds(fsp *obs.Span) error {
	round, err := s.disk.SyncRound()
	fsp.SetInt("round", int64(round))
	if err != nil || s.cat == nil {
		return err
	}
	cround, err := s.cat.SyncRound()
	fsp.SetInt("catalog_round", int64(cround))
	if err != nil {
		return fmt.Errorf("archive: catalog: %w", err)
	}
	return nil
}

// internSlots takes the blob references the snapshot's chunk slots need and
// returns the version's slot list. Against prev — the slots of the version
// archived from the capture snap follows; nil when there is none — a clean
// slot is prev's slot, with no hash taken; a slot written over less than
// 1/patchFraction of its chunk whose chain is short of maxChain is prev's
// slot plus a patch of the written bytes, again with no hash of the chunk.
// Every other slot is its chunk, hashed and stored whole. On an error
// nothing is held.
func (s *Store) internSlots(snap *extent.Snapshot, prev []slotRef, st *PutStats) (slots []slotRef, lists []catalog.Patch, err error) {
	chunks := snap.Chunks()
	slots = make([]slotRef, len(chunks))
	// The patched slots' lists go into one array, slot after slot — the very
	// list a delta record carries (linkPatches).
	n := 0
	for i := range prev[:min(len(prev), len(chunks))] {
		if prev[i].patchable(snap.Dirty(i)) {
			n += prev[i].chain()
		}
	}
	if n > 0 {
		lists = make([]catalog.Patch, 0, n)
	}
	for i, c := range chunks {
		if i < len(prev) {
			p, d := prev[i], snap.Dirty(i)
			switch {
			case d.Len() == 0:
				if s.refSlot(p) {
					slots[i] = p
					st.SharedChunks++
					st.DedupedBytes += extent.ChunkSize
					continue
				}
			case p.patchable(d):
				if s.refSlot(p) {
					patch := c.Data()[d.Lo:d.Hi]
					h := extent.Hash(sha256.Sum256(patch))
					wrote, err := s.disk.PutBytes(h, patch)
					if err != nil {
						s.releaseSlot(p)
						s.releaseSlots(slots[:i])
						return nil, nil, err
					}
					from := len(lists)
					lists = append(append(lists, p.patches...), catalog.Patch{Idx: int32(i), Off: d.Lo, Hash: h})
					slots[i] = slotRef{base: p.base, patches: lists[from:len(lists):len(lists)]}
					st.blob(wrote, int64(d.Len()))
					st.DedupedBytes += int64(extent.ChunkSize - d.Len())
					continue
				}
			}
			// A slot whose references could not all be taken (a concurrent
			// drop released them) is stored whole.
		}
		h := c.Hash()
		wrote, err := s.disk.Put(h, c)
		if err != nil {
			// The device rejected the blob: give back what was interned so far.
			s.releaseSlots(slots[:i])
			return nil, nil, err
		}
		slots[i] = slotRef{base: h}
		st.blob(wrote, extent.ChunkSize)
	}
	return slots, lists, nil
}

// blob counts one blob reference a Put took for n bytes: a transfer when the
// device received it, dedup when it already held the bytes.
func (st *PutStats) blob(wrote bool, n int64) {
	if wrote {
		st.NewChunks++
		st.NewBytes += n
	} else {
		st.SharedChunks++
		st.DedupedBytes += n
	}
}

// putTail takes one reference on the blob of a version's tail, writing the
// snapshot's tail through as it lies when the device does not hold it.
func (s *Store) putTail(tail []byte) (h extent.Hash, wrote bool, err error) {
	h = sha256.Sum256(tail)
	wrote, err = s.disk.PutBytes(h, tail)
	return h, wrote, err
}

// linkPatches gives rec, as one list, the patches of the slots it names —
// every slot of a checkpoint, the changed ones of a delta — and points those
// slots at their part of that list, so a history's slot list aliases nothing
// but frozen records. A delta names the slots internSlots patched (and ones
// it stored whole), so it adopts the lists internSlots wrote, as they lie.
func linkPatches(rec *catalog.PutRec, slots []slotRef, lists []catalog.Patch, a *catalog.Arena) {
	n, adopt := 0, !rec.IsFull
	if rec.IsFull {
		for _, r := range slots {
			n += len(r.patches)
		}
	} else {
		for _, m := range rec.Mods {
			ps := slots[m.Idx].patches
			adopt = adopt && (len(ps) == 0 || n+len(ps) <= len(lists) && &ps[0] == &lists[n])
			n += len(ps)
		}
	}
	if adopt && n == len(lists) {
		rec.Patches = lists
		return
	}
	if n == 0 {
		return
	}
	rec.Patches = a.Patches(n)[:0]
	link := func(i int) {
		from := len(rec.Patches)
		rec.Patches = append(rec.Patches, slots[i].patches...)
		slots[i].patches = rec.Patches[from:len(rec.Patches):len(rec.Patches)]
	}
	if rec.IsFull {
		for i := range slots {
			link(i)
		}
		return
	}
	for _, m := range rec.Mods {
		link(int(m.Idx))
	}
}

// Put archives a version from a flat byte slice (content is copied).
func (s *Store) Put(server, path string, v Version, stateID uint64, content []byte) error {
	snap := extent.FromBytes(content)
	_, err := s.PutSnapshot(server, path, v, stateID, snap)
	snap.Release()
	return err
}

// materialize rebuilds version idx of key as a caller-owned snapshot. One
// reference per blob is taken under the shard lock (so a concurrent
// truncate/drop cannot free them) and held until the snapshot is built; the
// chunks are fetched — possibly paging in from disk — without any entry lock.
// The version check catches a slot that was truncated and re-filled by a
// newer Put since the handle was obtained: the handle must error, never serve
// a different version's bytes.
func (s *Store) materialize(k string, idx int, gen uint64, v Version) (snap *extent.Snapshot, err error) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	fv := sh.entries[k]
	if fv == nil || fv.gen != gen || idx >= len(fv.recs) || fv.recs[idx].Version != int64(v) {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: version discarded", ErrNotFound)
	}
	rec := fv.recs[idx]
	slots := slotsAt(fv, idx)
	held := s.refRec(slots, rec)
	sh.mu.Unlock()
	if !held {
		// An indexed version holds a reference on every blob it lists.
		return nil, fmt.Errorf("archive: version %d of %q lists a blob that is not stored", v, k)
	}
	defer s.releaseRec(slots, rec)

	chunks := make([]*extent.Chunk, 0, len(slots))
	defer func() {
		if err != nil {
			for _, c := range chunks {
				c.ReleaseChunk()
			}
		}
	}()
	for _, r := range slots {
		var c *extent.Chunk
		if len(r.patches) == 0 {
			c, err = s.disk.Get(r.base)
		} else {
			c, err = s.assemble(r)
		}
		if err != nil {
			return nil, fmt.Errorf("archive: version %d of %q: %w", v, k, err)
		}
		chunks = append(chunks, c)
	}
	var tail []byte
	if rec.TailLen > 0 {
		tc, err := s.disk.Get(rec.TailHash)
		if err != nil {
			return nil, err
		}
		defer tc.ReleaseChunk()
		tail = tc.Data()
	}
	return extent.BuildSnapshot(chunks, tail), nil
}

// assemble materializes a patched slot: its base read into a buffer of the
// chunk's own, each patch read over it in order — every blob verified against
// its hash as it comes off the device — and the result handed out frozen.
// Nothing is paged into the LRU and no patch costs an allocation.
func (s *Store) assemble(r slotRef) (*extent.Chunk, error) {
	data := make([]byte, extent.ChunkSize)
	n, err := s.disk.ReadInto(r.base, data)
	if err != nil {
		return nil, err
	}
	if n != extent.ChunkSize {
		return nil, fmt.Errorf("base %x is %d bytes, not a chunk", r.base[:8], n)
	}
	for _, p := range r.patches {
		if _, err := s.disk.ReadInto(p.Hash, data[p.Off:]); err != nil {
			return nil, fmt.Errorf("patch at %d: %w", p.Off, err)
		}
	}
	return extent.Freeze(data), nil
}

// Get returns a specific archived version.
func (s *Store) Get(server, path string, v Version) (Entry, error) {
	s.sleep(1)
	sh, fv := s.lockHistory(server, path)
	defer sh.mu.Unlock()
	if fv != nil {
		if i := fv.indexOf(v); i >= 0 {
			s.restores.Add(1)
			return s.entry(fv, i), nil
		}
	}
	return Entry{}, fmt.Errorf("%w: %s v%d", ErrNotFound, path, v)
}

// Latest returns the newest archived version of a file.
func (s *Store) Latest(server, path string) (Entry, error) {
	s.sleep(1)
	sh, fv := s.lockHistory(server, path)
	defer sh.mu.Unlock()
	if fv == nil {
		return Entry{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	s.restores.Add(1)
	return s.entry(fv, len(fv.recs)-1), nil
}

// Newest reports the newest archived version number of a file, ok false when
// nothing is archived. Metadata only: unlike Latest it neither pays the
// device round trip nor counts as a restore.
func (s *Store) Newest(server, path string) (v Version, ok bool) {
	sh, fv := s.lockHistory(server, path)
	defer sh.mu.Unlock()
	if fv == nil {
		return 0, false
	}
	return fv.newest(), true
}

// HasVersion reports whether version v of a file is archived (metadata only,
// like Newest).
func (s *Store) HasVersion(server, path string, v Version) bool {
	sh, fv := s.lockHistory(server, path)
	defer sh.mu.Unlock()
	return fv != nil && fv.indexOf(v) >= 0
}

// AsOf returns the newest version whose StateID is <= stateID — the version
// that was current when the database was at that state (§4.4).
func (s *Store) AsOf(server, path string, stateID uint64) (Entry, error) {
	s.sleep(1)
	sh, fv := s.lockHistory(server, path)
	defer sh.mu.Unlock()
	if fv != nil {
		for i := len(fv.recs) - 1; i >= 0; i-- {
			if fv.recs[i].StateID <= stateID {
				s.restores.Add(1)
				return s.entry(fv, i), nil
			}
		}
	}
	return Entry{}, fmt.Errorf("%w: %s as of state %d", ErrNotFound, path, stateID)
}

// dropped is one version leaving a history: the references releaseRec is to
// give back once the shard lock is released.
type dropped struct {
	slots []slotRef
	rec   *catalog.PutRec
}

// TruncateAfter discards versions with StateID > stateID (used when the
// database itself is restored to an earlier point in time). The tombstone is
// logged before any state changes: on a catalog failure nothing is dropped
// and the error is returned, so memory and the durable log can never
// disagree about which versions exist (dropped blobs linger on disk until a
// sweep, and an un-tombstoned restart would resurrect them).
func (s *Store) TruncateAfter(server, path string, stateID uint64) error {
	sh, fv := s.lockHistory(server, path)
	if fv == nil {
		sh.mu.Unlock()
		return nil
	}
	k := fv.key()
	cut := len(fv.recs)
	for i, r := range fv.recs {
		if r.StateID > stateID {
			cut = i
			break
		}
	}
	if cut == len(fv.recs) {
		sh.mu.Unlock()
		return nil
	}
	if s.cat != nil {
		if err := s.cat.AppendTruncate(k, cut); err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("archive: catalog: %w", err)
		}
	}
	// Materialize the dropped versions' hash lists before mutating the
	// chain (their checkpoints may themselves be dropped).
	drops := make([]dropped, 0, len(fv.recs)-cut)
	for i := cut; i < len(fv.recs); i++ {
		drops = append(drops, dropped{slots: slotsAt(fv, i), rec: fv.recs[i]})
	}
	clear(fv.recs[cut:]) // the dropped records must not stay reachable from the spare capacity
	fv.recs = fv.recs[:cut]
	if cut == 0 {
		delete(sh.entries, k)
	} else {
		// Invariant 1: no capture follows the version that is newest now.
		fv.last, fv.capture = slotsAt(fv, cut-1), 0
	}
	sh.mu.Unlock()
	// The tombstone follows the same commit barrier as puts. The versions are
	// already gone from the index, so their references go back either way; a
	// failed flush is reported, as afterPut reports a put's: a crash now could
	// resurrect the dropped suffix.
	err := s.tombstoneBarrier()
	for _, d := range drops {
		s.releaseRec(d.slots, d.rec)
	}
	return err
}

// Versions lists the archived versions of a file in order.
func (s *Store) Versions(server, path string) []Entry {
	sh, fv := s.lockHistory(server, path)
	defer sh.mu.Unlock()
	if fv == nil {
		return nil
	}
	out := make([]Entry, len(fv.recs))
	for i := range out {
		out[i] = s.entry(fv, i)
	}
	return out
}

// Files lists every archived path for a server, sorted.
func (s *Store) Files(server string) []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.entries {
			if len(k) > len(server) && k[:len(server)] == server && k[len(server)] == 0 {
				out = append(out, k[len(server)+1:])
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Drop discards every version of a file (after unlink with no recovery
// need). Tombstone-first like TruncateAfter: a catalog failure drops nothing.
func (s *Store) Drop(server, path string) error {
	sh, fv := s.lockHistory(server, path)
	if fv == nil {
		sh.mu.Unlock()
		return nil
	}
	k := fv.key()
	if s.cat != nil {
		if err := s.cat.AppendDrop(k); err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("archive: catalog: %w", err)
		}
	}
	drops := make([]dropped, 0, len(fv.recs))
	for i := range fv.recs {
		drops = append(drops, dropped{slots: slotsAt(fv, i), rec: fv.recs[i]})
	}
	delete(sh.entries, k)
	sh.mu.Unlock()
	err := s.tombstoneBarrier() // reported after the releases, like TruncateAfter's
	for _, d := range drops {
		s.releaseRec(d.slots, d.rec)
	}
	return err
}

// Stats reports operation counts for benchmarks. bytes is the logical size
// archived (what the paper's flat copy would have moved); the physically
// stored delta is in Dedup().
func (s *Store) Stats() (puts, restores, bytes int64) {
	return s.puts.Load(), s.restores.Load(), s.logicalBytes.Load()
}

// Dedup reports the chunk-dedup counters. ResidentBytes is memory-resident
// bytes only: with the disk tier enabled it is bounded by the LRU budget,
// while the full deduplicated content lives in Tier().DiskBytes.
func (s *Store) Dedup() DedupStats {
	return DedupStats{
		LogicalBytes:  s.logicalBytes.Load(),
		NewBytes:      s.newBytes.Load(),
		DedupedBytes:  s.dedupedBytes.Load(),
		SharedChunks:  s.sharedChunks.Load(),
		ResidentBytes: s.disk.Stats().ResidentBytes,
	}
}

// Tier reports the durable-tier counters (spill, page-in, eviction, GC).
func (s *Store) Tier() chunkdisk.Stats { return s.disk.Stats() }

// TierDir reports the on-disk store root ("" when memory-only).
func (s *Store) TierDir() string { return s.disk.Dir() }
