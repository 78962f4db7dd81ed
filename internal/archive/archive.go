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
//     delta would exceed half the file, and every defaultCheckpointEvery
//     versions at least, so materializing any version walks a bounded chain.
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
//     hash, written through to disk from the capture as they lie, and read
//     back from disk whenever a version is loaded (Held.ReadSlot/ReadTail,
//     Entry.Snapshot). The store keeps no chunk in memory, however many
//     versions accumulate: a linked file's committed chunks live in the file
//     system, which pages them out against the version they were archived
//     as.
//   - Dropping versions (TruncateAfter, Drop, unlink) releases references;
//     blobs that reach zero are dead, and their disk records are reclaimed
//     later by GC (GCNow, and once more at Close). A
//     Held version (Entry.Hold) keeps its own references until Release, so
//     a file installed from it and not yet read survives its history's drop.
//   - Every version's manifest is also written through to a durable catalog
//     (internal/catalog: append-only checksummed log + snapshot checkpoints,
//     in the same directory), and TruncateAfter/Drop append tombstones.
//     NewTiered over an existing directory replays the catalog: the whole
//     version history comes back into service with zero re-archiving, which
//     is what makes the archive a database-managed store rather than a cache
//     over the chunk packs.
//   - A store opened without a directory runs the same code over a private
//     one it creates, and removes it at Close or Crash. Dead blobs stay in
//     its packs until a sweep (GCNow, Close), as in any store.
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
//     (fileVersions.follows). A restore, an import, a plain snapshot or a
//     failed archive leaves no such record, and the slot's next version is
//     stored whole. (Link's version 0 and recovery's archiveCurrent archive
//     a capture, as a close does.)
//  2. Nothing the archive keeps aliases a chunk the live file may still
//     write in place — not a pack write, not a shipped frame. Patches,
//     whole chunks and tails go straight from the capture to the device
//     while the capture still holds the chunk (chunkdisk.Put and PutBytes
//     keep nothing).
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
// shard → chunkdisk shard, and entry shard → catalog: a catalog checkpoint
// takes every entry shard, in index order, before the catalog.
package archive

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/maphash"
	"os"
	"slices"
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

// VersionID names one archived version by identity: its number, the state id
// of the commit that made it and the time its owner archived it. An import
// copies all three, so every copy of a version carries its ID. A number alone
// comes round again when a restore rewinds a history and commits follow, and
// so can a state id — it is a position in the host database's log, which the
// restore cut back; the archive time does not. Version -1 names no version:
// the base an export of a whole history starts from.
type VersionID struct {
	Version Version
	StateID uint64
	Stored  int64 // unix nanoseconds
}

// idOf is the identity of an archived record.
func idOf(r *catalog.PutRec) VersionID {
	return VersionID{Version: Version(r.Version), StateID: r.StateID, Stored: r.StoredUnixNano}
}

// compactBytes is the catalog log's length past which the store writes a
// catalog checkpoint.
const compactBytes = 4 << 20

// defaultCheckpointEvery is the default delta-chain bound: at least every this many
// versions a full manifest is stored, so materialization applies at most this
// many deltas on top of one checkpoint (TierConfig.checkpointEvery overrides).
const defaultCheckpointEvery = 16

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
// restore swap, reading every chunk from the disk tier. The
// caller owns the returned snapshot and must Release it.
func (e Entry) Snapshot() (*extent.Snapshot, error) {
	h, err := e.hold()
	if err != nil {
		return nil, err
	}
	defer h.Release()
	return h.Load()
}

// Hold takes a reference on every blob of the version and returns them as a
// Held: its content stays loadable, byte for byte, until its last Release,
// whatever happens to the version meanwhile — a Drop, a TruncateAfter or a
// pack compaction frees nothing a Held names. Metadata only: nothing is read.
func (e Entry) Hold() (*Held, error) {
	h, err := e.hold()
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// hold is Hold by value, so Snapshot's Held, which lives for the call only,
// stays off the heap.
func (e Entry) hold() (Held, error) {
	if e.st == nil {
		return Held{}, fmt.Errorf("%w: entry not bound to a store", ErrNotFound)
	}
	return e.st.hold(e.key, e.idx, e.gen, e.Version)
}

// Held is an archived version whose blobs the holder keeps referenced (see
// Entry.Hold). It is the chunk source (extent.Source) of a file installed
// from the version or archived as it: ReadSlot and ReadTail read one slot or
// the tail, and Retain and Release count its sharers — the blob references
// go back at the last Release. Every method is safe for concurrent use,
// except that nothing may be called after the last Release.
type Held struct {
	st    *Store
	key   string
	v     Version
	slots []slotRef
	rec   *catalog.PutRec
	// refs counts the sharers (atomically; a plain field so hold can return
	// a Held by value).
	refs int32
}

// Size is the version's length in bytes.
func (h *Held) Size() int64 { return h.rec.Size }

// Retain adds a sharer.
func (h *Held) Retain() { atomic.AddInt32(&h.refs, 1) }

// Release drops a sharer. At the last one the blob references go back; once
// the version is also gone from the index its blobs reach a count of zero
// and are reclaimed as any dropped version's.
func (h *Held) Release() {
	if atomic.AddInt32(&h.refs, -1) == 0 {
		h.st.releaseRec(h.slots, h.rec)
	}
}

// ReadSlot reads chunk slot i of the held version into dst (ChunkSize
// bytes): its base and patches, each verified against its hash.
func (h *Held) ReadSlot(i int, dst []byte) error {
	if err := h.live(); err != nil {
		return err
	}
	if i < 0 || i >= len(h.slots) {
		return fmt.Errorf("archive: version %d of %q has no chunk slot %d", h.v, h.key, i)
	}
	if err := h.st.readSlot(h.slots[i], dst); err != nil {
		return fmt.Errorf("archive: version %d of %q: slot %d: %w", h.v, h.key, i, err)
	}
	return nil
}

// ReadTail reads the held version's tail into dst, which is as long as it.
func (h *Held) ReadTail(dst []byte) error {
	if err := h.live(); err != nil {
		return err
	}
	if len(dst) != h.rec.TailLen {
		return fmt.Errorf("archive: version %d of %q: tail is %d bytes, not %d", h.v, h.key, h.rec.TailLen, len(dst))
	}
	if len(dst) == 0 {
		return nil
	}
	if _, err := h.st.disk.ReadInto(h.rec.TailHash, dst); err != nil {
		return fmt.Errorf("archive: version %d of %q: tail: %w", h.v, h.key, err)
	}
	return nil
}

// live fails a read of a hold whose last sharer released it.
func (h *Held) live() error {
	if atomic.LoadInt32(&h.refs) <= 0 {
		return fmt.Errorf("%w: version %d of %q was released", ErrNotFound, h.v, h.key)
	}
	return nil
}

// Errors.
var (
	ErrNotFound = errors.New("archive: no such version")
	// ErrStale rejects a Put whose version is not newer than what is already
	// archived. Recovery treats it as benign: the version already made it to
	// the device (e.g. a close still in its put when the crash hit completed
	// it).
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
// before it — frozen once it is here. It is the only in-memory list of a
// history's versions: the durable catalog logs the records, replay builds this
// list directly, and a catalog checkpoint is written from it. An Entry is
// assembled from a record on demand.
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

// key is the one "server \x00 path" string the index and every record of the
// history share.
func (fv *fileVersions) key() string { return fv.recs[0].Key }

// cut keeps the first keep versions. The records cut must not stay reachable
// from the slice's spare capacity.
func (fv *fileVersions) cut(keep int) {
	clear(fv.recs[keep:])
	fv.recs = fv.recs[:keep]
}

// newest reports the highest archived version of the history.
func (fv *fileVersions) newest() Version {
	return Version(fv.recs[len(fv.recs)-1].Version)
}

// indexOf finds the version numbered v, or -1. It scans from the newest
// end, where a ship's base and most lookups are.
func (fv *fileVersions) indexOf(v Version) int {
	for i := len(fv.recs) - 1; i >= 0; i-- {
		if fv.recs[i].Version == int64(v) {
			return i
		}
	}
	return -1
}

// find is indexOf by identity: the index of the version id names, or -1
// when the history holds another version of that number, or none.
func (fv *fileVersions) find(id VersionID) int {
	if i := fv.indexOf(id.Version); i >= 0 && idOf(fv.recs[i]) == id {
		return i
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
	LogicalBytes int64 // sum of version sizes as archived
	NewBytes     int64 // bytes physically stored across all Puts
	DedupedBytes int64 // logical bytes that deduplicated away
	SharedChunks int64 // chunk references served by dedup
}

// TierConfig configures the durable tier.
type TierConfig struct {
	// Dir is the on-disk store root: chunk packs and a durable catalog
	// (manifest log + snapshot checkpoints), which NewTiered replays — a
	// restarted process serves the full pre-restart version history with
	// zero re-archiving. "" gives the store a private directory of its own
	// (os.MkdirTemp), which Close and Crash remove.
	Dir string
	// checkpointEvery bounds the delta chain: a full manifest at least every
	// this many versions (<= 0: the package default of 16; 1 makes every
	// version a checkpoint).
	checkpointEvery int
	// Fsync selects the durability policy shared by packfile/blob writes and
	// catalog log appends: none (default — rely on the OS page cache), group
	// (concurrent committers coalesce behind shared fdatasyncs at the commit
	// barrier), or always (every append flushes inline). See internal/fsyncer.
	Fsync fsyncer.Policy
	// packTargetBytes seals the active packfile once it grows past this
	// (<= 0: the chunkdisk default).
	packTargetBytes int64
	// Metrics, if set, mirrors the tier's fsync/pack counters
	// (chunkdisk.fsyncs, chunkdisk.pack.appends, chunkdisk.pack.dead_bytes,
	// catalog.fsyncs) into a registry.
	Metrics *metrics.Registry
}

// RecoveryStats reports what NewTiered replayed from an existing archive
// directory.
type RecoveryStats struct {
	Files           int // histories rebuilt from the catalog
	Versions        int // versions restored to service
	DroppedVersions int // versions discarded because a referenced blob is missing
	// The catalog's records replayed from the snapshot and the log, and the
	// invalid log tail quarantined at open.
	catalog.OpenStats
}

// Store is an archive server. Safe for concurrent use.
type Store struct {
	shards [shardCount]entryShard
	disk   *chunkdisk.Store
	cat    *catalog.Catalog
	// private is the directory NewTiered made for a store opened without
	// one ("" otherwise): Close and Crash remove it.
	private   string
	ckEvery   int
	compactAt int64 // compactBytes; tests lower it
	recov     RecoveryStats
	seed      maphash.Seed
	clock     func() time.Time

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

// NewTiered returns an archive store over tier.Dir. latency is the simulated
// device cost per transfer unit (one chunk's worth of new data for Put, one
// round trip for Get); zero means instant. Any version history a previous
// process left in the directory (catalog + chunk packs) is replayed back into
// service before the store returns: the full index is rebuilt and one blob
// reference taken per listed slot — versions referencing missing blobs are
// dropped rather than failing the open, and a torn catalog-log tail is
// quarantined. See Recovery for what was replayed.
func NewTiered(latency time.Duration, clock func() time.Time, tier TierConfig) (*Store, error) {
	if clock == nil {
		clock = time.Now
	}
	var private string
	if tier.Dir == "" {
		var err error
		if private, err = os.MkdirTemp("", "datalinks-archive-*"); err != nil {
			return nil, fmt.Errorf("archive: %w", err)
		}
		tier.Dir = private
	}
	fail := func(err error) (*Store, error) {
		if private != "" {
			os.RemoveAll(private)
		}
		return nil, fmt.Errorf("archive: %w", err)
	}
	disk, err := chunkdisk.Open(chunkdisk.Config{
		Dir:             tier.Dir,
		PackTargetBytes: tier.packTargetBytes,
		Fsync:           tier.Fsync,
		Metrics:         tier.Metrics,
	})
	if err != nil {
		return fail(err)
	}
	s := &Store{seed: maphash.MakeSeed(), clock: clock, disk: disk, private: private,
		ckEvery: tier.checkpointEvery, compactAt: compactBytes, compactFailures: &metrics.Counter{}}
	if tier.Metrics != nil {
		s.compactFailures = tier.Metrics.Counter("archive.catalog.compact_failures")
	}
	if s.ckEvery <= 0 {
		s.ckEvery = defaultCheckpointEvery
	}
	s.latency.Store(int64(latency))
	for i := range s.shards {
		s.shards[i].entries = make(map[string]*fileVersions)
	}
	rp := &replayer{s: s}
	cat, err := catalog.Open(tier.Dir, catalog.Config{Receiver: rp, Fsync: tier.Fsync, Metrics: tier.Metrics})
	if err != nil {
		disk.Close()
		return fail(err)
	}
	rp.flush()
	s.cat = cat
	repaired := s.adopt()
	// Persist the folded-in log and any repairs as a fresh checkpoint so the
	// next open starts from a snapshot and an empty log. A clean
	// snapshot-only open (nothing to fold, nothing repaired) skips the
	// rewrite — cold-open cost must not grow with archive size for a no-op.
	if cat.LogSize() > 0 || s.recov.TornBytes > 0 || repaired {
		if err := s.compact(-1); err != nil {
			cat.Close()
			disk.Close()
			return fail(err)
		}
	}
	return s, nil
}

// replayer is the catalog.Receiver NewTiered replays the catalog into: it
// builds the index itself. A put not newer than its history's newest is
// skipped, and a truncate or drop of nothing does nothing. Every record of a
// history gets the key string the index files it under, and the records a
// snapshot lists for one key — a snapshot writes each history in one piece —
// are gathered and land in one slice of their exact length.
type replayer struct {
	s   *Store
	fv  *fileVersions     // the history run belongs to, nil after a tombstone
	key string            // fv's key
	run []*catalog.PutRec // fv's records not yet in fv.recs, reused from key to key
}

func (rp *replayer) Put(key []byte, rec *catalog.PutRec) bool {
	if rp.fv == nil || rp.key != string(key) {
		rp.flush()
		sh := rp.shard(key)
		if rp.fv = sh.entries[string(key)]; rp.fv != nil {
			rp.key = rp.fv.key()
		} else {
			// No shard lock: the store is not shared before NewTiered
			// returns. The history is empty only until the flush.
			rp.key, rp.fv = string(key), &fileVersions{gen: genCounter.Add(1)}
			sh.entries[rp.key] = rp.fv
		}
	}
	newest := rp.fv.recs
	if len(rp.run) > 0 {
		newest = rp.run
	}
	if n := len(newest); n > 0 && newest[n-1].Version >= rec.Version {
		return false // replayed duplicate
	}
	rec.Key = rp.key
	rp.run = append(rp.run, rec)
	return true
}

func (rp *replayer) Truncate(key []byte, keep int) {
	rp.flush()
	rp.fv = nil
	sh := rp.shard(key)
	if fv := sh.entries[string(key)]; fv != nil && keep < len(fv.recs) {
		fv.cut(keep)
		if keep == 0 {
			delete(sh.entries, string(key))
		}
	}
}

func (rp *replayer) Drop(key []byte) {
	rp.flush()
	rp.fv = nil
	delete(rp.shard(key).entries, string(key))
}

// flush hands the gathered records to their history: a history they start
// gets them as one slice of their exact length.
func (rp *replayer) flush() {
	if len(rp.run) == 0 {
		return
	}
	if fv := rp.fv; len(fv.recs) == 0 {
		fv.recs = append(make([]*catalog.PutRec, 0, len(rp.run)), rp.run...)
	} else {
		fv.recs = append(fv.recs, rp.run...)
	}
	clear(rp.run)
	rp.run = rp.run[:0]
}

// shard is shardFor of a key the replay holds as bytes.
func (rp *replayer) shard(key []byte) *entryShard {
	return &rp.s.shards[maphash.Bytes(rp.s.seed, key)&(shardCount-1)]
}

// adopt turns the replayed index into a served one: for every history, walk
// the delta chain oldest-first — one hash list, advanced in place — and take
// one blob reference per chunk slot (and tail) of each version, which turns
// the blobs the chunk store adopted as dead back into held content with zero
// device transfer. The first version referencing a blob the store does not
// hold gives back what it took and ends its history — it and everything after
// it are dropped (later deltas chain through it, and blobs only vanish through
// corruption or manual deletion, so the safe prefix is what remains).
// repaired reports whether any history was trimmed (the caller then persists
// the repair via a catalog checkpoint).
func (s *Store) adopt() (repaired bool) {
	s.recov.OpenStats = s.cat.Stats()
	var full []slotRef // the walk's slot list, reused from history to history
	for i := range s.shards {
		sh := &s.shards[i]
		for k, fv := range sh.entries {
			if _, _, ok := splitKey(k); !ok {
				// Not a key this store ever writes; ignore rather than guess.
				delete(sh.entries, k)
				repaired = true
				continue
			}
			full = full[:0]
			keep := 0
			for _, rec := range fv.recs {
				// A chain that does not start at a checkpoint, or a delta that
				// grows the file by slots it does not fill, cannot be walked.
				if !rec.IsFull && (keep == 0 || rec.NChunks-len(full) > len(rec.Mods)) {
					break
				}
				full = advance(full, rec)
				if !s.refRec(full, rec) {
					break
				}
				keep++
			}
			if keep < len(fv.recs) {
				s.recov.DroppedVersions += len(fv.recs) - keep
				repaired = true
				fv.cut(keep)
			}
			if keep == 0 {
				delete(sh.entries, k)
				continue
			}
			// Not the walk's list: after a missing blob that one has already
			// advanced to the version that failed.
			fv.last = slotsAt(fv, keep-1)
			s.recov.Files++
			s.recov.Versions += keep
		}
	}
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
// for a fresh store).
func (s *Store) Recovery() RecoveryStats { return s.recov }

// GCNow sweeps dead disk chunks immediately, returning how many files were
// freed (tests and explicit maintenance).
func (s *Store) GCNow() int { return s.disk.Sweep() }

// Close sweeps dead disk chunks one final time, closes the durable catalog
// and the disk tier (sealing the active packfile and releasing the
// archive-dir lock), then removes the private directory of a store opened
// without one. The store must not be used afterwards. Idempotent.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		s.disk.Sweep()
		s.cat.Close()
		s.disk.Close()
		s.removePrivate()
	})
}

// Crash simulates the archive process dying for tests: no final sweep, no
// pack seal fsync — the directory is left exactly as the OS had it, and the
// single-owner lock is released so a successor store can open it (a real
// crash releases it too, via the lockfile's dead-pid check). A private
// directory goes, as at Close: nothing can open it again.
func (s *Store) Crash() {
	s.closeOnce.Do(func() {
		s.cat.Close()
		s.disk.Crash()
		s.removePrivate()
	})
}

// removePrivate removes the directory NewTiered made for a store opened
// without one.
func (s *Store) removePrivate() {
	if s.private != "" {
		os.RemoveAll(s.private)
	}
}

// Fsyncs reports the physical fdatasync calls the durable tier has issued:
// chunk/pack flushes (chunkdisk) and manifest-log flushes (catalog). Both
// are zero under FsyncPolicy none.
func (s *Store) Fsyncs() (chunk, cat int64) {
	return s.disk.Stats().Fsyncs, s.cat.Fsyncs()
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
		// Device transfer: only new blobs travel, and the version is not
		// indexed until they have — a crash mid-transfer loses it.
		s.sleep(int64(st.NewChunks))
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
		// Write the manifest through to the durable catalog before the
		// version becomes visible outside the shard lock. The blobs are
		// already on the device (written above), so a crash right here loses
		// only this version's index entry — its blobs are adopted as dead and
		// swept at the next open, and the close that carried the version
		// never returned: restart recovery re-archives it from the live file
		// (archiveBehind) or, after a cold start, walks cur_version down. An
		// unlogged version must not be served (it would silently vanish at
		// the next restart).
		if err := s.cat.AppendPut(rec); err != nil {
			sh.mu.Unlock()
			s.releaseRec(slots, rec)
			return PutStats{}, fmt.Errorf("archive: catalog: %w", err)
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
// checkpoint if one is due, the commit durability barrier and the counters.
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
	return nil
}

// compactCatalog checkpoints the catalog if its log has outgrown the
// threshold. A failure is counted, not returned: the log keeps growing and a
// later append retries.
func (s *Store) compactCatalog() {
	if s.cat.LogSize() > s.compactAt && s.compact(s.compactAt) != nil {
		s.compactFailures.Inc()
	}
}

// compact writes a catalog checkpoint from the index, histories in key order,
// if the log is longer than over bytes once every shard is locked (another
// caller may have checkpointed it meanwhile). Every index change happens under
// its shard lock with its catalog append, so with every shard held — in index
// order, before the catalog's lock — through the write, the snapshot lists
// exactly the records the log leaves standing at the sequence it covers.
func (s *Store) compact(over int64) error {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}()
	if s.cat.LogSize() <= over {
		return nil
	}
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].entries)
	}
	hists := make([]*fileVersions, 0, n)
	for i := range s.shards {
		for _, fv := range s.shards[i].entries {
			hists = append(hists, fv)
		}
	}
	slices.SortFunc(hists, func(a, b *fileVersions) int { return strings.Compare(a.key(), b.key()) })
	return s.cat.Compact(func(put func(*catalog.PutRec)) {
		for _, fv := range hists {
			for _, r := range fv.recs {
				put(r)
			}
		}
	})
}

// tombstoneBarrier is the commit barrier of a TruncateAfter or Drop
// tombstone: the round that makes it durable.
func (s *Store) tombstoneBarrier() error {
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
	if err != nil {
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
		if c == nil {
			// An absent slot holds its source's bytes: a source this store
			// holds names them, and anything else is read.
			if r, ok := s.sourceSlot(snap, i); ok && s.refSlot(r) {
				slots[i] = r
				st.SharedChunks++
				st.DedupedBytes += extent.ChunkSize
				continue
			}
			if c, err = snap.Load(i); err != nil {
				s.releaseSlots(slots[:i])
				return nil, nil, err
			}
		}
		h := c.Hash()
		wrote, err := s.disk.Put(h, c)
		if chunks[i] == nil {
			c.ReleaseChunk()
		}
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

// sourceSlot is the reference of snap's absent slot i when its source is a
// version this store holds.
func (s *Store) sourceSlot(snap *extent.Snapshot, i int) (slotRef, bool) {
	h, ok := snap.Source().(*Held)
	if !ok || h.st != s || i >= len(h.slots) {
		return slotRef{}, false
	}
	return h.slots[i], true
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

// hold takes one reference per blob of version idx of key under the shard
// lock, so a concurrent truncate/drop cannot free them. The version check
// catches a slot that was truncated and re-filled by a newer Put since the
// handle was obtained: the handle must error, never serve a different
// version's bytes.
func (s *Store) hold(k string, idx int, gen uint64, v Version) (Held, error) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	fv := sh.entries[k]
	if fv == nil || fv.gen != gen || idx >= len(fv.recs) || fv.recs[idx].Version != int64(v) {
		sh.mu.Unlock()
		return Held{}, fmt.Errorf("%w: version discarded", ErrNotFound)
	}
	return s.holdLocked(sh, fv, idx)
}

// holdLocked is hold once the version is found; it unlocks the shard. The
// newest version's slot list is fv.last, which is replaced and never written
// in place, so the hold aliases it; an older one's is materialized.
func (s *Store) holdLocked(sh *entryShard, fv *fileVersions, idx int) (Held, error) {
	rec := fv.recs[idx]
	slots := fv.last
	if idx != len(fv.recs)-1 {
		slots = slotsAt(fv, idx)
	}
	held := s.refRec(slots, rec)
	sh.mu.Unlock()
	if !held {
		// An indexed version holds a reference on every blob it lists.
		return Held{}, fmt.Errorf("archive: version %d of %q lists a blob that is not stored", rec.Version, rec.Key)
	}
	return Held{st: s, key: rec.Key, v: Version(rec.Version), slots: slots, rec: rec, refs: 1}, nil
}

// HoldNewest holds version v of a file if it is the newest archived one —
// the source the commit path hands the file system once v is archived from
// the file's capture. Metadata only, like Newest: no device round trip, no
// restore counted.
func (s *Store) HoldNewest(server, path string, v Version) (*Held, error) {
	sh, fv := s.lockHistory(server, path)
	if fv == nil || fv.newest() != v {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %s v%d is not the newest version", ErrNotFound, path, v)
	}
	h, err := s.holdLocked(sh, fv, len(fv.recs)-1)
	if err != nil {
		return nil, err
	}
	return &h, nil
}

// Load materializes the held version as a caller-owned snapshot, reading
// every slot and the tail from disk without any entry lock. An unpatched
// slot keeps its base's hash; a patched one is hashed only if asked. The
// caller must Release the snapshot. Load may be called again after an error.
func (h *Held) Load() (snap *extent.Snapshot, err error) {
	if err := h.live(); err != nil {
		return nil, err
	}
	chunks := make([]*extent.Chunk, 0, len(h.slots))
	defer func() {
		if err != nil {
			for _, c := range chunks {
				c.ReleaseChunk()
			}
		}
	}()
	for i := range h.slots {
		var known *extent.Hash
		if len(h.slots[i].patches) == 0 {
			known = &h.slots[i].base
		}
		var c *extent.Chunk
		if c, err = extent.LoadChunk(h, i, known); err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
	}
	tail := make([]byte, h.rec.TailLen)
	if err = h.ReadTail(tail); err != nil {
		return nil, err
	}
	return extent.BuildSnapshot(chunks, tail), nil
}

// readSlot reads a slot into dst (ChunkSize bytes): its base, then each
// patch over it in order — every blob verified against its hash as it comes
// off the device. No patch costs an allocation.
func (s *Store) readSlot(r slotRef, dst []byte) error {
	n, err := s.disk.ReadInto(r.base, dst)
	if err != nil {
		return err
	}
	if n != extent.ChunkSize {
		return fmt.Errorf("base %x is %d bytes, not a chunk", r.base[:8], n)
	}
	for _, p := range r.patches {
		if _, err := s.disk.ReadInto(p.Hash, dst[p.Off:]); err != nil {
			return fmt.Errorf("patch at %d: %w", p.Off, err)
		}
	}
	return nil
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

// Newest reports the identity of a file's newest archived version; with
// nothing archived, ok is false and the ID's Version is -1. Metadata only:
// unlike Latest it neither pays the device round trip nor counts as a
// restore.
func (s *Store) Newest(server, path string) (id VersionID, ok bool) {
	sh, fv := s.lockHistory(server, path)
	defer sh.mu.Unlock()
	if fv == nil {
		return VersionID{Version: -1}, false
	}
	return idOf(fv.recs[len(fv.recs)-1]), true
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
	if err := s.cat.AppendTruncate(k, cut); err != nil {
		sh.mu.Unlock()
		return fmt.Errorf("archive: catalog: %w", err)
	}
	// Materialize the dropped versions' hash lists before mutating the
	// chain (their checkpoints may themselves be dropped).
	drops := make([]dropped, 0, len(fv.recs)-cut)
	for i := cut; i < len(fv.recs); i++ {
		drops = append(drops, dropped{slots: slotsAt(fv, i), rec: fv.recs[i]})
	}
	fv.cut(cut)
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
	if err := s.cat.AppendDrop(k); err != nil {
		sh.mu.Unlock()
		return fmt.Errorf("archive: catalog: %w", err)
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

// Dedup reports the chunk-dedup counters. The deduplicated content lives in
// Tier().DiskBytes.
func (s *Store) Dedup() DedupStats {
	return DedupStats{
		LogicalBytes: s.logicalBytes.Load(),
		NewBytes:     s.newBytes.Load(),
		DedupedBytes: s.dedupedBytes.Load(),
		SharedChunks: s.sharedChunks.Load(),
	}
}

// Tier reports the durable-tier counters (spill, page-in, GC).
func (s *Store) Tier() chunkdisk.Stats { return s.disk.Stats() }

// TierDir reports the on-disk store root: TierConfig.Dir, or the private
// directory of a store opened without one.
func (s *Store) TierDir() string { return s.disk.Dir() }
