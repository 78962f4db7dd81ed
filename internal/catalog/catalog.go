// Package catalog is the durable metadata plane of the tiered archive: an
// append-only, checksummed manifest log plus periodic snapshot checkpoints
// that persist every archived version's delta manifest (key, version, state
// id, changed-slot list, base chunk hashes, patch lists, tail hash) alongside
// the chunkdisk blob directory. With it, the chunk directory is
// self-describing: a restarted process replays snapshot+log and can serve the
// full version history from cold storage with zero re-archiving.
//
// On-disk layout (all files live in the chunkdisk root, next to its
// pack-<seq>.pk packfiles):
//
//	catalog.snap      last snapshot checkpoint (seglog atomic replace)
//	catalog.log       records appended since the snapshot
//	catalog.torn      quarantined torn tails of the log (crash evidence)
//
// The log and the snapshot body are streams of seglog frames (framing,
// torn-tail repair and the atomic replace live in internal/seglog), and every
// payload starts with a monotonic sequence number. The snapshot header
// carries the sequence it covers, so a crash between "rename snapshot" and
// "truncate log" is harmless: replay skips log records whose sequence the
// snapshot already includes (and the receiver applies records idempotently
// besides).
//
// Under the default fsync policy appends are not synced record-by-record
// (matching the blob store, which also relies on the OS to flush), so a crash
// can leave a half-written final record; Open keeps the longest valid prefix
// and quarantines the rest. Only the records at risk are the ones after the
// last flush — earlier versions are never lost. Config.Fsync tightens the
// window: "always" flushes every append inline, "group" coalesces concurrent
// committers behind shared flushes at the Sync barrier (internal/fsyncer).
//
// The catalog is a log and nothing more: it keeps no index of its own. Open
// hands every record it replays to the Config's Receiver (the archive's
// version index), AppendPut logs the very record the caller indexes, and
// Compact writes a snapshot of the records the caller lists. When the log is
// due for a checkpoint is the caller's decision too (LogSize).
//
// A catalog (like the chunkdisk directory it lives in) has a single owner
// process at a time; two stores over one directory corrupt each other.
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"datalinks/internal/extent"
	"datalinks/internal/fsyncer"
	"datalinks/internal/metrics"
	"datalinks/internal/seglog"
)

// File names within the store directory.
const (
	logName  = "catalog.log"
	snapName = "catalog.snap"
	tornName = "catalog.torn"
)

// snapMagic identifies a snapshot file (8 bytes: format name + version).
var snapMagic = [8]byte{'D', 'L', 'C', 'A', 'T', 'S', 'N', '1'}

// Record kinds.
const (
	kindPut      = 1 // a version archived
	kindTruncate = 2 // point-in-time truncate: keep only the first N versions
	kindDrop     = 3 // whole history discarded (unlink)
	// kindPutPatched is the put record's second version: a kindPut body
	// followed by the version's patch list. It is written only for a version
	// that has patches, so every other record keeps the first version's bytes.
	kindPutPatched = 4
)

// Mod is one changed slot of a delta manifest: its base chunk's hash.
type Mod struct {
	Idx  int32
	Hash extent.Hash
}

// Patch is one sub-chunk edit of a slot: bytes stored as a blob of their own
// (Hash) that land at byte Off of slot Idx's base chunk. A slot's reference
// is its base hash plus its patches, applied in the order the record lists
// them.
type Patch struct {
	Idx  int32
	Off  int32
	Hash extent.Hash
}

// PutRec is the manifest of one archived version, durable and in memory: the
// archive's index holds the record the catalog logs. A record — its
// Full/Mods/Patches slices included — is frozen once appended or replayed.
// Records are carved from shared blocks (see Arena), so a block
// stays reachable while any record in it does: Truncate and Drop unlink
// records, the memory follows when a block's last record goes.
type PutRec struct {
	Key            string // server "\x00" path
	Version        int64
	StateID        uint64
	Size           int64
	StoredUnixNano int64
	NChunks        int
	TailLen        int
	TailHash       extent.Hash   // meaningful when TailLen > 0
	IsFull         bool          // checkpoint manifest (Full) vs delta (Mods)
	Full           []extent.Hash // every slot's base hash, checkpoint only
	Mods           []Mod         // changed slots, delta only
	// Patches lists, grouped by slot in ascending Idx, the whole patch list
	// of every slot that has one — every such slot of a checkpoint, and of a
	// delta only the changed slots (a slot a delta does not list keeps its
	// predecessor's base and patches).
	Patches []Patch
}

// OpenStats reports what Open found and recovered.
type OpenStats struct {
	SnapshotRecords int   // records loaded from catalog.snap
	LogRecords      int   // records applied from catalog.log
	StaleSkipped    int   // log records already covered by the snapshot
	TornBytes       int64 // invalid log suffix quarantined to catalog.torn
}

// Receiver is what Open hands the records it replays to, in the order they
// were logged: the snapshot's, then the log's past it. key is a view of the
// payload, valid only during the call. A put's record comes without its Key:
// the receiver sets it, and may give every record of a history one string.
type Receiver interface {
	// Put offers a replayed version. It reports false when the receiver does
	// not keep it — a put not newer than its history's newest — and the
	// catalog reuses the record's memory.
	Put(key []byte, r *PutRec) (kept bool)
	// Truncate keeps only the first keep versions of key's history.
	Truncate(key []byte, keep int)
	// Drop discards key's whole history.
	Drop(key []byte)
}

// Arena carves records and their lists out of shared blocks instead of one
// heap object per record, hash list, delta and patch list: a replay decodes
// into one, and the archive builds the records it appends from one per shard.
// A block stays reachable while any record carved from it does. It is a plain
// value: a copy taken before a decode marks where unclaim gives back to. Not
// safe for concurrent use.
type Arena struct {
	recs    pool[PutRec]
	hashes  pool[extent.Hash]
	mods    pool[Mod]
	patches pool[Patch]
}

// Rec carves one zeroed record.
func (a *Arena) Rec() *PutRec { return &a.recs.carve(1, recBlock)[0] }

// Hashes carves a hash list of n.
func (a *Arena) Hashes(n int) []extent.Hash { return a.hashes.carve(n, hashBlock) }

// Mods carves a delta of n slots.
func (a *Arena) Mods(n int) []Mod { return a.mods.carve(n, modBlock) }

// Patches carves a patch list of n.
func (a *Arena) Patches(n int) []Patch { return a.patches.carve(n, patchBlock) }

// unclaim gives back everything carved since the arena was mark, a copy of
// it: what a refused or unkept decode took is carved again by the next one.
func (a *Arena) unclaim(mark Arena) {
	a.recs.unclaim(mark.recs)
	a.hashes.unclaim(mark.hashes)
	a.mods.unclaim(mark.mods)
	a.patches.unclaim(mark.patches)
}

// Block sizes, at most: a few hundred records (~40 KiB) and their hashes and
// deltas (~16 KiB each) per allocation.
const (
	recBlock   = 256
	hashBlock  = 512
	modBlock   = 512
	patchBlock = 512
)

// pool is one kind of element an Arena carves: its current block and the
// unclaimed rest of it. Blocks double from a small one up to the kind's
// maximum, so an arena that carves a handful of records costs a handful, and
// one that carves thousands, a few blocks.
type pool[T any] struct {
	block []T
	free  []T
}

// carve hands out the next n elements, starting a fresh block when the
// current one runs short. The slice is capped at its own length, so an
// append to it can never write into its neighbour; a list longer than a
// quarter of the largest block gets an allocation of its own rather than
// stranding the rest of one. An empty list is nil, as a decoded one is,
// whatever block is current.
func (p *pool[T]) carve(n, maxBlock int) []T {
	if n == 0 {
		return nil
	}
	if n > len(p.free) {
		if n > maxBlock/4 {
			return make([]T, n)
		}
		p.block = make([]T, min(max(2*len(p.block), 16, n), maxBlock))
		p.free = p.block
	}
	out := p.free[:n:n]
	p.free = p.free[n:]
	return out
}

// unclaim rewinds the pool to mark, except that a block started since is
// kept, whole: nothing carved from it was claimed before the mark.
func (p *pool[T]) unclaim(mark pool[T]) {
	if len(p.block) > 0 && (len(mark.block) == 0 || &p.block[0] != &mark.block[0]) {
		p.free = p.block
		return
	}
	*p = mark
}

// Config configures a catalog.
type Config struct {
	// Receiver, if set, is handed every record Open replays. Without one, Open
	// only checks and counts the records.
	Receiver Receiver
	// Fsync selects the append durability policy (none | group | always).
	Fsync fsyncer.Policy
	// Metrics, if set, mirrors catalog.fsyncs into a registry.
	Metrics *metrics.Registry
}

// Catalog is the durable version-metadata store. Safe for concurrent use.
type Catalog struct {
	dir string

	sync *fsyncer.Syncer

	mu       sync.Mutex
	log      *os.File
	frame    []byte // AppendPut's frame buffer, reused under mu
	logBytes int64
	seq      uint64
	stats    OpenStats
	closed   bool
}

// ErrClosed rejects appends after Close.
var ErrClosed = errors.New("catalog: closed")

var errPutCorrupted = errors.New("catalog: put record corrupted")

// Open replays the catalog in dir (snapshot, then log) into cfg.Receiver,
// quarantining any torn log tail, and returns it ready for appends.
func Open(dir string, cfg Config) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	// A crash mid-snapshot strands the temp file; the renamed snapshot (or
	// its absence) is the truth.
	os.Remove(filepath.Join(dir, snapName+seglog.TmpSuffix))

	c := &Catalog{dir: dir}
	rp := replay{to: cfg.Receiver}
	snapSeq, err := c.loadSnapshot(&rp)
	if err != nil {
		return nil, err
	}
	c.seq = snapSeq
	if err := c.loadLog(&rp, snapSeq, cfg.Fsync != fsyncer.PolicyNone); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(c.path(logName), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if _, err := f.Seek(c.logBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("catalog: %w", err)
	}
	c.log = f
	// The log handle is stable for the catalog's lifetime (compaction
	// truncates it in place), so the flush callback can hold it directly.
	var onSync func()
	if cfg.Metrics != nil {
		ctr := cfg.Metrics.Counter("catalog.fsyncs")
		onSync = ctr.Inc
	}
	c.sync = fsyncer.New(cfg.Fsync, 0, f.Sync, onSync)
	return c, nil
}

// Sync is the commit durability barrier: under the group policy it returns
// after a (possibly shared) fdatasync covering every append that completed
// before the call. Call it OUTSIDE locks that appenders need.
func (c *Catalog) Sync() error {
	return c.sync.Barrier()
}

// SyncRound is Sync, additionally reporting the group-commit round that made
// the caller's appends durable (0 under none/always). Traces use it.
func (c *Catalog) SyncRound() (uint64, error) {
	return c.sync.BarrierRound()
}

// Fsyncs reports the physical flushes issued so far.
func (c *Catalog) Fsyncs() int64 {
	return c.sync.Count()
}

func (c *Catalog) path(name string) string { return filepath.Join(c.dir, name) }

// loadSnapshot applies the snapshot checkpoint, returning the sequence it
// covers (0 when there is none). The body is read through the same sliding
// window as the log, never held whole. A snapshot is written atomically, so
// a body that stops framing, checksumming or decoding before the file ends
// is real corruption and fails the open — never a torn tail to quarantine.
func (c *Catalog) loadSnapshot(rp *replay) (uint64, error) {
	f, err := os.Open(c.path(snapName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("catalog: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("catalog: %w", err)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || [8]byte(hdr[:8]) != snapMagic {
		return 0, fmt.Errorf("catalog: snapshot header corrupted")
	}
	body := info.Size() - int64(len(hdr))
	var sc seglog.Scanner
	var applyErr error
	valid, err := sc.ScanFrames(io.NewSectionReader(f, int64(len(hdr)), body), body, func(payload []byte) bool {
		if applyErr = rp.apply(payload); applyErr != nil {
			return false
		}
		c.stats.SnapshotRecords++
		return true
	})
	switch {
	case err != nil:
		return 0, fmt.Errorf("catalog: %w", err)
	case applyErr != nil:
		return 0, fmt.Errorf("catalog: snapshot: %w", applyErr)
	case valid != body:
		return 0, fmt.Errorf("catalog: snapshot body corrupted")
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), nil
}

// loadLog applies log records with sequence > snapSeq, recovering the longest
// valid prefix: the first framing/checksum/decode failure ends the scan and
// the invalid suffix is quarantined to catalog.torn.
func (c *Catalog) loadLog(rp *replay, snapSeq uint64, syncing bool) error {
	f, err := os.Open(c.path(logName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	// The log is read through one sliding window, never held whole: between
	// checkpoints it is as long as its history.
	var sc seglog.Scanner
	valid, err := sc.ScanFrames(f, info.Size(), func(payload []byte) bool {
		// A record that frames and checksums but does not decode is as torn
		// as a bad checksum: quarantine from here.
		seq, perr := c.applySeq(rp, payload, snapSeq)
		if perr != nil {
			return false
		}
		if seq > c.seq {
			c.seq = seq
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if torn := info.Size() - valid; torn > 0 {
		if err := seglog.RepairTail(c.path(logName), valid, c.path(tornName), syncing); err != nil {
			return fmt.Errorf("catalog: %w", err)
		}
		c.stats.TornBytes = torn
	}
	c.logBytes = valid
	return nil
}

// applySeq decodes the payload's sequence and applies the record unless the
// snapshot already covers it, returning the sequence.
func (c *Catalog) applySeq(rp *replay, payload []byte, snapSeq uint64) (uint64, error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, fmt.Errorf("catalog: bad record sequence")
	}
	if seq <= snapSeq {
		// Already in the snapshot: a crash hit between snapshot rename and
		// log truncation.
		c.stats.StaleSkipped++
		return seq, nil
	}
	if err := rp.apply(payload); err != nil {
		return 0, err
	}
	c.stats.LogRecords++
	return seq, nil
}

// replay is one Open's decoding state: the receiver the records go to, and
// the arena they are decoded into.
type replay struct {
	to    Receiver
	arena Arena
}

// apply decodes one payload and hands it to the receiver. Every payload —
// snapshot body (sequence zero) or log — starts with its sequence varint. A
// record the receiver does not keep, or every record when there is no
// receiver, gives its memory back to the arena.
func (rp *replay) apply(payload []byte) error {
	d := decoder{buf: payload}
	d.uvarint() // sequence; ordering already handled by the caller
	kind := d.byte()
	key := d.bytes(d.uvarint())
	switch kind {
	case kindPut, kindPutPatched:
		mark := rp.arena
		r, err := decodePut(&d, &rp.arena, kind == kindPutPatched)
		if err != nil || rp.to == nil || !rp.to.Put(key, r) {
			rp.arena.unclaim(mark)
		}
		return err
	case kindTruncate:
		keep := int(d.uvarint())
		if d.err != nil || d.rest() != 0 {
			return fmt.Errorf("catalog: truncate record corrupted")
		}
		if rp.to != nil {
			rp.to.Truncate(key, keep)
		}
	case kindDrop:
		if d.err != nil || d.rest() != 0 {
			return fmt.Errorf("catalog: drop record corrupted")
		}
		if rp.to != nil {
			rp.to.Drop(key)
		}
	default:
		if d.err != nil {
			return d.err
		}
		return fmt.Errorf("catalog: unknown record kind %d", kind)
	}
	return nil
}

// decodePut reads the fields of a put record after its key into a record
// from a; patched is the second record version, which ends in a patch list.
// Nothing is sized by a count before the bytes that remain have been checked
// to hold that many entries, and a record whose parts contradict one another
// — a checkpoint that does not list every chunk, a delta naming a slot the
// version does not have, a patch of a slot the delta leaves unchanged — is
// refused here rather than met later as an index out of range.
func decodePut(d *decoder, a *Arena, patched bool) (*PutRec, error) {
	r := a.Rec()
	*r = PutRec{
		Version:        int64(d.uvarint()),
		StateID:        d.uvarint(),
		Size:           d.varint(),
		StoredUnixNano: d.varint(),
	}
	nchunks, tailLen := d.uvarint(), d.uvarint()
	if tailLen > 0 {
		copy(r.TailHash[:], d.bytes(uint64(len(r.TailHash))))
	}
	form := d.byte()
	n := d.uvarint()
	const hashLen = uint64(len(extent.Hash{}))
	if d.err != nil || form > 1 || nchunks > math.MaxInt32 || tailLen > math.MaxInt32 {
		return nil, errPutCorrupted
	}
	r.IsFull = form == 1
	if r.IsFull {
		if n != nchunks || n > uint64(d.rest())/hashLen {
			return nil, errPutCorrupted
		}
		if n > 0 {
			r.Full = a.Hashes(int(n))
		}
		for i := range r.Full {
			copy(r.Full[i][:], d.bytes(hashLen))
		}
	} else {
		// A delta slot is an index varint and a hash.
		if n > uint64(d.rest())/(hashLen+1) {
			return nil, errPutCorrupted
		}
		if n > 0 {
			r.Mods = a.Mods(int(n))
		}
		for i := range r.Mods {
			idx := d.uvarint()
			if idx >= nchunks {
				return nil, errPutCorrupted
			}
			r.Mods[i].Idx = int32(idx)
			copy(r.Mods[i].Hash[:], d.bytes(hashLen))
		}
	}
	if patched && !decodePatches(d, a, r, nchunks) {
		return nil, errPutCorrupted
	}
	if d.err != nil || d.rest() != 0 {
		return nil, errPutCorrupted
	}
	r.NChunks, r.TailLen = int(nchunks), int(tailLen)
	return r, nil
}

// decodePatches reads a patched record's patch list into r: at least one
// patch (a record without any is a first-version put), grouped by ascending
// slot, each at an offset inside a chunk — and in a delta, whose changed
// slots must then be listed in ascending order, only of a changed slot.
func decodePatches(d *decoder, a *Arena, r *PutRec, nchunks uint64) bool {
	const hashLen = uint64(len(extent.Hash{}))
	n := d.uvarint()
	// A patch is a slot varint, an offset varint and a hash.
	if d.err != nil || n == 0 || n > uint64(d.rest())/(hashLen+2) {
		return false
	}
	for i := 1; i < len(r.Mods); i++ {
		if r.Mods[i].Idx <= r.Mods[i-1].Idx {
			return false
		}
	}
	r.Patches = a.Patches(int(n))
	mod := 0
	for i := range r.Patches {
		idx, off := d.uvarint(), d.uvarint()
		if idx >= nchunks || off >= extent.ChunkSize || (i > 0 && int32(idx) < r.Patches[i-1].Idx) {
			return false
		}
		if !r.IsFull {
			for mod < len(r.Mods) && r.Mods[mod].Idx < int32(idx) {
				mod++
			}
			if mod == len(r.Mods) || r.Mods[mod].Idx != int32(idx) {
				return false
			}
		}
		r.Patches[i].Idx, r.Patches[i].Off = int32(idx), int32(off)
		copy(r.Patches[i].Hash[:], d.bytes(hashLen))
	}
	return d.err == nil
}

// Stats reports what Open recovered.
func (c *Catalog) Stats() OpenStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// LogSize reports the current log length in bytes: the caller checkpoints
// with Compact once it has grown enough.
func (c *Catalog) LogSize() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logBytes
}

// AppendPut logs one archived version.
func (c *Catalog) AppendPut(r *PutRec) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.seq++
	c.frame = framePut(c.frame[:0], c.seq, r)
	if err := c.appendLocked(c.frame); err != nil {
		c.seq--
		return err
	}
	return nil
}

// AppendTruncate logs a point-in-time truncation: only the first keep
// versions of key survive.
func (c *Catalog) AppendTruncate(key string, keep int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.seq++
	payload := encodeKeyRecord(kindTruncate, c.seq, key, uint64(keep), true)
	if err := c.appendLocked(seglog.AppendFrame(nil, payload)); err != nil {
		c.seq--
		return err
	}
	return nil
}

// AppendDrop logs the discard of a key's whole history.
func (c *Catalog) AppendDrop(key string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.seq++
	payload := encodeKeyRecord(kindDrop, c.seq, key, 0, false)
	if err := c.appendLocked(seglog.AppendFrame(nil, payload)); err != nil {
		c.seq--
		return err
	}
	return nil
}

// appendLocked writes one framed record to the log. A partial write is
// rewound (truncate + re-seek) so the next append never lands after garbage;
// if even the rewind fails, replay's torn-tail quarantine covers it. Under
// the always policy the record is flushed before the append returns.
func (c *Catalog) appendLocked(buf []byte) error {
	if _, err := c.log.Write(buf); err != nil {
		_ = c.log.Truncate(c.logBytes)
		_, _ = c.log.Seek(c.logBytes, io.SeekStart)
		return fmt.Errorf("catalog: %w", err)
	}
	c.logBytes += int64(len(buf))
	if err := c.sync.AfterWrite(); err != nil {
		return fmt.Errorf("catalog: fsync: %w", err)
	}
	return nil
}

// Compact writes a snapshot of the records all lists and truncates the log.
// all must list, by put, exactly the records the log and the snapshot so far
// leave standing, in the order a replay is to hand them back; the caller
// keeps every append out until Compact returns, so the snapshot covers the
// sequence it is stamped with. all runs twice, under the catalog's lock: it
// must not call back into the catalog.
func (c *Catalog) Compact(all func(put func(*PutRec))) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	var hdr [16]byte
	copy(hdr[:8], snapMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], c.seq)
	size := len(hdr)
	all(func(r *PutRec) { size += maxFrameLen(r) })
	// The records are framed in place, one buffer for the whole snapshot.
	buf := append(make([]byte, 0, size), hdr[:]...)
	all(func(r *PutRec) { buf = framePut(buf, 0, r) }) // snapshot records carry sequence 0
	// Under policies that sync, the snapshot and its rename are made durable
	// before the log they replace is truncated.
	if _, err := seglog.ReplaceFile(c.path(snapName), buf, c.sync.Policy() != fsyncer.PolicyNone); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	// The snapshot covers every sequence up to c.seq; the log restarts empty.
	if err := c.log.Truncate(0); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if _, err := c.log.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	c.logBytes = 0
	return nil
}

// Close flushes nothing (appends are unbuffered) and closes the log handle.
// Further appends fail with ErrClosed.
func (c *Catalog) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.log.Close()
}

// --- encoding ---

// maxFrameLen bounds the framed length of r's put record: every varint at its
// longest.
func maxFrameLen(r *PutRec) int {
	const hashLen = len(extent.Hash{})
	return 128 + len(r.Key) + hashLen*len(r.Full) + (binary.MaxVarintLen32+hashLen)*len(r.Mods) +
		(2*binary.MaxVarintLen32+hashLen)*len(r.Patches)
}

// framePut appends r's put record to dst as one frame, encoded in place.
func framePut(dst []byte, seq uint64, r *PutRec) []byte {
	start := len(dst)
	dst = appendPut(seglog.BeginFrame(dst), seq, r)
	seglog.EndFrame(dst, start)
	return dst
}

func appendPut(buf []byte, seq uint64, r *PutRec) []byte {
	kind := byte(kindPut)
	if len(r.Patches) > 0 {
		kind = kindPutPatched
	}
	buf = binary.AppendUvarint(buf, seq)
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
	buf = append(buf, r.Key...)
	buf = binary.AppendUvarint(buf, uint64(r.Version))
	buf = binary.AppendUvarint(buf, r.StateID)
	buf = binary.AppendVarint(buf, r.Size)
	buf = binary.AppendVarint(buf, r.StoredUnixNano)
	buf = binary.AppendUvarint(buf, uint64(r.NChunks))
	buf = binary.AppendUvarint(buf, uint64(r.TailLen))
	if r.TailLen > 0 {
		buf = append(buf, r.TailHash[:]...)
	}
	if r.IsFull {
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(r.Full)))
		for i := range r.Full {
			buf = append(buf, r.Full[i][:]...)
		}
	} else {
		buf = append(buf, 0)
		buf = binary.AppendUvarint(buf, uint64(len(r.Mods)))
		for i := range r.Mods {
			buf = binary.AppendUvarint(buf, uint64(r.Mods[i].Idx))
			buf = append(buf, r.Mods[i].Hash[:]...)
		}
	}
	if len(r.Patches) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(r.Patches)))
		for i := range r.Patches {
			buf = binary.AppendUvarint(buf, uint64(r.Patches[i].Idx))
			buf = binary.AppendUvarint(buf, uint64(r.Patches[i].Off))
			buf = append(buf, r.Patches[i].Hash[:]...)
		}
	}
	return buf
}

func encodeKeyRecord(kind byte, seq uint64, key string, arg uint64, hasArg bool) []byte {
	buf := make([]byte, 0, 24+len(key))
	buf = binary.AppendUvarint(buf, seq)
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	if hasArg {
		buf = binary.AppendUvarint(buf, arg)
	}
	return buf
}

// decoder reads the primitives of a record payload, latching the first error.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("catalog: record truncated")
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	// A varint padded with a trailing zero byte decodes, but no encoder
	// writes it: refusing it keeps payload bytes and records one to one.
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// varint is binary.Varint's zig-zag over uvarint.
func (d *decoder) varint() int64 {
	ux := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// bytes returns the next n bytes as a view of the payload (nil, latching the
// error, when fewer remain).
func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)) < n {
		d.fail()
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// rest reports unconsumed payload bytes (a clean record ends at zero).
func (d *decoder) rest() int { return len(d.buf) }
