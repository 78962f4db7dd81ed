// Package catalog is the durable metadata plane of the tiered archive: an
// append-only, checksummed manifest log plus periodic snapshot checkpoints
// that persist every archived version's delta manifest (key, version, state
// id, changed-slot list, chunk hashes, tail hash) alongside the chunkdisk
// blob directory. With it, the chunk directory is self-describing: a
// restarted process replays snapshot+log and can serve the full version
// history from cold storage with zero re-archiving.
//
// On-disk layout (all files live in the chunkdisk root, next to the ab/cdef
// blob fan-out, which only uses two-character subdirectories):
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
// snapshot already includes (and record application is idempotent besides).
//
// Under the default fsync policy appends are not synced record-by-record
// (matching the blob store, which also relies on the OS to flush), so a crash
// can leave a half-written final record; Open keeps the longest valid prefix
// and quarantines the rest. Only the records at risk are the ones after the
// last flush — earlier versions are never lost. Config.Fsync tightens the
// window: "always" flushes every append inline, "group" coalesces concurrent
// committers behind shared flushes at the Sync barrier (internal/fsyncer).
//
// The catalog keeps an in-memory shadow of the replayed state (delta-form
// records, so shadow memory is O(changed chunks) per version). The records
// are the archive's own: it adopts them at open through Range and hands
// AppendPut the very record it indexes, so one *PutRec describes a version in
// both places. Snapshots serialize the shadow.
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
	"sort"
	"sync"
	"time"

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

// DefaultCompactBytes triggers a snapshot checkpoint once the log grows past
// this size (the archive can override via its tier config).
const DefaultCompactBytes = 4 << 20

// Record kinds.
const (
	kindPut      = 1 // a version archived
	kindTruncate = 2 // point-in-time truncate: keep only the first N versions
	kindDrop     = 3 // whole history discarded (unlink)
)

// Mod is one changed slot of a delta manifest.
type Mod struct {
	Idx  int32
	Hash extent.Hash
}

// PutRec is the manifest of one archived version, durable and in memory: the
// shadow and the archive's index hold the same *PutRec. A record — its
// Full/Mods slices included — is frozen once appended or replayed. The
// records of an open are carved from shared blocks (see arena), so a block
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
	Full           []extent.Hash // every chunk hash, checkpoint only
	Mods           []Mod         // changed slots, delta only
}

// OpenStats reports what Open found and recovered.
type OpenStats struct {
	SnapshotRecords int   // records loaded from catalog.snap
	LogRecords      int   // records applied from catalog.log
	StaleSkipped    int   // log records already covered by the snapshot
	TornBytes       int64 // invalid log suffix quarantined to catalog.torn
	Keys            int   // distinct histories after replay
	Versions        int   // total versions after replay
}

// history is the shadow state of one key. key is the one string every
// record of the history (and the files map) shares.
type history struct {
	key  string
	puts []*PutRec
}

// arena carves the records a replay decodes out of shared blocks instead of
// one heap object per record, hash list and delta. It is a plain value:
// copying it before a decode and assigning the copy back un-claims whatever
// the decode took.
type arena struct {
	recs   []PutRec
	hashes []extent.Hash
	mods   []Mod
}

// Block sizes: a few hundred records (~40 KiB) and their hashes and deltas
// (~16 KiB each) per allocation.
const (
	recBlock  = 256
	hashBlock = 512
	modBlock  = 512
)

// carve hands out the next n elements of *block, starting a fresh block of
// blockLen when it runs short. The slice is capped at its own length, so an
// append to it can never write into its neighbour; a list longer than a
// quarter block gets an allocation of its own rather than stranding the rest
// of one.
func carve[T any](block *[]T, n, blockLen int) []T {
	if n > len(*block) {
		if n > blockLen/4 {
			return make([]T, n)
		}
		*block = make([]T, blockLen)
	}
	out := (*block)[:n:n]
	*block = (*block)[n:]
	return out
}

// Config configures a catalog.
type Config struct {
	// CompactBytes checkpoints the log once it outgrows this size (<= 0:
	// DefaultCompactBytes).
	CompactBytes int64
	// Fsync selects the append durability policy (none | group | always).
	Fsync fsyncer.Policy
	// FsyncMaxDelay, under the group policy, is the leader's coalescing
	// window before flushing.
	FsyncMaxDelay time.Duration
	// Metrics, if set, mirrors catalog.fsyncs into a registry.
	Metrics *metrics.Registry
}

// Catalog is the durable version-metadata store. Safe for concurrent use.
type Catalog struct {
	dir       string
	compactAt int64

	sync *fsyncer.Syncer

	mu         sync.Mutex
	log        *os.File
	logBytes   int64
	seq        uint64
	files      map[string]*history
	arena      arena // replay's record blocks; Open drops it when done
	stats      OpenStats
	compactDue bool
	closed     bool
}

// ErrClosed rejects appends after Close.
var ErrClosed = errors.New("catalog: closed")

var errPutCorrupted = errors.New("catalog: put record corrupted")

// Open replays the catalog in dir (snapshot, then log), quarantining any torn
// log tail, and returns it ready for appends.
func Open(dir string, cfg Config) (*Catalog, error) {
	compactAt := cfg.CompactBytes
	if compactAt <= 0 {
		compactAt = DefaultCompactBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	// A crash mid-snapshot strands the temp file; the renamed snapshot (or
	// its absence) is the truth.
	os.Remove(filepath.Join(dir, snapName+seglog.TmpSuffix))

	c := &Catalog{dir: dir, compactAt: compactAt, files: make(map[string]*history)}
	snapSeq, err := c.loadSnapshot()
	if err != nil {
		return nil, err
	}
	c.seq = snapSeq
	if err := c.loadLog(snapSeq, cfg.Fsync != fsyncer.PolicyNone); err != nil {
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
	c.sync = fsyncer.New(cfg.Fsync, cfg.FsyncMaxDelay, f.Sync, onSync)
	c.arena = arena{} // replay is over: appended records are the caller's
	for _, h := range c.files {
		c.stats.Versions += len(h.puts)
	}
	c.stats.Keys = len(c.files)
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
func (c *Catalog) loadSnapshot() (uint64, error) {
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
		if applyErr = c.apply(payload); applyErr != nil {
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
func (c *Catalog) loadLog(snapSeq uint64, syncing bool) error {
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
		seq, perr := c.applySeq(payload, snapSeq)
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
func (c *Catalog) applySeq(payload []byte, snapSeq uint64) (uint64, error) {
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
	if err := c.apply(payload); err != nil {
		return 0, err
	}
	c.stats.LogRecords++
	return seq, nil
}

// apply decodes one payload and updates the shadow. Every payload — snapshot
// body (sequence zero) or log — starts with its sequence varint. Application
// is idempotent: a put whose version is not newer than the key's newest is
// skipped, truncates and drops of absent state are no-ops.
func (c *Catalog) apply(payload []byte) error {
	d := decoder{buf: payload}
	d.uvarint() // sequence; ordering already handled by the caller
	kind := d.byte()
	key := d.bytes(d.uvarint())
	switch kind {
	case kindPut:
		h := c.files[string(key)] // no allocation: the history interns its key
		claimed := c.arena
		r, err := decodePut(&d, &c.arena)
		if err != nil {
			c.arena = claimed
			return err
		}
		if h == nil {
			h = &history{key: string(key)}
			c.files[h.key] = h
		} else if n := len(h.puts); n > 0 && h.puts[n-1].Version >= r.Version {
			c.arena = claimed // replayed duplicate
			return nil
		}
		r.Key = h.key
		h.puts = append(h.puts, r)
	case kindTruncate:
		keep := int(d.uvarint())
		if d.err != nil || d.rest() != 0 {
			return fmt.Errorf("catalog: truncate record corrupted")
		}
		c.trimLocked(string(key), keep)
	case kindDrop:
		if d.err != nil || d.rest() != 0 {
			return fmt.Errorf("catalog: drop record corrupted")
		}
		delete(c.files, string(key))
	default:
		if d.err != nil {
			return d.err
		}
		return fmt.Errorf("catalog: unknown record kind %d", kind)
	}
	return nil
}

// decodePut reads the fields of a put record after its key into a record
// from a. Nothing is sized by a count before the bytes that remain have been
// checked to hold that many entries, and a record whose parts contradict one
// another — a checkpoint that does not list every chunk, a delta naming a
// slot the version does not have — is refused here rather than met later as
// an index out of range.
func decodePut(d *decoder, a *arena) (*PutRec, error) {
	r := &carve(&a.recs, 1, recBlock)[0]
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
			r.Full = carve(&a.hashes, int(n), hashBlock)
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
			r.Mods = carve(&a.mods, int(n), modBlock)
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
	if d.err != nil || d.rest() != 0 {
		return nil, errPutCorrupted
	}
	r.NChunks, r.TailLen = int(nchunks), int(tailLen)
	return r, nil
}

// Stats reports what Open recovered.
func (c *Catalog) Stats() OpenStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// LogSize reports the current log length in bytes (tests, compaction
// diagnostics).
func (c *Catalog) LogSize() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.logBytes
}

// Range hands fn every history of the shadow — the key and its versions in
// order, the shadow's own records and slice, not copies — in no particular
// order, and cuts the history to the first keep versions fn returns WITHOUT
// logging a record: the archive's replay adopts the records through it,
// discards versions whose blobs are missing from the chunk store, and then
// persists the repaired state via Compact. The catalog is locked throughout;
// fn must not call back into it.
func (c *Catalog) Range(fn func(key string, puts []*PutRec) (keep int)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, h := range c.files {
		if keep := fn(k, h.puts); keep < len(h.puts) {
			c.trimLocked(k, keep)
		}
	}
}

// History returns the key's versions in order. The returned records are the
// shadow's own (shared with future snapshots): callers must not mutate them,
// and the slice is a copy so later appends/trims don't race the caller.
func (c *Catalog) History(key string) []*PutRec {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.files[key]
	if h == nil {
		return nil
	}
	return append([]*PutRec(nil), h.puts...)
}

// AppendPut logs one archived version and updates the shadow. The record's
// slices are retained (not copied) — the caller must treat them as frozen.
func (c *Catalog) AppendPut(r *PutRec) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.seq++
	if err := c.appendLocked(framePut(make([]byte, 0, maxFrameLen(r)), c.seq, r)); err != nil {
		c.seq--
		return err
	}
	h := c.files[r.Key]
	if h == nil {
		h = &history{key: r.Key}
		c.files[r.Key] = h
	}
	h.puts = append(h.puts, r)
	c.markCompactLocked()
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
	c.trimLocked(key, keep)
	c.markCompactLocked()
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
	delete(c.files, key)
	c.markCompactLocked()
	return nil
}

// trimLocked cuts a key's shadow history to its first keep versions.
func (c *Catalog) trimLocked(key string, keep int) {
	if h := c.files[key]; h != nil && keep < len(h.puts) {
		clear(h.puts[keep:]) // the cut records must not stay reachable from the slice's spare capacity
		h.puts = h.puts[:keep]
		if keep == 0 {
			delete(c.files, key)
		}
	}
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

// markCompactLocked flags the log as due for a checkpoint once it outgrows
// the threshold. The append itself never fails on compaction grounds — the
// record is already durable in the log at this point, so a snapshot problem
// must not make the caller unwind state the catalog keeps. The actual
// checkpoint runs in CompactIfDue, which the archive calls OUTSIDE its entry
// shard locks so a large snapshot write never stalls reads of the shard.
func (c *Catalog) markCompactLocked() {
	if c.logBytes > c.compactAt {
		c.compactDue = true
	}
}

// CompactIfDue checkpoints if an append pushed the log past the threshold.
// Best-effort by design: on failure the log simply keeps growing and the next
// append re-arms the flag (the durable state stays consistent — the snapshot
// is only renamed into place when complete, and the log is only truncated
// after that).
func (c *Catalog) CompactIfDue() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || !c.compactDue {
		return nil
	}
	c.compactDue = false
	if err := c.compactLocked(); err != nil {
		c.compactDue = true
		return err
	}
	return nil
}

// Compact writes a snapshot of the shadow and truncates the log. The archive
// calls it after replay (so the next open starts from a clean checkpoint) and
// it runs automatically when the log outgrows the compaction threshold.
func (c *Catalog) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.compactLocked()
}

func (c *Catalog) compactLocked() error {
	var hdr [16]byte
	copy(hdr[:8], snapMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], c.seq)
	size := len(hdr)
	keys := make([]string, 0, len(c.files))
	for k, h := range c.files {
		keys = append(keys, k)
		for _, r := range h.puts {
			size += maxFrameLen(r)
		}
	}
	sort.Strings(keys)
	// The records are framed in place, one buffer for the whole snapshot.
	buf := append(make([]byte, 0, size), hdr[:]...)
	for _, k := range keys {
		for _, r := range c.files[k].puts {
			buf = framePut(buf, 0, r) // snapshot records carry sequence 0
		}
	}
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
	return 128 + len(r.Key) + hashLen*len(r.Full) + (binary.MaxVarintLen32+hashLen)*len(r.Mods)
}

// framePut appends r's put record to dst as one frame, encoded in place.
func framePut(dst []byte, seq uint64, r *PutRec) []byte {
	start := len(dst)
	dst = appendPut(seglog.BeginFrame(dst), seq, r)
	seglog.EndFrame(dst, start)
	return dst
}

func appendPut(buf []byte, seq uint64, r *PutRec) []byte {
	buf = binary.AppendUvarint(buf, seq)
	buf = append(buf, kindPut)
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
