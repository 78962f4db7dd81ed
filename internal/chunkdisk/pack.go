package chunkdisk

// Packfile side of the store: blobs at or below Config.PackThreshold —
// version tails and single-chunk deltas, i.e. the overwhelming majority of
// blobs a small-edit commit storm produces — are APPENDED to shared,
// CRC-framed packfiles instead of costing one create+write+rename file cycle
// each. N small commits become one sequential append stream.
//
// Layout: pack-<seq>.pk files at the store root, next to the ab/cdef loose
// fan-out. A pack starts with an 8-byte magic and then holds self-framing
// records:
//
//	uint32 dataLen | uint32 logicalLen | uint32 CRC-32(lengths‖hash‖flags‖data)
//	| hash [32] | flags [1] | data [dataLen]
//
// flags bit0 marks flate-compressed data (logicalLen is the uncompressed
// length; the content hash always covers the uncompressed bytes, verified on
// page-in exactly like loose blobs). There is no separate index file: the
// in-memory index (shard onDisk maps pointing at pack/offset) is rebuilt by
// scanning the packs on open — every record's CRC verified, through one
// record-sized window shared by all packs (seglog.Scanner), so an open holds
// one record in memory, not the archive. A crash mid-append leaves a torn
// final record; open keeps the longest valid prefix and quarantines the rest
// to pack-<seq>.pk.torn (internal/seglog owns the scan-and-repair and the
// numbered-file naming). Appends copy nothing either: the 45 header bytes
// are built on the stack and the data goes to the file from where it lies.
//
// One pack is ACTIVE (receiving appends) at a time; at PackTargetBytes it is
// sealed (fsynced under policies that sync, then closed) and a new one
// starts. Sweep retires dead pack records in place — the index entry goes
// away, the bytes become dead space — and when a sealed pack's garbage ratio
// exceeds PackGarbageRatio its surviving records are rewritten into the
// active pack and the old file is unlinked (compaction). Readers and the
// compactor synchronize on relocMu: a page-in holds it shared across the
// read, compaction holds it exclusive only for the final retire-and-unlink,
// and re-reads the index entry after locking so a blob moved under it is
// found at its new address. Lock order is relocMu → shard mutex.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"

	"datalinks/internal/extent"
	"datalinks/internal/fsyncer"
	"datalinks/internal/seglog"
)

// Pack tuning defaults (Config overrides).
const (
	// DefaultPackThreshold packs blobs at or below this logical size — one
	// extent chunk, so every tail and every single-chunk delta batches.
	DefaultPackThreshold = 64 << 10
	// DefaultPackTargetBytes seals the active pack once it grows past this.
	DefaultPackTargetBytes = 4 << 20
	// DefaultPackGarbageRatio compacts a sealed pack once this fraction of
	// its payload bytes is dead.
	DefaultPackGarbageRatio = 0.5
)

// packMagic identifies a packfile (format name + version).
var packMagic = [8]byte{'D', 'L', 'P', 'A', 'C', 'K', '0', '1'}

const (
	packRecHdrLen = 4 + 4 + 4 // dataLen | logicalLen | crc
	packRecMeta   = 32 + 1    // hash | flags

	packFlagCompressed = 1
)

// packMeta is the bookkeeping for one packfile.
type packMeta struct {
	seq    int64
	path   string
	size   int64 // file length (header + frames)
	live   int64 // payload bytes of records the index still points at
	dead   int64 // payload bytes of retired records (compaction fuel)
	blobs  int64 // records the index still points at
	sealed bool  // no longer the append target
	// inflight counts records appended but not yet published in the index
	// (append takes it, published releases it). Compaction finds a pack's
	// survivors in the index, so it leaves a pack alone while this is non-zero.
	inflight int
}

// garbage reports the dead fraction of the pack's payload.
func (pm *packMeta) garbage() float64 {
	total := pm.live + pm.dead
	if total == 0 {
		return 0
	}
	return float64(pm.dead) / float64(total)
}

// packSet owns every packfile of one store.
type packSet struct {
	s      *Store
	files  seglog.Segments
	target int64
	ratio  float64

	// mu guards appends, sealing/rotation, and the packs map. The active
	// file handle is written only under it.
	mu       sync.Mutex
	active   *os.File
	activePM *packMeta
	packs    map[int64]*packMeta
	nextSeq  int64

	// relocMu orders pack reads against compaction's retire-and-unlink:
	// page-ins hold it shared for the duration of the file read, compaction
	// exclusive while unlinking a fully-evacuated pack. Lock order:
	// relocMu before any shard mutex.
	relocMu sync.RWMutex

	// compactMu serializes compactions (concurrent Sweep calls race the
	// trigger; only one evacuation may run).
	compactMu sync.Mutex
}

func newPackSet(s *Store, dir string, target int64, ratio float64) *packSet {
	if target <= 0 {
		target = DefaultPackTargetBytes
	}
	if ratio <= 0 || ratio >= 1 {
		ratio = DefaultPackGarbageRatio
	}
	files := seglog.Segments{Dir: dir, Prefix: "pack-", Suffix: ".pk", Width: 8}
	return &packSet{s: s, files: files, target: target, ratio: ratio, packs: make(map[int64]*packMeta), nextSeq: 1}
}

// recordCRC checksums everything in a frame except the CRC field itself
// (dataLen ‖ logicalLen ‖ hash ‖ flags ‖ data) — a corrupted length field
// must fail validation just like corrupted payload.
func recordCRC(frame []byte) uint32 {
	c := crc32.ChecksumIEEE(frame[0:8])
	return crc32.Update(c, crc32.IEEETable, frame[12:])
}

// recordHeader builds the bytes that precede a record's data on disk. The
// checksum is folded over the header and then over data where it lies: the
// record is never assembled in memory.
func recordHeader(h extent.Hash, data []byte, logical int64, compressed bool) (hdr [packRecHdrLen + packRecMeta]byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(logical))
	copy(hdr[12:44], h[:])
	if compressed {
		hdr[44] = packFlagCompressed
	}
	sum := crc32.Update(recordCRC(hdr[:]), crc32.IEEETable, data)
	binary.LittleEndian.PutUint32(hdr[8:12], sum)
	return hdr
}

// recordLen reads the length of the whole record off its header.
func recordLen(hdr []byte) int64 {
	return packRecHdrLen + packRecMeta + int64(binary.LittleEndian.Uint32(hdr[0:4]))
}

// parseRecord frames one record off buf. n is total bytes consumed.
func parseRecord(buf []byte) (h extent.Hash, data []byte, logical int64, compressed bool, n int, ok bool) {
	if len(buf) < packRecHdrLen+packRecMeta {
		return h, nil, 0, false, 0, false
	}
	dataLen := binary.LittleEndian.Uint32(buf[0:4])
	logical = int64(binary.LittleEndian.Uint32(buf[4:8]))
	sum := binary.LittleEndian.Uint32(buf[8:12])
	if dataLen > seglog.MaxRecordBytes || len(buf) < packRecHdrLen+packRecMeta+int(dataLen) {
		return h, nil, 0, false, 0, false
	}
	n = packRecHdrLen + packRecMeta + int(dataLen)
	if recordCRC(buf[:n]) != sum {
		return h, nil, 0, false, 0, false
	}
	copy(h[:], buf[12:44])
	compressed = buf[44]&packFlagCompressed != 0
	data = buf[packRecHdrLen+packRecMeta : n]
	return h, data, logical, compressed, n, true
}

// append writes one record to the active pack, creating or rotating packs as
// needed, and returns the pack it went to and the data's byte offset there.
// Under PolicyAlways the append is fsynced before returning. The pack comes
// back pinned against compaction: the caller publishes the record in the
// index and then calls published.
func (ps *packSet) append(h extent.Hash, data []byte, logical int64, compressed bool) (pm *packMeta, off int64, err error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.active == nil {
		if err := ps.openActiveLocked(); err != nil {
			return nil, 0, err
		}
	}
	pm = ps.activePM
	hdr := recordHeader(h, data, logical, compressed)
	off = pm.size + int64(len(hdr))
	_, werr := ps.active.WriteAt(hdr[:], pm.size)
	if werr == nil {
		_, werr = ps.active.WriteAt(data, off)
	}
	if werr != nil {
		// Rewind a partial record so the next append never lands after
		// garbage; if even the truncate fails, open-time torn-tail recovery
		// covers it.
		_ = ps.active.Truncate(pm.size)
		return nil, 0, fmt.Errorf("chunkdisk: pack append: %w", werr)
	}
	pm.size = off + int64(len(data))
	pm.live += int64(len(data))
	pm.blobs++
	ps.s.packAppends.Add(1)
	ps.s.ctrInc(ps.s.mPackAppends)
	if ps.s.sync.Policy() == fsyncer.PolicyAlways {
		// Per-append flush, directly on the handle we hold (the syncer's
		// group callback re-locks ps.mu and is only for the Barrier path).
		if serr := ps.active.Sync(); serr != nil {
			return nil, 0, fmt.Errorf("chunkdisk: pack fsync: %w", serr)
		}
		ps.s.countFsync()
	}
	if pm.size >= ps.target {
		if err := ps.sealActiveLocked(); err != nil {
			return nil, 0, err
		}
	}
	pm.inflight++
	return pm, off, nil
}

// published releases append's pin once the record is in the index (or will
// never be: the fresh copy of a record swept mid-compaction).
func (ps *packSet) published(pm *packMeta) {
	ps.mu.Lock()
	pm.inflight--
	ps.mu.Unlock()
}

// openActiveLocked starts a fresh pack file. Caller holds ps.mu.
func (ps *packSet) openActiveLocked() error {
	seq := ps.nextSeq
	syncing := ps.s.sync.Policy() != fsyncer.PolicyNone
	f, err := ps.files.Create(uint64(seq), packMagic[:], syncing)
	if err != nil {
		return fmt.Errorf("chunkdisk: pack create: %w", err)
	}
	if syncing {
		ps.s.countFsync() // Create's directory fsync
	}
	ps.nextSeq++
	pm := &packMeta{seq: seq, path: ps.files.Path(uint64(seq)), size: int64(len(packMagic))}
	ps.packs[seq] = pm
	ps.active = f
	ps.activePM = pm
	ps.s.filesCreated.Add(1)
	ps.s.packFiles.Add(1)
	return nil
}

// retireActiveLocked takes the active pack out of service: doSync=true (a
// seal, or a clean Close) fsyncs it first under policies that sync — a
// sealed pack is never written again, so this is its last chance to reach
// stable storage; doSync=false (Crash) just closes the handle. Caller holds
// ps.mu.
func (ps *packSet) retireActiveLocked(doSync bool) error {
	f, pm := ps.active, ps.activePM
	if f == nil {
		return nil
	}
	ps.active = nil
	ps.activePM = nil
	pm.sealed = true
	var serr error
	if doSync && ps.s.sync.Policy() != fsyncer.PolicyNone {
		if serr = f.Sync(); serr == nil {
			ps.s.countFsync()
		}
	}
	if cerr := f.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// sealActiveLocked rotates to a fresh pack at the size target. Caller holds
// ps.mu.
func (ps *packSet) sealActiveLocked() error {
	if err := ps.retireActiveLocked(true); err != nil {
		return fmt.Errorf("chunkdisk: pack seal: %w", err)
	}
	return nil
}

// flushActive fsyncs the active pack (the group-commit flush callback); the
// flush is counted HERE, only when a file was actually synced — the barrier
// with no active pack is free. Holding ps.mu across the fsync keeps sealing
// from closing the handle under it; appends stall for the flush, which is
// the group policy's write barrier.
func (ps *packSet) flushActive() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.active == nil {
		return nil
	}
	err := ps.active.Sync()
	if err == nil {
		ps.s.countFsync()
	}
	return err
}

// read returns the payload bytes of a record. Caller holds relocMu (shared),
// so the pack file cannot be unlinked mid-read.
func (ps *packSet) read(seq, off, length int64) ([]byte, error) {
	ps.mu.Lock()
	pm := ps.packs[seq]
	ps.mu.Unlock()
	if pm == nil {
		return nil, fmt.Errorf("chunkdisk: pack %d gone", seq)
	}
	f, err := os.Open(pm.path)
	if err != nil {
		return nil, fmt.Errorf("chunkdisk: %w", err)
	}
	defer f.Close()
	buf := make([]byte, length)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("chunkdisk: pack read: %w", err)
	}
	return buf, nil
}

// retire accounts swept records as dead space. Called by Sweep after the
// index entries are gone.
func (ps *packSet) retire(deadBySeq map[int64]int64, blobsBySeq map[int64]int64) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for seq, bytes := range deadBySeq {
		pm := ps.packs[seq]
		if pm == nil {
			continue
		}
		pm.live -= bytes
		pm.dead += bytes
		pm.blobs -= blobsBySeq[seq]
		ps.s.packDeadBytes.Add(bytes)
		ps.s.ctrAdd(ps.s.mPackDead, bytes)
	}
}

// maybeCompact evacuates sealed packs whose garbage ratio crossed the
// threshold. Best-effort and non-reentrant: if a compaction is already
// running, this call is a no-op.
func (ps *packSet) maybeCompact() {
	if !ps.compactMu.TryLock() {
		return
	}
	defer ps.compactMu.Unlock()
	ps.mu.Lock()
	var victims []*packMeta
	for _, pm := range ps.packs {
		if !pm.sealed || pm.inflight != 0 {
			// Sealed packs take no more appends, so a pack seen with nothing
			// in flight has every record it will ever hold in the index.
			continue
		}
		if pm.blobs == 0 || pm.garbage() > ps.ratio {
			victims = append(victims, pm)
		}
	}
	ps.mu.Unlock()
	sort.Slice(victims, func(i, j int) bool { return victims[i].seq < victims[j].seq })
	for _, pm := range victims {
		if err := ps.compactOne(pm); err != nil {
			return // leave the rest for the next sweep
		}
	}
}

// compactOne rewrites a pack's surviving records into the active pack and
// unlinks the file. Holding compactMu; nothing else relocates concurrently.
func (ps *packSet) compactOne(pm *packMeta) error {
	s := ps.s
	// Collect the survivors: every index entry still pointing into this pack.
	type liveRec struct {
		h    extent.Hash
		meta diskMeta
	}
	var survivors []liveRec
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for h, meta := range sh.onDisk {
			if meta.pack == pm.seq {
				survivors = append(survivors, liveRec{h: h, meta: meta})
			}
		}
		sh.mu.Unlock()
	}
	for _, rec := range survivors {
		data, err := ps.read(pm.seq, rec.meta.off, rec.meta.size)
		if err != nil {
			return err
		}
		dst, newOff, err := ps.append(rec.h, data, rec.meta.logical, rec.meta.compressed)
		if err != nil {
			return err
		}
		moved := rec.meta
		moved.pack, moved.off = dst.seq, newOff
		sh := s.shardFor(rec.h)
		sh.mu.Lock()
		cur, ok := sh.onDisk[rec.h]
		if ok && cur.pack == pm.seq && cur.off == rec.meta.off {
			sh.onDisk[rec.h] = moved
		} else {
			// The blob was swept (or somehow relocated) between collection
			// and now: the fresh copy is instantly dead space in its new pack.
			ok = false
		}
		sh.mu.Unlock()
		ps.published(dst)
		if !ok {
			ps.retire(map[int64]int64{dst.seq: moved.size}, map[int64]int64{dst.seq: 1})
		}
	}
	// Survivors must be durable in their new home before the old one goes
	// away (a crash in between must not lose referenced blobs).
	if s.sync.Policy() != fsyncer.PolicyNone {
		if err := ps.flushActive(); err != nil {
			return err
		}
	}
	// Retire the file: exclusive relocMu waits out in-flight page-ins that
	// resolved to the old address.
	ps.relocMu.Lock()
	err := os.Remove(pm.path)
	ps.relocMu.Unlock()
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	ps.mu.Lock()
	delete(ps.packs, pm.seq)
	ps.mu.Unlock()
	s.packFiles.Add(-1)
	s.packDeadBytes.Add(-pm.dead)
	s.ctrAdd(s.mPackDead, -pm.dead)
	s.packCompactions.Add(1)
	return nil
}

// close retires the active pack. clean=true (Close) syncs it under policies
// that sync; a Crash skips even that.
func (ps *packSet) close(clean bool) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.retireActiveLocked(clean)
}

// adoptPacks indexes the packfiles a previous process left in the directory,
// truncating torn tails. Runs during Open, before any concurrency.
func (s *Store) adoptPacks() error {
	seqs, err := s.packs.files.List()
	if err != nil {
		return fmt.Errorf("chunkdisk: %w", err)
	}
	var sc seglog.Scanner // one window for every pack of this open
	for _, seq := range seqs {
		if err := s.adoptOnePack(&sc, s.packs.files.Path(seq), int64(seq)); err != nil {
			return err
		}
		s.packs.nextSeq = int64(seq) + 1
	}
	return nil
}

// adoptOnePack scans one packfile, indexing every valid record as dead
// (Ref or a re-Put revives it, exactly like loose adoption) and
// quarantining a torn tail — or the whole file, when it does not start with
// the pack magic: never guess at, or delete, bytes that might matter.
func (s *Store) adoptOnePack(sc *seglog.Scanner, path string, seq int64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("chunkdisk: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("chunkdisk: %w", err)
	}
	size := info.Size()
	pm := &packMeta{seq: seq, path: path, sealed: true}
	var magic [len(packMagic)]byte
	if size >= int64(len(magic)) {
		if _, err := f.ReadAt(magic[:], 0); err != nil {
			return fmt.Errorf("chunkdisk: pack %d: %w", seq, err)
		}
	}
	valid := int64(0)
	if magic == packMagic {
		const hdrLen = packRecHdrLen + packRecMeta
		body := io.NewSectionReader(f, int64(len(magic)), size-int64(len(magic)))
		n, err := sc.Scan(body, body.Size(), hdrLen, recordLen, func(rec []byte, off int64) bool {
			h, payload, logical, compressed, _, ok := parseRecord(rec)
			if !ok {
				return false
			}
			sh := s.shardFor(h)
			sh.mu.Lock()
			defer sh.mu.Unlock()
			if _, dup := sh.onDisk[h]; dup {
				// The hash is already indexed (an earlier record, or a loose
				// file): this record's bytes are dead space from the start.
				pm.dead += int64(len(payload))
				return true
			}
			sh.onDisk[h] = diskMeta{size: int64(len(payload)), logical: logical, compressed: compressed, pack: seq, off: int64(len(magic)) + off + hdrLen}
			sh.dead[h] = struct{}{}
			s.diskBlobs.Add(1)
			s.diskBytes.Add(int64(len(payload)))
			s.diskLogical.Add(logical)
			s.deadBlobs.Add(1)
			pm.live += int64(len(payload))
			pm.blobs++
			return true
		})
		if err != nil {
			return fmt.Errorf("chunkdisk: pack %d: %w", seq, err)
		}
		valid = int64(len(magic)) + n
	}
	if torn := size - valid; torn > 0 || valid == 0 {
		// Open-time repair flushes are not metered: Stats.Fsyncs prices the
		// write path.
		syncing := s.sync.Policy() != fsyncer.PolicyNone
		if err := seglog.RepairTail(path, valid, path+".torn", syncing); err != nil {
			return fmt.Errorf("chunkdisk: pack %d: %w", seq, err)
		}
		s.packTornBytes.Add(torn)
	}
	if valid == 0 {
		return nil // not a pack: the file is gone, its bytes quarantined
	}
	pm.size = valid
	s.packs.packs[seq] = pm
	s.packFiles.Add(1)
	s.packDeadBytes.Add(pm.dead)
	s.ctrAdd(s.mPackDead, pm.dead)
	return nil
}
