package chunkdisk

// Packfile side of the store: every blob — chunk, version tail or patch — is
// APPENDED to a shared, CRC-framed packfile instead of costing a
// create+write+rename file cycle of its own. N small commits become one
// sequential append stream.
//
// Layout: pack-<seq>.pk files at the store root. A pack starts with an 8-byte
// magic and then holds self-framing records:
//
//	uint32 dataLen | uint32 logicalLen | uint32 CRC-32(lengths‖hash‖flags‖data)
//	| hash [32] | flags [1] | data [dataLen]
//
// data is the blob as it was put, so logicalLen equals dataLen and flags is
// 0; the content hash covers data and is verified on every page-in. A
// CRC-valid record with flags bit0 set is the flate-compressed form earlier
// stores wrote: an open refuses the directory (RetiredFormError) rather than
// cut the record away as a torn tail. Appends copy nothing: the 45 header
// bytes are built in one buffer the pack set reuses, and the data goes to the
// file from where it lies.
//
// A sealed pack ends in a footer, its index: one entry per record, then a
// trailer (see footer.go). The footer is written when the pack is sealed or
// at a clean Close, never by a Crash, and an open indexes a footered pack from
// its footer alone — one tail read instead of every record. The footer is
// trusted to its own CRC, to agreeing with the file's length, and to the seal
// mark: one byte of the pack magic, rewritten from packMagic to
// sealedPackMagic only once the footer is durable. The mark is what makes the
// footer the sealer's: an unsealed pack ends in the payload of its last
// record, bytes a writer chose, and those may be shaped like a footer with a
// good CRC; data appended to a pack never reaches its first bytes. The
// records a trusted footer lists are not re-read at open, and each blob is
// verified against its content hash when it is read, as every page-in is. A
// pack that is not marked sealed or whose footer is missing, torn or
// disagrees with the file — the active pack of a crashed process, a pack
// written before footers, a pack cut by hand — is scanned instead: every
// record's CRC verified, through one record-sized window shared by all packs
// (seglog.Scanner), so an open holds one record in memory, not the archive. A
// crash mid-append leaves a torn final record; the scan keeps the longest
// valid prefix and quarantines the rest (a torn footer included) to
// pack-<seq>.pk.torn (internal/seglog owns the scan-and-repair and the
// numbered-file naming), and then writes the pack its footer and mark, so the
// next open reads that instead. A sealed pack's mark is cleared before its
// tail is cut, so a crash mid-repair never leaves a marked pack ending in a
// record's payload.
//
// One pack is ACTIVE (receiving appends) at a time; at PackTargetBytes it is
// sealed (fsynced under policies that sync, then closed) and a new one
// starts. Sweep retires dead pack records in place — the index entry goes
// away, the bytes become dead space — and when a sealed pack's garbage ratio
// exceeds packGarbageRatio its surviving records are rewritten into the
// active pack and the old file is unlinked (compaction). Every read of a pack
// goes through one read handle the pack keeps open from its first read until
// it is unlinked or the store closes. Readers and the compactor synchronize
// on relocMu: a page-in holds it shared across the read, compaction holds it
// exclusive only for the final close-retire-and-unlink, and re-reads the
// index entry after locking so a blob moved under it is found at its new
// address. Lock order is relocMu → packSet.mu → shard mutex.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sort"
	"sync"

	"datalinks/internal/extent"
	"datalinks/internal/fsyncer"
	"datalinks/internal/seglog"
)

// Pack tuning defaults (Config overrides).
const (
	// DefaultPackTargetBytes seals the active pack once it grows past this.
	DefaultPackTargetBytes = 4 << 20
	// DefaultPackGarbageRatio compacts a sealed pack once this fraction of
	// its payload bytes is dead.
	DefaultPackGarbageRatio = 0.5
)

// packMagic identifies a packfile (format name + version); a sealed pack
// whose footer is durable starts with sealedPackMagic instead, the two
// differing only in the byte at sealMarkAt.
var (
	packMagic       = [8]byte{'D', 'L', 'P', 'A', 'C', 'K', '0', '1'}
	sealedPackMagic = [8]byte{'D', 'L', 'P', 'A', 'C', 'K', 'S', '1'}
)

// sealMarkAt is the offset of the seal mark: a one-byte write, which no
// crash tears.
const sealMarkAt = 6

const (
	packRecHdrLen = 4 + 4 + 4 // dataLen | logicalLen | crc
	packRecMeta   = 32 + 1    // hash | flags

	// packFlagCompressed is the flag of the retired compressed form: no
	// writer sets it, and an open refuses a pack that holds it.
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
	// rf is the pack's read handle: the one its adoption read it through,
	// or else opened by its first read; closed when the pack is unlinked or
	// the store closes, each under relocMu held exclusive, so no read is in
	// flight on it. Set and cleared under mu.
	rf *os.File
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
	hdr      [packRecHdrLen + packRecMeta]byte // append's record header, reused under mu
	active   *os.File
	activePM *packMeta
	packs    map[int64]*packMeta
	nextSeq  int64
	closed   bool // set by close: no append opens a pack after it
	// entries lists the active pack's records for its footer, and footer is
	// the buffer the footer is built in: both are reused from pack to pack.
	entries []footerEntry
	footer  []byte

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

// putRecordHeader writes the bytes that precede a record's data on disk
// into hdr. The checksum is folded over the header and then over data where
// it lies: the record is never assembled in memory. The header is built in
// place because the checksum's slice of it escapes: an array returned by
// value would be a heap object per record.
func putRecordHeader(hdr *[packRecHdrLen + packRecMeta]byte, h extent.Hash, data []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(data)))
	copy(hdr[12:44], h[:])
	hdr[44] = 0
	sum := crc32.Update(recordCRC(hdr[:]), crc32.IEEETable, data)
	binary.LittleEndian.PutUint32(hdr[8:12], sum)
}

// recordLen reads the length of the whole record off its header.
func recordLen(hdr []byte) int64 {
	return packRecHdrLen + packRecMeta + int64(binary.LittleEndian.Uint32(hdr[0:4]))
}

// parseRecord frames one record off buf. n is total bytes consumed. A record
// is ok only when it is exactly what putRecordHeader and its data would
// write; anything else is refused like a bad checksum. retired reports a
// whole, CRC-valid record flagged compressed and nothing else: the retired
// form, which is never ok.
func parseRecord(buf []byte) (h extent.Hash, data []byte, n int, ok, retired bool) {
	if len(buf) < packRecHdrLen+packRecMeta {
		return h, nil, 0, false, false
	}
	dataLen := binary.LittleEndian.Uint32(buf[0:4])
	sum := binary.LittleEndian.Uint32(buf[8:12])
	if dataLen > seglog.MaxRecordBytes || len(buf) < packRecHdrLen+packRecMeta+int(dataLen) {
		return h, nil, 0, false, false
	}
	n = packRecHdrLen + packRecMeta + int(dataLen)
	if recordCRC(buf[:n]) != sum {
		return h, nil, 0, false, false
	}
	if buf[44] != 0 || binary.LittleEndian.Uint32(buf[4:8]) != dataLen {
		return h, nil, 0, false, buf[44] == packFlagCompressed
	}
	copy(h[:], buf[12:44])
	return h, buf[packRecHdrLen+packRecMeta : n], n, true, false
}

// append writes one record to the active pack, creating or rotating packs as
// needed, and returns the pack it went to and the data's byte offset there.
// Under PolicyAlways the append is fsynced before returning. The pack comes
// back pinned against compaction: the caller publishes the record in the
// index and then calls published — or abandon, if it never will. A failed
// append leaves no pin, and a record it wrote before failing is dead space.
func (ps *packSet) append(h extent.Hash, data []byte) (pm *packMeta, off int64, err error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed {
		return nil, 0, errClosed
	}
	if ps.active == nil {
		if err := ps.openActiveLocked(); err != nil {
			return nil, 0, err
		}
	}
	pm = ps.activePM
	putRecordHeader(&ps.hdr, h, data)
	off = pm.size + int64(len(ps.hdr))
	_, werr := ps.active.WriteAt(ps.hdr[:], pm.size)
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
	ps.entries = append(ps.entries, footerEntry{hash: h, off: pm.size, size: int64(len(data))})
	pm.size = off + int64(len(data))
	pm.live += int64(len(data))
	pm.blobs++
	ps.s.packAppends.Add(1)
	ps.s.ctrInc(ps.s.mPackAppends)
	if ps.s.sync.Policy() == fsyncer.PolicyAlways {
		// Per-append flush, directly on the handle we hold (the syncer's
		// group callback re-locks ps.mu and is only for the Barrier path).
		if serr := ps.active.Sync(); serr != nil {
			ps.retireLocked(pm, int64(len(data)), 1)
			return nil, 0, fmt.Errorf("chunkdisk: pack fsync: %w", serr)
		}
		ps.s.countFsync()
	}
	if pm.size >= ps.target {
		// Seal: the next append starts a fresh pack.
		if err := ps.retireActiveLocked(true); err != nil {
			ps.retireLocked(pm, int64(len(data)), 1)
			return nil, 0, fmt.Errorf("chunkdisk: pack seal: %w", err)
		}
	}
	pm.inflight++
	return pm, off, nil
}

// published releases append's pin once the record is in the index.
func (ps *packSet) published(pm *packMeta) {
	ps.mu.Lock()
	pm.inflight--
	ps.mu.Unlock()
}

// abandon releases append's pin on a record that will never be in the index
// — its write-through failed after the append, or it is the fresh copy of a
// record swept mid-compaction — and accounts it as dead space.
func (ps *packSet) abandon(pm *packMeta, size int64) {
	ps.mu.Lock()
	pm.inflight--
	ps.retireLocked(pm, size, 1)
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
	ps.entries = ps.entries[:0]
	ps.s.filesCreated.Add(1)
	ps.s.packFiles.Add(1)
	return nil
}

// retireActiveLocked takes the active pack out of service: clean=true (a
// seal, or a clean Close) seals the file (sealFile); clean=false (Crash) just
// closes the handle. Caller holds ps.mu.
func (ps *packSet) retireActiveLocked(clean bool) error {
	f, pm := ps.active, ps.activePM
	if f == nil {
		return nil
	}
	ps.active = nil
	ps.activePM = nil
	pm.sealed = true
	var serr error
	if clean {
		var synced bool
		if synced, serr = ps.s.sealFile(f, ps.entries, pm.size); synced {
			ps.s.countFsync()
		}
	}
	if cerr := f.Close(); serr == nil {
		serr = cerr
	}
	return serr
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

// ErrPackGone fails a read of a pack that compaction unlinked or a closed
// store no longer serves.
var ErrPackGone = errors.New("chunkdisk: pack gone")

// readInto fills buf with the record payload at off in pack seq, through the
// pack's read handle. The caller holds relocMu shared or, compacting,
// compactMu, so the pack file cannot be unlinked mid-read.
func (ps *packSet) readInto(seq, off int64, buf []byte) error {
	f, err := ps.reader(seq)
	if err != nil {
		return err
	}
	if _, err := f.ReadAt(buf, off); err != nil {
		return fmt.Errorf("chunkdisk: pack read: %w", err)
	}
	return nil
}

// reader returns pack seq's read handle, opening it on first use.
func (ps *packSet) reader(seq int64) (*os.File, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	pm := ps.packs[seq]
	if pm == nil || ps.closed {
		return nil, fmt.Errorf("%w: pack %d", ErrPackGone, seq)
	}
	if pm.rf == nil {
		f, err := os.Open(pm.path)
		if err != nil {
			return nil, fmt.Errorf("chunkdisk: %w", err)
		}
		pm.rf = f
	}
	return pm.rf, nil
}

// closeReaderLocked closes pm's read handle. Caller holds relocMu exclusive
// and mu.
func closeReaderLocked(pm *packMeta) {
	if pm.rf != nil {
		pm.rf.Close()
		pm.rf = nil
	}
}

// retire accounts swept records as dead space. Called by Sweep after the
// index entries are gone.
func (ps *packSet) retire(deadBySeq map[int64]int64, blobsBySeq map[int64]int64) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for seq, bytes := range deadBySeq {
		if pm := ps.packs[seq]; pm != nil {
			ps.retireLocked(pm, bytes, blobsBySeq[seq])
		}
	}
}

// retireLocked moves blobs records of pm, bytes of payload in all, from live
// to dead space. Caller holds ps.mu.
func (ps *packSet) retireLocked(pm *packMeta, bytes, blobs int64) {
	pm.live -= bytes
	pm.dead += bytes
	pm.blobs -= blobs
	ps.s.packDeadBytes.Add(bytes)
	ps.s.ctrAdd(ps.s.mPackDead, bytes)
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
		for h, b := range sh.blobs {
			if b.pack == pm.seq {
				survivors = append(survivors, liveRec{h: h, meta: b.diskMeta})
			}
		}
		sh.mu.Unlock()
	}
	for _, rec := range survivors {
		data := make([]byte, rec.meta.size)
		if err := ps.readInto(pm.seq, rec.meta.off, data); err != nil {
			return err
		}
		dst, newOff, err := ps.append(rec.h, data)
		if err != nil {
			return err
		}
		moved := rec.meta
		moved.pack, moved.off = dst.seq, newOff
		sh := s.shardFor(rec.h)
		sh.mu.Lock()
		cur, ok := sh.blobs[rec.h]
		if ok && cur.pack == pm.seq && cur.off == rec.meta.off {
			cur.diskMeta = moved
			sh.blobs[rec.h] = cur
		} else {
			// The blob was swept (or somehow relocated) between collection
			// and now: the fresh copy is instantly dead space in its new pack.
			ok = false
		}
		sh.mu.Unlock()
		if ok {
			ps.published(dst)
		} else {
			ps.abandon(dst, moved.size)
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
	// resolved to the old address, and its read handle closes with it.
	ps.relocMu.Lock()
	ps.mu.Lock()
	closeReaderLocked(pm)
	ps.mu.Unlock()
	err := os.Remove(pm.path)
	if err == nil || os.IsNotExist(err) {
		ps.mu.Lock()
		delete(ps.packs, pm.seq)
		ps.mu.Unlock()
	}
	ps.relocMu.Unlock()
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	s.packFiles.Add(-1)
	s.packDeadBytes.Add(-pm.dead)
	s.ctrAdd(s.mPackDead, -pm.dead)
	s.packCompactions.Add(1)
	return nil
}

// close retires the active pack, closes every read handle and refuses every
// later append and read, so a write racing Close or Crash never opens a pack
// in a directory that is being removed or that a successor store owns.
// clean=true (Close) syncs it under policies that sync; a Crash skips even
// that.
func (ps *packSet) close(clean bool) error {
	ps.relocMu.Lock()
	defer ps.relocMu.Unlock()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.closed = true
	for _, pm := range ps.packs {
		closeReaderLocked(pm)
	}
	return ps.retireActiveLocked(clean)
}

// adopter is what one open reads every pack through: a footer reader and a
// scan window, each reused from pack to pack, and the repairs the scanned
// packs want, made once every pack has been read.
type adopter struct {
	footers footerReader
	sc      seglog.Scanner
	repairs []packRepair
}

// packRepair is a scanned pack's repair: cut back to valid bytes (quarantined
// whole when valid is 0, not a pack) and sealed with the footer of entries.
type packRepair struct {
	seq, size, valid int64
	path             string
	marked           bool // the pack carries the seal mark
	entries          []footerEntry
}

// packFile is a pack an open adopts: its path, and the one handle the open
// reads it through and then hands the pack as its read handle.
type packFile struct {
	path string
	f    *os.File
	size int64
}

// adoptPacks indexes the packfiles a previous process left in the directory,
// whose listing is entries, truncating torn tails. Runs during Open, before any concurrency. Each pack
// is opened once. The shard maps are sized first from the record counts the
// footers claim, so indexing them does not grow them step by step. No pack is
// repaired until every pack has been read, so a retired form anywhere fails
// the open with the directory as it was. On an error the packs opened so far
// are closed here; the adopted ones' handles go with the pack set's close.
func (s *Store) adoptPacks(entries []os.DirEntry) error {
	seqs, err := s.packs.files.Seqs(entries)
	if err != nil {
		return fmt.Errorf("chunkdisk: %w", err)
	}
	packs := make([]packFile, len(seqs))
	for i, seq := range seqs {
		p := &packs[i]
		p.path = s.packs.files.Path(seq)
		if p.f, err = os.Open(p.path); err == nil {
			p.size, err = fileSize(p.f)
		}
		if err != nil {
			closePacks(packs[:i+1])
			return fmt.Errorf("chunkdisk: %w", err)
		}
	}
	var ad adopter
	s.presizeIndex(&ad.footers, packs)
	for i, seq := range seqs {
		if err := s.adoptOnePack(&ad, packs[i], int64(seq)); err != nil {
			closePacks(packs[i+1:])
			return err
		}
		s.packs.nextSeq = int64(seq) + 1
	}
	for _, r := range ad.repairs {
		var err error
		if r.valid == 0 {
			err = s.repairTail(r.path, r.size, 0)
		} else {
			err = s.repairPack(r.path, r.size, r.valid, r.marked, r.entries)
		}
		if err != nil {
			return fmt.Errorf("chunkdisk: pack %d: %w", r.seq, err)
		}
	}
	return nil
}

// closePacks closes the handles of packs not adopted.
func closePacks(packs []packFile) {
	for _, p := range packs {
		if p.f != nil {
			p.f.Close()
		}
	}
}

// fileSize reports the length of an open file without the allocation of a
// Stat.
func fileSize(f *os.File) (int64, error) {
	return f.Seek(0, io.SeekEnd)
}

// presizeIndex makes each shard's blob map room for its share of the records
// the sealed packs' footers count — hashes spread evenly over the shards —
// plus a quarter for the spread. A pack not marked sealed, or without a
// readable trailer, counts nothing.
func (s *Store) presizeIndex(fr *footerReader, packs []packFile) {
	total := 0
	for _, p := range packs {
		if readMagic(p.f, p.size) == sealedPackMagic {
			n, _, _ := fr.trailer(p.f, p.size)
			total += n
		}
	}
	if total == 0 {
		return
	}
	perShard := total/shardCount + total/(4*shardCount) + 8
	for i := range s.shards {
		s.shards[i].blobs = make(map[extent.Hash]blobState, perShard)
	}
}

// readMagic returns the first bytes of a pack of size bytes: zero when it is
// too short to hold them or they cannot be read.
func readMagic(f *os.File, size int64) (magic [len(packMagic)]byte) {
	if size >= int64(len(magic)) {
		if _, err := f.ReadAt(magic[:], 0); err != nil {
			return [len(packMagic)]byte{}
		}
	}
	return magic
}

// adoptOnePack indexes one packfile, every record as dead (Ref or a re-Put
// revives it): from its footer when it is marked sealed and the footer is
// valid, else by scanning its records. A scanned pack is listed for repair:
// its torn tail quarantined — or the whole file, when it does not start with
// a pack magic: never guess at, or delete, bytes that might matter — and what
// is left sealed. A footer entry or a record in the retired compressed form
// fails the adoption. The pack keeps p's handle as its read handle (a repair
// cuts and seals the file in place); a file that is not a pack has it closed.
func (s *Store) adoptOnePack(ad *adopter, p packFile, seq int64) (err error) {
	f, size := p.f, p.size
	pm := &packMeta{seq: seq, path: p.path, sealed: true}
	defer func() {
		if pm.rf == nil {
			f.Close()
		}
	}()
	retired := func() error { return &RetiredFormError{Path: p.path, Form: "a compressed pack record"} }
	magic := readMagic(f, size)
	valid, trusted := int64(0), false
	if magic == sealedPackMagic {
		if valid, trusted = ad.footers.read(f, size); ad.footers.retired {
			return retired()
		}
	}
	if !trusted && (magic == packMagic || magic == sealedPackMagic) {
		s.scannedPacks++
		var flagged bool
		if valid, flagged, err = s.scanPack(ad, f, size); err != nil {
			return fmt.Errorf("chunkdisk: pack %d: %w", seq, err)
		} else if flagged {
			return retired()
		}
	}
	entries := ad.footers.entries
	if !trusted {
		ad.repairs = append(ad.repairs, packRepair{seq: seq, size: size, valid: valid, path: p.path,
			marked: magic == sealedPackMagic, entries: slices.Clone(entries)})
		if valid == 0 {
			return nil // not a pack: the repair quarantines the file
		}
	}
	for i := range entries {
		s.adoptRecord(pm, &entries[i])
	}
	pm.size, pm.rf = valid, f
	s.packs.packs[seq] = pm
	s.packFiles.Add(1)
	s.packDeadBytes.Add(pm.dead)
	s.ctrAdd(s.mPackDead, pm.dead)
	return nil
}

// repairTail quarantines the bytes of the size-byte file at path past valid,
// removing the file when valid is 0. Open-time repair flushes are not
// metered: Stats.Fsyncs prices the write path.
func (s *Store) repairTail(path string, size, valid int64) error {
	syncing := s.sync.Policy() != fsyncer.PolicyNone
	if err := seglog.RepairTail(path, valid, path+".torn", syncing); err != nil {
		return err
	}
	s.packTornBytes.Add(size - valid)
	return nil
}

// repairPack cuts a scanned pack of size bytes back to its valid prefix, if
// it has torn bytes past it, and seals what is left with the footer of the
// records entries lists. A pack marked sealed has its mark cleared — durably,
// under policies that sync — before the cut.
func (s *Store) repairPack(path string, size, valid int64, marked bool, entries []footerEntry) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if valid < size {
		if marked {
			err = writeSealMark(f, false)
			if err == nil && s.sync.Policy() != fsyncer.PolicyNone {
				err = f.Sync()
			}
		}
		if err == nil {
			err = s.repairTail(path, size, valid)
		}
	}
	if err == nil {
		_, err = s.sealFile(f, entries, valid)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// scanPack verifies the records in the first body bytes of a pack, lists
// them in ad.footers.entries and returns where their longest valid prefix
// ends. retired reports that the prefix ends at a record in the retired
// compressed form: valid bytes, which are not a torn tail.
func (s *Store) scanPack(ad *adopter, f *os.File, body int64) (valid int64, retired bool, err error) {
	const hdrLen = packRecHdrLen + packRecMeta
	ad.footers.entries = ad.footers.entries[:0]
	records := io.NewSectionReader(f, int64(len(packMagic)), body-int64(len(packMagic)))
	n, err := ad.sc.Scan(records, records.Size(), hdrLen, recordLen, func(rec []byte, off int64) bool {
		h, payload, _, ok, flagged := parseRecord(rec)
		if ok {
			ad.footers.entries = append(ad.footers.entries, footerEntry{hash: h, off: int64(len(packMagic)) + off, size: int64(len(payload))})
		}
		retired = flagged
		return ok
	})
	return int64(len(packMagic)) + n, retired, err
}

// sealFile seals the pack file f, whose body is bodyLen bytes: it appends
// the footer of the records entries lists, fsyncs the pack under policies
// that sync — a sealed pack is never written again, so this is its last
// chance to reach stable storage — and only then marks it sealed. It
// reports whether it fsynced. The mark itself is not synced: a mark lost to
// a machine crash costs the next open a scan of the pack, nothing more.
// Under PolicyNone nothing is synced, so the page cache orders the two
// writes and a machine crash may keep the mark without the footer: that
// policy gives up what a machine crash leaves on disk.
func (s *Store) sealFile(f *os.File, entries []footerEntry, bodyLen int64) (synced bool, err error) {
	s.packs.footer = appendFooter(s.packs.footer[:0], entries, bodyLen)
	if _, err = f.WriteAt(s.packs.footer, bodyLen); err == nil && s.afterFooterWrite != nil {
		err = s.afterFooterWrite()
	}
	if err == nil && s.sync.Policy() != fsyncer.PolicyNone {
		if err = f.Sync(); err == nil {
			synced = true
		}
	}
	if err == nil {
		err = writeSealMark(f, true)
	}
	return synced, err
}

// writeSealMark sets or clears a pack's seal mark.
func writeSealMark(f *os.File, sealed bool) error {
	mark := packMagic[sealMarkAt : sealMarkAt+1]
	if sealed {
		mark = sealedPackMagic[sealMarkAt : sealMarkAt+1]
	}
	_, err := f.WriteAt(mark, sealMarkAt)
	return err
}

// adoptRecord indexes one record of pack pm as dead — unless an earlier
// record holds its hash, when its bytes are dead space from the start.
func (s *Store) adoptRecord(pm *packMeta, e *footerEntry) {
	sh := s.shardFor(e.hash)
	if _, dup := sh.blobs[e.hash]; dup {
		pm.dead += e.size
		return
	}
	s.indexDeadLocked(sh, e.hash, e.meta(pm.seq))
	pm.live += e.size
	pm.blobs++
}
