package archive

// Shard handoff: export a file's version history as delta manifests and
// replay it into another store, moving chunk bytes by content hash. The
// destination deduplicates against everything it already holds — blobs it has
// (live, or dead-but-unswept on disk) never travel — so migrating a file
// whose history the destination mostly shares costs O(changed chunks), the
// same property PutSnapshot gives the commit path. This is what makes live
// shard migration affordable: the manifests are tiny, and only genuinely new
// bytes cross between archive devices.

import (
	"errors"
	"fmt"
	"sync"

	"datalinks/internal/catalog"
	"datalinks/internal/chunkdisk"
	"datalinks/internal/extent"
)

// ErrChainGap reports a delta export or import whose base version does not
// line up with the history on this store — the history was truncated,
// restored, or never archived here. The caller drops its copy and transfers
// again from the start (ExportDelta with a negative base).
var ErrChainGap = errors.New("archive: history chain gap")

// HistoryRec is one version of an exported history: exactly the manifest the
// store persists, so import replays it with the same chain semantics as a
// catalog replay. Recs are ordered oldest-first and deltas chain through
// their predecessors, so an import either extends the history it finds or
// starts a new one at a checkpoint. Key is the exporting store's; an import
// files the record under its own.
type HistoryRec catalog.PutRec

// record is the importing store's own manifest record of hr under key k,
// carved with its lists from a (the shard's arena; the caller holds the shard
// lock). The lists are copied: the importer freezes what it indexes, whatever
// the caller does with the exported records afterwards.
func (hr *HistoryRec) record(k string, a *catalog.Arena) *catalog.PutRec {
	rec := a.Rec()
	*rec = catalog.PutRec(*hr)
	rec.Key = k
	rec.Full = append(a.Hashes(len(hr.Full))[:0], hr.Full...)
	rec.Mods = append(a.Mods(len(hr.Mods))[:0], hr.Mods...)
	rec.Patches = append(a.Patches(len(hr.Patches))[:0], hr.Patches...)
	return rec
}

// ImportStats reports what one ImportDelta physically did.
type ImportStats struct {
	Versions      int
	MovedChunks   int   // blobs fetched from the source and stored
	MovedBytes    int64 // bytes that crossed between the stores
	DedupedChunks int   // blobs the destination already held (zero transfer)
	DedupedBytes  int64
}

// ExportDelta snapshots the tail of a history as portable manifest records:
// every version strictly after the base, ordered oldest-first; a base whose
// Version is negative exports the history from its start (nothing archived:
// nothing exported). The first returned record chains off the base, so a
// store whose newest version is that base — Newest's ID — appends the result
// with ImportDelta: for a replica that is level but for the version just
// committed, one record. An empty slice means the history ends at the base.
// ErrChainGap reports a base this history does not hold — absent, or another
// version of that number (one a restore rolled back) — and the caller starts
// over. The records' hash lists are the store's own, frozen: the caller may
// hold them across arbitrary later mutation of this store, and must not write
// to them.
func (s *Store) ExportDelta(server, path string, base VersionID) ([]HistoryRec, error) {
	sh, fv := s.lockHistory(server, path)
	defer sh.mu.Unlock()
	from := 0
	switch {
	case fv == nil && base.Version < 0:
		return nil, nil
	case fv == nil:
		return nil, fmt.Errorf("%w: export of %s after version %d: no history", ErrChainGap, path, base.Version)
	case base.Version >= 0:
		idx := fv.find(base)
		if idx < 0 {
			return nil, fmt.Errorf("%w: export of %s: version %d (state %d) not in history (have %d..%d)",
				ErrChainGap, path, base.Version, base.StateID, fv.recs[0].Version, fv.newest())
		}
		from = idx + 1
	}
	out := make([]HistoryRec, 0, len(fv.recs)-from)
	for _, rec := range fv.recs[from:] {
		out = append(out, HistoryRec(*rec))
	}
	return out, nil
}

// fetchBufSize is how long a buffer FetchBlob reads a blob into must be: a
// chunk and the framing it is stored in.
const fetchBufSize = extent.ChunkSize + chunkdisk.RecordOverhead

// FetchBlob returns the bytes of one content hash, read into dst (at least
// fetchBufSize long) from the device — checked against the stored record's
// checksum, as chunkdisk.ReadForTransfer has it. This is the source side of a transfer: the destination's ImportDelta calls
// it for exactly the hashes it does not already hold.
func (s *Store) FetchBlob(h extent.Hash, dst []byte) ([]byte, error) {
	return s.disk.ReadForTransfer(h, dst)
}

// fetchBufs are the buffers an import fetches blobs into.
var fetchBufs = sync.Pool{New: func() any {
	b := make([]byte, fetchBufSize)
	return &b
}}

// ImportDelta is the one way a history enters this store from another: it
// appends exported records onto the history held here, or — when nothing is
// held — starts one, which the first record must then be able to open
// (IsFull; a delta with no predecessor is ErrChainGap). Records at or below
// the local last version are skipped, so a re-shipped frame whose ack was
// lost, or a migration onto a member that already holds the replica, lands as
// a no-op that moves nothing; the first genuinely new record must be the
// direct successor of the local last version, anything else is ErrChainGap
// and the caller drops and starts over. fetch runs once per blob hash this
// store does not already hold (memory, disk, or dead-but-unswept on disk — all
// deduplicate to zero transfer), with a fetchBufSize buffer to read the blob
// into. Versions become visible one at a time, each
// logged to the durable catalog before it is served — a new history is
// indexed only once its first version is logged, as in PutSnapshot — with the
// same blobs-before-manifests durability barrier at the end. On an error
// before the first append nothing changes and every pin is released; a
// catalog failure midway keeps the logged prefix.
func (s *Store) ImportDelta(server, path string, recs []HistoryRec, fetch func(extent.Hash, []byte) ([]byte, error)) (ImportStats, error) {
	var st ImportStats
	sh, fv := s.lockHistory(server, path)
	last := int64(-1)
	if fv != nil {
		last = int64(fv.newest())
	}
	for len(recs) > 0 && recs[0].Version <= last {
		recs = recs[1:]
	}
	var err error
	switch {
	case len(recs) == 0:
	case fv == nil && !recs[0].IsFull:
		err = fmt.Errorf("%w: delta into %s: no base history for version %d", ErrChainGap, path, recs[0].Version)
	case fv != nil && recs[0].Version != last+1:
		err = fmt.Errorf("%w: delta into %s: have version %d, tail starts at %d", ErrChainGap, path, last, recs[0].Version)
	}
	for i := 1; err == nil && i < len(recs); i++ {
		if recs[i].Version != recs[0].Version+int64(i) {
			err = fmt.Errorf("%w: delta into %s: tail not contiguous at version %d", ErrChainGap, path, recs[i].Version)
		}
	}
	if err != nil || len(recs) == 0 {
		sh.mu.Unlock()
		return st, err
	}
	// The walk's lists are sized up front: the widest version's slots, and
	// for every version a base per slot and its tail (patches grow the list).
	slots, pins := 0, 0
	for i := range recs {
		slots = max(slots, recs[i].NChunks)
		pins += recs[i].NChunks + 1
	}
	var k string
	var full []slotRef
	if fv != nil {
		k = fv.key()
		full = append(make([]slotRef, 0, max(slots, len(fv.last))), fv.last...)
	} else {
		k = key(server, path)
	}
	newRecs := make([]*catalog.PutRec, 0, 4)
	for i := range recs {
		newRecs = append(newRecs, recs[i].record(k, &sh.arena))
	}
	sh.mu.Unlock()

	// Build the tail aside, pinning blob references per record so a partial
	// failure can release exactly the uncommitted records' pins — the same
	// walk as a catalog replay, except a missing blob is fetched from the
	// source instead of ending the history. pin takes one reference on h,
	// fetching the bytes only when this store's device does not hold them
	// (live, or dead but unswept and revived in place); logical is the
	// slot's size, charged to the dedup counters when nothing moves.
	pinned := make([]extent.Hash, 0, 32)
	if pins > cap(pinned) {
		pinned = make([]extent.Hash, 0, pins)
	}
	pinStart := make([]int, 0, 4)
	pin := func(h extent.Hash, logical int64) error {
		moved := false
		if !s.disk.Ref(h) {
			buf := fetchBufs.Get().(*[]byte)
			defer fetchBufs.Put(buf)
			b, err := fetch(h, *buf)
			if err != nil {
				return fmt.Errorf("archive: import fetch %s: %w", path, err)
			}
			logical = int64(len(b))
			if moved, err = s.disk.PutBytes(h, b); err != nil {
				return fmt.Errorf("archive: import store %s: %w", path, err)
			}
		}
		pinned = append(pinned, h)
		if moved {
			st.MovedChunks++
			st.MovedBytes += logical
		} else {
			st.DedupedChunks++
			st.DedupedBytes += logical
		}
		return nil
	}
	fail := func(err error) (ImportStats, error) {
		s.releaseAll(pinned)
		return ImportStats{}, err
	}
	for _, rec := range newRecs {
		pinStart = append(pinStart, len(pinned))
		full = advance(full, rec)
		for _, r := range full {
			if err := pin(r.base, extent.ChunkSize); err != nil {
				return fail(err)
			}
			for _, p := range r.patches {
				// A patch's size is known only once it is fetched.
				if err := pin(p.Hash, 0); err != nil {
					return fail(err)
				}
			}
		}
		if rec.TailLen > 0 {
			if err := pin(rec.TailHash, int64(rec.TailLen)); err != nil {
				return fail(err)
			}
		}
	}
	pinStart = append(pinStart, len(pinned))
	// Device transfer: only moved blobs travel, before any record is logged.
	s.sleep(int64(st.MovedChunks))

	sh.mu.Lock()
	// A dropped and re-linked history is a different fileVersions, and one
	// another importer started meanwhile is not the nil this one saw.
	if cur := sh.entries[k]; cur != fv || (cur != nil && int64(cur.newest()) != last) {
		sh.mu.Unlock()
		return fail(fmt.Errorf("%w: delta into %s: history changed during import", ErrStale, path))
	}
	if fv == nil {
		fv = &fileVersions{gen: genCounter.Add(1)}
	}
	for i, rec := range newRecs {
		if err := s.cat.AppendPut(rec); err != nil {
			// Records [0,i) are logged and visible — keep them. Release only
			// the pins belonging to the records that did not land.
			if len(fv.recs) > 0 {
				fv.last, fv.capture = slotsAt(fv, len(fv.recs)-1), 0
			}
			sh.mu.Unlock()
			s.releaseAll(pinned[pinStart[i]:])
			st.Versions = i
			return st, fmt.Errorf("archive: delta catalog %s: %w", path, err)
		}
		if len(fv.recs) == 0 {
			sh.entries[k] = fv
		}
		fv.recs = append(fv.recs, rec)
		st.Versions++
	}
	// Invariant 1: no capture of this store's follows an imported version.
	fv.last, fv.capture = full, 0
	sh.mu.Unlock()
	s.compactCatalog()
	// Same commit durability barrier as PutSnapshot: blobs before manifests.
	if err := s.disk.Sync(); err != nil {
		return st, err
	}
	if err := s.cat.Sync(); err != nil {
		return st, fmt.Errorf("archive: delta catalog %s: %w", path, err)
	}
	s.logicalBytes.Add(sumSizes(recs))
	s.newBytes.Add(st.MovedBytes)
	s.dedupedBytes.Add(st.DedupedBytes)
	return st, nil
}

func (s *Store) releaseAll(hashes []extent.Hash) {
	for _, h := range hashes {
		s.disk.Release(h)
	}
}

func sumSizes(recs []HistoryRec) int64 {
	var n int64
	for _, r := range recs {
		n += r.Size
	}
	return n
}
