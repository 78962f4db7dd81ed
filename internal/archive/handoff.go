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

	"datalinks/internal/catalog"
	"datalinks/internal/extent"
)

// ErrChainGap reports a delta export or import whose base version does not
// line up with the history on this store — the history was truncated,
// restored, or never archived here. The caller drops its copy and transfers
// again from the start (ExportDelta with a negative base).
var ErrChainGap = errors.New("archive: history chain gap")

// HistoryMod is one changed slot of an exported delta manifest.
type HistoryMod = catalog.Mod

// HistoryRec is one version of an exported history: exactly the manifest the
// store persists, so import replays it with the same chain semantics as a
// catalog replay. Recs are ordered oldest-first and deltas chain through
// their predecessors, so an import either extends the history it finds or
// starts a new one at a checkpoint. Key is the exporting store's; an import
// files the record under its own.
type HistoryRec catalog.PutRec

// record is the importing store's own manifest record of hr under key k. The
// hash lists are copied: the importer freezes what it indexes, whatever the
// caller does with the exported records afterwards.
func (hr *HistoryRec) record(k string) *catalog.PutRec {
	rec := catalog.PutRec(*hr)
	rec.Key = k
	rec.Full = append([]extent.Hash(nil), hr.Full...)
	rec.Mods = append([]HistoryMod(nil), hr.Mods...)
	return &rec
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
// every version strictly after base, ordered oldest-first; a negative base
// exports the history from its start (nothing archived: nothing exported).
// The first returned record chains off version base, so a store whose last
// version is base appends the result with ImportDelta — the O(changed chunks)
// transfer that catches a lagging replica up, and from the start the whole
// of a migration. An empty slice means the history ends at base (nothing to
// ship). ErrChainGap reports that base is not present in this history; the
// caller starts over. The records' hash lists are the store's own, frozen:
// the caller may hold them across arbitrary later mutation of this store, and
// must not write to them.
func (s *Store) ExportDelta(server, path string, base int64) ([]HistoryRec, error) {
	sh, fv := s.lockHistory(server, path)
	defer sh.mu.Unlock()
	from := 0
	switch {
	case fv == nil && base < 0:
		return nil, nil
	case fv == nil:
		return nil, fmt.Errorf("%w: export of %s after version %d: no history", ErrChainGap, path, base)
	case base >= 0:
		idx := fv.indexOf(Version(base))
		if idx < 0 {
			return nil, fmt.Errorf("%w: export of %s: version %d not in history (have %d..%d)",
				ErrChainGap, path, base, fv.recs[0].Version, fv.newest())
		}
		from = idx + 1
	}
	out := make([]HistoryRec, 0, len(fv.recs)-from)
	for _, rec := range fv.recs[from:] {
		out = append(out, HistoryRec(*rec))
	}
	return out, nil
}

// FetchBlob returns the bytes of one content hash (paging in from the disk
// tier if cold). The caller owns the returned chunk and must ReleaseChunk it.
// This is the source side of a transfer: the destination's ImportDelta calls
// it for exactly the hashes it does not already hold.
func (s *Store) FetchBlob(h extent.Hash) (*extent.Chunk, error) {
	return s.disk.Get(h)
}

// ensureBlob takes one reference on h, fetching the bytes from the source
// only when this store's device does not hold them (live, or dead but unswept
// and revived in place). logical is the slot's logical size, charged to the
// dedup counters when no transfer happens (a fetch replaces it with what
// arrived). Every reference taken is appended to *pinned so the caller can
// unwind symmetrically.
func (s *Store) ensureBlob(h extent.Hash, logical int64, path string, fetch func(extent.Hash) (*extent.Chunk, error), st *ImportStats, pinned *[]extent.Hash) error {
	moved := false
	if !s.disk.Ref(h) {
		c, err := fetch(h)
		if err != nil {
			return fmt.Errorf("archive: import fetch %s: %w", path, err)
		}
		logical = int64(len(c.Data()))
		moved, err = s.disk.Put(h, c)
		c.ReleaseChunk()
		if err != nil {
			return fmt.Errorf("archive: import store %s: %w", path, err)
		}
	}
	*pinned = append(*pinned, h)
	if moved {
		st.MovedChunks++
		st.MovedBytes += logical
	} else {
		st.DedupedChunks++
		st.DedupedBytes += logical
	}
	return nil
}

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
// deduplicate to zero transfer). Versions become visible one at a time, each
// logged to the durable catalog before it is served — a new history is
// indexed only once its first version is logged, as in PutSnapshot — with the
// same blobs-before-manifests durability barrier at the end. On an error
// before the first append nothing changes and every pin is released; a
// catalog failure midway keeps the logged prefix.
func (s *Store) ImportDelta(server, path string, recs []HistoryRec, fetch func(extent.Hash) (*extent.Chunk, error)) (ImportStats, error) {
	var st ImportStats
	sh, fv := s.lockHistory(server, path)
	var k string
	var full []extent.Hash
	last := int64(-1)
	if fv != nil {
		k, last = fv.key(), int64(fv.newest())
		full = append(full, fv.last...)
	}
	sh.mu.Unlock()
	if fv == nil {
		k = key(server, path)
	}

	for len(recs) > 0 && recs[0].Version <= last {
		recs = recs[1:]
	}
	if len(recs) == 0 {
		return st, nil
	}
	switch {
	case fv == nil && !recs[0].IsFull:
		return st, fmt.Errorf("%w: delta into %s: no base history for version %d", ErrChainGap, path, recs[0].Version)
	case fv != nil && recs[0].Version != last+1:
		return st, fmt.Errorf("%w: delta into %s: have version %d, tail starts at %d",
			ErrChainGap, path, last, recs[0].Version)
	}

	// Build the tail aside, pinning blob references per record so a partial
	// failure can release exactly the uncommitted records' pins — the same
	// walk as a catalog replay, except a missing blob is fetched from the
	// source instead of ending the history.
	var pinned []extent.Hash
	fail := func(err error) (ImportStats, error) {
		s.releaseAll(pinned)
		return ImportStats{}, err
	}
	newRecs := make([]*catalog.PutRec, len(recs))
	pinStart := make([]int, len(recs)+1)
	for i := range recs {
		if recs[i].Version != recs[0].Version+int64(i) {
			return fail(fmt.Errorf("%w: delta into %s: tail not contiguous at version %d", ErrChainGap, path, recs[i].Version))
		}
		pinStart[i] = len(pinned)
		rec := recs[i].record(k)
		full = advance(full, rec)
		for _, h := range full {
			if err := s.ensureBlob(h, extent.ChunkSize, path, fetch, &st, &pinned); err != nil {
				return fail(err)
			}
		}
		if rec.TailLen > 0 {
			if err := s.ensureBlob(rec.TailHash, int64(rec.TailLen), path, fetch, &st, &pinned); err != nil {
				return fail(err)
			}
		}
		newRecs[i] = rec
	}
	pinStart[len(recs)] = len(pinned)

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
		if s.cat != nil {
			if err := s.cat.AppendPut(rec); err != nil {
				// Records [0,i) are logged and visible — keep them. Release
				// only the pins belonging to the records that did not land.
				if len(fv.recs) > 0 {
					fv.last = hashesAt(fv, len(fv.recs)-1)
				}
				sh.mu.Unlock()
				s.releaseAll(pinned[pinStart[i]:])
				st.Versions = i
				return st, fmt.Errorf("archive: delta catalog %s: %w", path, err)
			}
		}
		if len(fv.recs) == 0 {
			sh.entries[k] = fv
		}
		fv.recs = append(fv.recs, rec)
		st.Versions++
	}
	fv.last = full
	sh.mu.Unlock()
	if s.cat != nil {
		_ = s.cat.CompactIfDue()
	}
	// Same commit durability barrier as PutSnapshot: blobs before manifests.
	if err := s.disk.Sync(); err != nil {
		return st, err
	}
	if s.cat != nil {
		if err := s.cat.Sync(); err != nil {
			return st, fmt.Errorf("archive: delta catalog %s: %w", path, err)
		}
	}
	s.logicalBytes.Add(sumSizes(recs))
	s.newBytes.Add(st.MovedBytes)
	s.dedupedBytes.Add(st.DedupedBytes)
	// Device transfer: only moved blobs travel.
	s.sleep(int64(st.MovedChunks))
	return st, nil
}

func sumSizes(recs []HistoryRec) int64 {
	var n int64
	for _, r := range recs {
		n += r.Size
	}
	return n
}
