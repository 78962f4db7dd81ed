package dlfm

import (
	"bytes"
	"fmt"

	"datalinks/internal/archive"
	"datalinks/internal/datalink"
)

// Shard handoff: the source's half of moving a path between DLFM servers.
// A move is catch-up + promote, the same way a failover ends:
//
//   - BeginExport drains the path (waits for in-flight opens exactly like a
//     write open would), freezes it by installing a sentinel writer — every
//     later open parks on the path's wait queue until the move ends — and
//     makes the archive history end at the frozen content.
//   - The caller hands the history over (archive.ExportDelta/ImportDelta —
//     chunk bytes travel by hash, deduped; nothing travels when the
//     destination already holds the path's replica), writes the destination
//     a replica row from FileMeta, and promotes it there (PromoteReplica):
//     the new owner installs the file from its own archive, with the
//     source's identity and mtime.
//   - EndExport either evicts the path from the source (rows deleted, phys
//     file removed, tokens purged) or AbortExport abandons the move, and in
//     both cases the freeze lifts.
//
// Routing above this layer must already gate new traffic for the path to the
// destination; the freeze here only covers stragglers that were past the
// router when the gate went up.

// exportSentinel is the writer id installed by BeginExport. It is never a
// real open id (real ids are monotonic counters shifted by the shard bits, so
// reaching all-ones would take centuries of opens), so nothing but EndExport/
// AbortExport can clear it.
const exportSentinel = ^uint64(0)

// keepsHistory reports whether a path linked under mode and recovery keeps
// an archive history between moves (§4.4: the update modes, and any mode
// with RECOVERY YES).
func keepsHistory(mode datalink.ControlMode, recovery bool) bool {
	return mode.UpdateManaged() || recovery
}

// BeginExport drains and freezes a linked path and makes its archive history
// end at the frozen content, the version the new owner will install. On
// success the path rejects every new open until EndExport or AbortExport.
// Returns ErrFileBusy if the drain exceeds the configured open wait, and
// ErrNotLinked if the path is not (or no longer) linked.
func (s *Server) BeginExport(path string) error {
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	// Drain: no writer (a close archives before it lets go), no readers.
	// Readers drain too — a reader's close upcall routes by path, and after
	// the move it would reach a server that never saw its open.
	if !s.waitLocked(sh, path, func(st *syncState) bool {
		return st.writer == 0 && st.readers == 0
	}) {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s (drain timed out)", ErrFileBusy, path)
	}
	s.syncFor(sh, path).writer = exportSentinel
	sh.mu.Unlock()

	// Re-read the row after the freeze: the path may have been unlinked while
	// the drain waited.
	fi, linked := s.lookupFile(path)
	var err error
	if !linked {
		err = fmt.Errorf("%w: %s", ErrNotLinked, path)
	} else if err = s.archiveFrozen(fi); err != nil {
		err = fmt.Errorf("dlfm: export %s: %w", path, err)
	}
	if err != nil {
		s.AbortExport(path)
		return err
	}
	return nil
}

// archiveFrozen makes the archive history end at the frozen file. A mode
// that keeps no history has none (any a crashed move left behind is stale),
// so the file is archived afresh. A native write to a mode whose writes the
// file system controls mints no version, so a file that differs from its
// newest version becomes the next one and cur_version follows. Then a
// history behind cur_version — a failed archive put left it there — is
// archived at cur_version (archiveBehind).
func (s *Server) archiveFrozen(fi fileInfo) error {
	newest, ok := s.cfg.Archive.Newest(s.cfg.Name, fi.path)
	switch {
	case !keepsHistory(fi.mode, fi.recovery):
		if err := s.cfg.Archive.Drop(s.cfg.Name, fi.path); err != nil {
			return err
		}
	case ok && newest.Version >= fi.version && fi.mode.Write == datalink.CtlFS:
		if same, err := s.matchesArchived(fi.path, newest.Version); err != nil || same {
			return err
		}
		fi.version = newest.Version + 1
		if err := s.setVersionNow(fi.path, fi.version); err != nil {
			return err
		}
	}
	_, _, err := s.archiveBehind(fi.path, fi.version, s.cfg.Host.StateID())
	return err
}

// matchesArchived reports whether the file at path holds its archived
// version v.
func (s *Server) matchesArchived(path string, v archive.Version) (bool, error) {
	e, err := s.cfg.Archive.Get(s.cfg.Name, path, v)
	if err != nil {
		return false, err
	}
	archived, err := e.Snapshot()
	if err != nil {
		return false, err
	}
	defer archived.Release()
	cur, err := s.cfg.Phys.ReadFile(path)
	return err == nil && bytes.Equal(cur, archived.Bytes()), err
}

// EndExport concludes an export begun by BeginExport. With evict the path is
// removed from this server entirely — repository rows (in one transaction,
// forgetPath), physical file, token entries; without it only the freeze is
// lifted (the move failed and the source remains the owner). Callers drop
// the archive history separately.
func (s *Server) EndExport(path string, evict bool) error {
	var firstErr error
	if evict {
		firstErr = s.forgetPath(path)
		if err := s.cfg.Phys.Remove(path, rootCred); err != nil && firstErr == nil {
			firstErr = err
		}
		s.purgeTokens(path)
		s.cfg.Metrics.Counter("dlfm.shard.evictions").Inc()
	}
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	if sy, ok := sh.syncs[path]; ok && sy.writer == exportSentinel {
		sy.writer = 0
		sy.wake()
		if sy.idle() {
			sh.dropSync(path, sy)
		}
	}
	sh.mu.Unlock()
	return firstErr
}

// AbortExport lifts the freeze without evicting (the move failed before the
// destination took over). A history BeginExport archived for a mode that
// keeps none goes with it: it was only the vehicle of the move, and the file
// may change through the file system before the next one.
func (s *Server) AbortExport(path string) {
	if fi, ok := s.lookupFile(path); ok && !keepsHistory(fi.mode, fi.recovery) {
		if err := s.cfg.Archive.Drop(s.cfg.Name, path); err != nil {
			s.cfg.Metrics.Counter("dlfm.shard.abort_drop_failures").Inc()
		}
	}
	_ = s.EndExport(path, false)
}
