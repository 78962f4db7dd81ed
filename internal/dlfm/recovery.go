package dlfm

import (
	"errors"
	"fmt"
	pathpkg "path"

	"datalinks/internal/archive"
	"datalinks/internal/extent"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
)

func intToUID(v int64) fs.UID       { return fs.UID(v) }
func intToMode(v int64) fs.FileMode { return fs.FileMode(v) }

// Restart recovery (§4.2, §4.4):
//
//  1. The repository database recovers from its own WAL (ARIES).
//  2. In-doubt sub-transactions (prepared at crash time) are resolved by
//     asking the host database for the outcome of the bound host
//     transaction — presumed abort if the host never logged a commit.
//     File-system side effects are compensated accordingly.
//  3. One scan of the linked files decides each file, in this order:
//     a. An update entry marks an update caught in flight: its in-flight
//        content is quarantined and the last committed version restored
//        from the archive.
//     b. A file missing from the physical file system (a cold start) walks
//        its version counter down to the newest archived version and is
//        installed from it deferred, or is reported lost when nothing is
//        archived.
//     c. A file that keeps a history behind its version counter — a
//        close's archive put failed, or the process died between a commit
//        point and the end of its put — is archived at the counter
//        (archiveBehind).
//     d. The canonical at-rest permission state is re-established (a crash
//        during a takeover leaves DLFM-owned files), unless the file was
//        lost or (a) already did it.
//  4. The pending-archive rows are deleted: (c) archived what every linked
//     file lacked, and a row for a path no longer linked is stale.
//
// Token entries, Sync entries and open states are volatile by design: a
// machine crash ends every open.

// RecoveryReport summarizes what DLFM restart recovery did.
type RecoveryReport struct {
	Repo             *sqlmini.RecoveryReport
	ResolvedCommit   []uint64 // host txns resolved as committed
	ResolvedAbort    []uint64 // host txns resolved as aborted (incl. presumed)
	RestoredFiles    []string // files rolled back to their last committed version
	ArchivedVersions []string // committed versions archived during recovery
	// Cold-start reconciliation: files installed from their newest archived
	// version because the physical file system did not survive — each
	// installed deferred, its bytes loaded from the archive on first access —
	// version counters walked back to the newest archived version (the
	// committed bytes died with the process in a close that never returned,
	// before its archive put finished), and
	// linked files with no archived copy to install from.
	MaterializedFiles  []string
	ReconciledVersions []string
	LostFiles          []string
}

// runRecovery runs restart recovery over the recovered repository database,
// filling in rep.
func (s *Server) runRecovery(rep *RecoveryReport) error {
	// A fresh repository gets its schema here, and a crash in the middle of
	// that leaves a half-created one; fill in whatever is missing.
	if err := s.ensureRepoTables(); err != nil {
		return err
	}

	// The reboot cleared all kernel state on this machine, including the
	// advisory locks DLFS held for in-flight updates.
	s.cfg.Phys.ClearAllLocks()

	if err := s.seedCounters(); err != nil {
		return err
	}
	if err := s.resolveInDoubt(rep); err != nil {
		return err
	}
	tbl, err := s.repo.Table("dlfm_files")
	if err != nil {
		return err
	}
	var files []fileInfo
	tbl.Scan(func(_ sqlmini.RowID, row sqlmini.Row) bool {
		files = append(files, decodeFileRow(row))
		return true
	})
	for _, fi := range files {
		if err := s.recoverFile(fi, rep); err != nil {
			return err
		}
	}
	_, err = s.repo.Exec(`DELETE FROM dlfm_pending_archive`)
	return err
}

// recoverFile decides one linked file at restart, in the order the header
// lists.
func (s *Server) recoverFile(fi fileInfo, rep *RecoveryReport) error {
	switch {
	case s.hasUpdateEntry(fi.path):
		if err := s.restoreLastCommitted(fi.path); err != nil {
			return err
		}
		rep.RestoredFiles = append(rep.RestoredFiles, fi.path)
		return nil // the restore re-established the at-rest state
	case !s.physExists(fi.path):
		// The committed bytes beyond the newest archived version died with
		// the process in a close that never returned, before its archive put
		// finished, so the archive's view is the recoverable truth.
		entry, err := s.cfg.Archive.Latest(s.cfg.Name, fi.path)
		if err != nil {
			rep.LostFiles = append(rep.LostFiles, fi.path)
			return nil
		}
		if entry.Version < fi.version {
			if _, err := s.repo.Exec(`UPDATE dlfm_files SET cur_version = ? WHERE path = ?`,
				sqlmini.Int(int64(entry.Version)), sqlmini.Str(fi.path)); err != nil {
				return err
			}
			rep.ReconciledVersions = append(rep.ReconciledVersions,
				fmt.Sprintf("%s: v%d -> v%d", fi.path, fi.version, entry.Version))
		}
		if err := s.installDeferred(entry); err != nil {
			return fmt.Errorf("dlfm: materialize %s: %w", fi.path, err)
		}
		rep.MaterializedFiles = append(rep.MaterializedFiles, fi.path)
	case keepsHistory(fi.mode, fi.recovery):
		_, archived, err := s.archiveBehind(fi.path, fi.version, s.cfg.Host.StateID())
		if err != nil {
			return err
		}
		if archived {
			rep.ArchivedVersions = append(rep.ArchivedVersions, fmt.Sprintf("%s@v%d", fi.path, fi.version))
		}
	}
	return s.restoreLinkState(fi.path, fi)
}

// physExists reports whether path survived on the physical file system —
// true on a warm restart, usually false after a whole-process kill (the
// simulated phys lives in RAM).
func (s *Server) physExists(path string) bool {
	_, err := s.cfg.Phys.Lookup(path)
	return err == nil
}

// mkdirParent creates the parent directories of a restored path — on a
// cold-started file system not even the directory tree survived.
func (s *Server) mkdirParent(p string) error {
	if dir := pathpkg.Dir(p); dir != "" && dir != "/" && dir != "." {
		if err := s.cfg.Phys.MkdirAll(dir, rootCred, 0o777); err != nil {
			return fmt.Errorf("dlfm: restore %s: %w", p, err)
		}
	}
	return nil
}

// writeRestored writes an archive snapshot to the physical path, creating
// parent directories first.
func (s *Server) writeRestored(p string, snap *extent.Snapshot) error {
	if err := s.mkdirParent(p); err != nil {
		return err
	}
	return s.cfg.Phys.WriteFileSnapshot(p, snap)
}

// installDeferred installs an archived version as the file at its path
// without reading it — cold start and a promote both end here: the file
// exists at the version's size and its bytes are read on first access, so a
// cold start costs the files' metadata, and each file's bytes are paid for
// when, and if, it is touched. The file holds a reference on every blob of
// the version from now on (Entry.Hold), so a later Drop of the history or a
// restore's truncate cannot free the bytes before the first access loads
// them; parent directories are created first.
func (s *Server) installDeferred(e archive.Entry) error {
	held, err := e.Hold()
	if err != nil {
		return fmt.Errorf("v%d: %w", e.Version, err)
	}
	if err := s.mkdirParent(e.Path); err != nil {
		held.Release()
		return err
	}
	if err := s.cfg.Phys.WriteFileDeferred(e.Path, held); err != nil {
		return fmt.Errorf("v%d: %w", e.Version, err)
	}
	return nil
}

// seedCounters re-seeds the journal-id counter past any surviving rows.
func (s *Server) seedCounters() error {
	tbl, err := s.repo.Table("dlfm_txns")
	if err != nil {
		return err
	}
	var maxID int64
	tbl.Scan(func(_ sqlmini.RowID, row sqlmini.Row) bool {
		if row[0].I > maxID {
			maxID = row[0].I
		}
		return true
	})
	s.mu.Lock()
	s.nextJournal = maxID
	s.mu.Unlock()
	return nil
}

// journalRow is a decoded dlfm_txns row.
type journalRow struct {
	id       int64
	repoTxn  uint64
	hostTxn  uint64
	action   string
	path     string
	origUID  int64
	origMode int64
	recovery bool
}

// journalRowsFor reads the journal rows written by one in-doubt repository
// transaction. The rows were redone by repository recovery and are readable
// by direct scan (the executor's locks don't apply to storage-level scans).
func (s *Server) journalRowsFor(repoTxn uint64) ([]journalRow, error) {
	tbl, err := s.repo.Table("dlfm_txns")
	if err != nil {
		return nil, err
	}
	var out []journalRow
	tbl.Scan(func(_ sqlmini.RowID, row sqlmini.Row) bool {
		if uint64(row[1].I) == repoTxn {
			out = append(out, journalRow{
				id:       row[0].I,
				repoTxn:  uint64(row[1].I),
				hostTxn:  uint64(row[2].I),
				action:   row[3].S,
				path:     row[4].S,
				origUID:  row[5].I,
				origMode: row[6].I,
				recovery: row[7].B,
			})
		}
		return true
	})
	return out, nil
}

// resolveInDoubt finishes prepared sub-transactions using the host outcome.
func (s *Server) resolveInDoubt(rep *RecoveryReport) error {
	for _, repoTxn := range s.repo.InDoubt() {
		rows, err := s.journalRowsFor(repoTxn)
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			// No journal — nothing to compensate; presumed abort.
			if err := s.repo.ResolveInDoubt(repoTxn, false); err != nil {
				return err
			}
			continue
		}
		hostTxn := rows[0].hostTxn
		committed, known := s.cfg.Host.TxnOutcome(hostTxn)
		if !known {
			committed = false // presumed abort
		}
		if err := s.repo.ResolveInDoubt(repoTxn, committed); err != nil {
			return err
		}
		if committed {
			rep.ResolvedCommit = append(rep.ResolvedCommit, hostTxn)
		} else {
			rep.ResolvedAbort = append(rep.ResolvedAbort, hostTxn)
		}
		// Compensate or complete the file-system side effects.
		for _, r := range rows {
			if err := s.compensateJournal(r, committed); err != nil {
				return err
			}
		}
		if _, err := s.repo.Exec(`DELETE FROM dlfm_txns WHERE host_txn = ?`, sqlmini.Int(int64(hostTxn))); err != nil {
			return fmt.Errorf("dlfm: clear the journal of host txn %d: %w", hostTxn, err)
		}
	}
	return nil
}

// compensateJournal applies the post-outcome file-system action for one
// journaled side effect.
func (s *Server) compensateJournal(r journalRow, committed bool) error {
	switch r.action {
	case "link":
		if committed {
			// Eager FS changes stand; the per-file scan archives version 0.
			return nil
		}
		// Aborted link: undo the eager permission/ownership change.
		node, err := s.cfg.Phys.Lookup(r.path)
		if err != nil {
			return nil // file vanished; nothing to restore
		}
		if err := s.cfg.Phys.Chown(node, rootCred, intToUID(r.origUID)); err != nil {
			return err
		}
		return s.cfg.Phys.Chmod(node, rootCred, intToMode(r.origMode))
	case "unlink":
		if !committed {
			return nil // deferred FS change never ran
		}
		// Committed unlink: complete the deferred restoration.
		node, err := s.cfg.Phys.Lookup(r.path)
		if err != nil {
			return nil
		}
		if err := s.cfg.Phys.Chown(node, rootCred, intToUID(r.origUID)); err != nil {
			return err
		}
		if err := s.cfg.Phys.Chmod(node, rootCred, intToMode(r.origMode)); err != nil {
			return err
		}
		return s.cfg.Archive.Drop(s.cfg.Name, r.path)
	case "close":
		// The repository outcome (version counter, update-entry deletion)
		// was already resolved with the transaction; the per-file scan
		// restores or archives from that state.
		return nil
	default:
		return fmt.Errorf("dlfm: unknown journal action %q", r.action)
	}
}

// archiveBehind is the one rule for a history that ends before ver, the
// file's cur_version (an empty history counts): the file's current bytes are
// archived as ver, under the state id the pending-archive row of a failed put
// gives ver — the one its commit was given — or stateID when there is none. It
// returns the newest archived version afterwards and whether it archived.
func (s *Server) archiveBehind(path string, ver archive.Version, stateID uint64) (archive.Version, bool, error) {
	if newest, ok := s.cfg.Archive.Newest(s.cfg.Name, path); ok && newest >= ver {
		return newest, false, nil
	}
	if row, err := s.repo.QueryRow(`SELECT state_id FROM dlfm_pending_archive WHERE path = ? AND version = ?`,
		sqlmini.Str(path), sqlmini.Int(int64(ver))); err == nil {
		stateID = uint64(row[0].I)
	}
	return ver, true, s.archiveCurrent(path, ver, stateID)
}

// archiveCurrent archives the file's current content as the given version
// via a manifest snapshot. A stale-version rejection is benign here: a close
// that was still in its archive put when the simulated crash hit may have
// completed the same version concurrently — the copy is already on the
// device.
func (s *Server) archiveCurrent(path string, ver archive.Version, stateID uint64) error {
	snap, err := s.cfg.Phys.SnapshotFile(path)
	if err != nil {
		return err
	}
	_, err = s.cfg.Archive.PutSnapshot(s.cfg.Name, path, ver, stateID, snap)
	snap.Release()
	if err != nil && !errors.Is(err, archive.ErrStale) {
		return err
	}
	return nil
}
