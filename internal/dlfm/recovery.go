package dlfm

import (
	"errors"
	"fmt"
	pathpkg "path"

	"datalinks/internal/archive"
	"datalinks/internal/extent"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/wal"
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
//  3. Every durable update entry marks a file whose update transaction was
//     in flight: its in-flight content is quarantined and the last committed
//     version restored from the archive.
//  4. Committed-but-unarchived versions (pending-archive rows, or a version
//     counter ahead of the archive) are archived now.
//  5. The canonical at-rest permission state is re-established for every
//     linked file (a crash during a takeover leaves DLFM-owned files).
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
	// Cold-start reconciliation: files whose content had to be materialized
	// from the archive because the physical file system did not survive,
	// version counters walked back to the newest archived version (the
	// committed bytes died with the process before archiving finished), and
	// linked files with no archived copy to materialize from.
	MaterializedFiles  []string
	ReconciledVersions []string
	LostFiles          []string
}

// Recover rebuilds a DLFM server after a crash. crashedLog is the durable
// prefix of the repository WAL (from Server.CrashRepo or sqlmini semantics);
// cfg must reference the same physical file system and archive store, which
// survive the crash as "disk" state.
func Recover(cfg Config, crashedLog *wal.Log) (*Server, *RecoveryReport, error) {
	cfg.RepoLog = crashedLog
	if cfg.RepoDir != "" && cfg.RepoCheckpointBytes <= 0 {
		cfg.RepoCheckpointBytes = DefaultRepoCheckpointBytes
	}
	repo, repoRep, err := sqlmini.Recover(crashedLog, repoOptions(cfg))
	if err != nil {
		return nil, nil, fmt.Errorf("dlfm: repository recovery: %w", err)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Adopt the recovered repository in place of the fresh one New made.
	s.repo = repo
	rep := &RecoveryReport{Repo: repoRep}

	// A crash in the middle of first-boot schema creation can leave a
	// half-created repository; fill in whatever is missing.
	if err := s.ensureRepoTables(); err != nil {
		return nil, nil, err
	}

	// The reboot cleared all kernel state on this machine, including the
	// advisory locks DLFS held for in-flight updates.
	cfg.Phys.ClearAllLocks()

	if err := s.seedCounters(); err != nil {
		return nil, nil, err
	}
	if err := s.resolveInDoubt(rep); err != nil {
		return nil, nil, err
	}
	if err := s.recoverPendingArchives(rep); err != nil {
		return nil, nil, err
	}
	if err := s.materializeMissingFiles(rep); err != nil {
		return nil, nil, err
	}
	if err := s.recoverInFlightUpdates(rep); err != nil {
		return nil, nil, err
	}
	if err := s.reestablishLinkStates(); err != nil {
		return nil, nil, err
	}
	return s, rep, nil
}

// physExists reports whether path survived on the physical file system —
// true on a warm restart, usually false after a whole-process kill (the
// simulated phys lives in RAM).
func (s *Server) physExists(path string) bool {
	_, err := s.cfg.Phys.Lookup(path)
	return err == nil
}

// reconcileVersionDown walks a file's version counter back to the newest
// archived version: the committed bytes beyond it died with the process
// before their archive copy completed, so the archive's view IS the
// recoverable truth.
func (s *Server) reconcileVersionDown(fi fileInfo, rep *RecoveryReport) error {
	latest, ok := s.cfg.Archive.Newest(s.cfg.Name, fi.path)
	if !ok {
		return nil // nothing archived; the materialize pass reports the loss
	}
	if latest >= fi.version {
		return nil
	}
	if _, err := s.repo.Exec(`UPDATE dlfm_files SET cur_version = ? WHERE path = ?`,
		sqlmini.Int(int64(latest)), sqlmini.Str(fi.path)); err != nil {
		return err
	}
	rep.ReconciledVersions = append(rep.ReconciledVersions,
		fmt.Sprintf("%s: v%d -> v%d", fi.path, fi.version, latest))
	return nil
}

// writeRestored writes an archive snapshot to the physical path, creating
// parent directories first — on a cold-started file system not even the
// directory tree survived.
func (s *Server) writeRestored(p string, snap *extent.Snapshot) error {
	if dir := pathpkg.Dir(p); dir != "" && dir != "/" && dir != "." {
		if err := s.cfg.Phys.MkdirAll(dir, rootCred, 0o777); err != nil {
			return fmt.Errorf("dlfm: restore %s: %w", p, err)
		}
	}
	return s.cfg.Phys.WriteFileSnapshot(p, snap)
}

// materializeMissingFiles restores linked files that no longer exist on the
// physical file system from their newest archived version — the cold-start
// counterpart of §4.2's restore, for when the whole machine (not just DLFM)
// lost its volatile state. Files mid-update are left to the in-flight pass;
// files with no archived copy are reported lost.
func (s *Server) materializeMissingFiles(rep *RecoveryReport) error {
	tbl, err := s.repo.Table("dlfm_files")
	if err != nil {
		return err
	}
	var missing []fileInfo
	tbl.Scan(func(_ sqlmini.RowID, row sqlmini.Row) bool {
		fi := decodeFileRow(row)
		if !s.physExists(fi.path) && !s.hasUpdateEntry(fi.path) {
			missing = append(missing, fi)
		}
		return true
	})
	for _, fi := range missing {
		entry, err := s.cfg.Archive.Latest(s.cfg.Name, fi.path)
		if err != nil {
			rep.LostFiles = append(rep.LostFiles, fi.path)
			continue
		}
		snap, err := entry.Snapshot()
		if err != nil {
			return fmt.Errorf("dlfm: materialize %s v%d: %w", fi.path, entry.Version, err)
		}
		err = s.writeRestored(fi.path, snap)
		snap.Release()
		if err != nil {
			return err
		}
		rep.MaterializedFiles = append(rep.MaterializedFiles, fi.path)
	}
	return nil
}

// CrashRepo simulates a DLFM machine crash, returning the durable repository
// log for Recover. The physical FS and archive survive as-is.
func (s *Server) CrashRepo() *wal.Log {
	return s.repo.Crash()
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
			if err := s.compensateJournal(r, committed, rep); err != nil {
				return err
			}
		}
		_, _ = s.repo.Exec(`DELETE FROM dlfm_txns WHERE host_txn = ?`, sqlmini.Int(int64(hostTxn)))
	}
	return nil
}

// compensateJournal applies the post-outcome file-system action for one
// journaled side effect.
func (s *Server) compensateJournal(r journalRow, committed bool, rep *RecoveryReport) error {
	switch r.action {
	case "link":
		if committed {
			// Eager FS changes stand. Ensure version 0 is archived.
			if fi, ok := s.lookupFile(r.path); ok && (fi.mode.UpdateManaged() || fi.recovery) && s.physExists(r.path) {
				if _, archived := s.cfg.Archive.Newest(s.cfg.Name, r.path); !archived {
					if err := s.archiveCurrent(r.path, 0, s.cfg.Host.StateID()); err != nil {
						return err
					}
					rep.ArchivedVersions = append(rep.ArchivedVersions, r.path)
				}
			}
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
		// was already resolved with the transaction; the later passes handle
		// restore/archive from that state.
		return nil
	default:
		return fmt.Errorf("dlfm: unknown journal action %q", r.action)
	}
}

// recoverPendingArchives archives committed versions whose archive copy was
// interrupted, and reconciles version counters with the archive.
func (s *Server) recoverPendingArchives(rep *RecoveryReport) error {
	// Pass 1: explicit pending-archive rows (exact state ids).
	tbl, err := s.repo.Table("dlfm_pending_archive")
	if err != nil {
		return err
	}
	type pending struct {
		path    string
		version int64
		stateID int64
	}
	var rows []pending
	tbl.Scan(func(_ sqlmini.RowID, row sqlmini.Row) bool {
		rows = append(rows, pending{path: row[0].S, version: row[1].I, stateID: row[2].I})
		return true
	})
	for _, p := range rows {
		switch {
		case s.cfg.Archive.HasVersion(s.cfg.Name, p.path, archive.Version(p.version)):
			// The archiver finished before the crash; only the cleanup of
			// the pending row was lost.
		case s.physExists(p.path):
			if err := s.archiveCurrent(p.path, archive.Version(p.version), uint64(p.stateID)); err != nil {
				return err
			}
			rep.ArchivedVersions = append(rep.ArchivedVersions, fmt.Sprintf("%s@v%d", p.path, p.version))
		default:
			// Cold start: the committed bytes lived only on the volatile
			// file system and were never archived. Walk the counter back to
			// what the archive actually holds.
			if fi, ok := s.lookupFile(p.path); ok {
				if err := s.reconcileVersionDown(fi, rep); err != nil {
					return err
				}
			}
		}
		if _, err := s.repo.Exec(`DELETE FROM dlfm_pending_archive WHERE path = ?`, sqlmini.Str(p.path)); err != nil {
			return err
		}
	}
	// Pass 2: version counters ahead of the archive (crash between the
	// commit point and the pending-archive insert).
	files, err := s.repo.Table("dlfm_files")
	if err != nil {
		return err
	}
	var lagging []fileInfo
	files.Scan(func(_ sqlmini.RowID, row sqlmini.Row) bool {
		fi := decodeFileRow(row)
		if !fi.mode.UpdateManaged() && !fi.recovery {
			return true
		}
		if latest, ok := s.cfg.Archive.Newest(s.cfg.Name, fi.path); !ok || latest < fi.version {
			lagging = append(lagging, fi)
		}
		return true
	})
	for _, fi := range lagging {
		// Skip files that are mid-update (their update entry triggers a
		// restore instead).
		if s.hasUpdateEntry(fi.path) {
			continue
		}
		if !s.physExists(fi.path) {
			// Cold start: the bytes for the newer version are gone. Adopt the
			// archive's newest version as the current one.
			if err := s.reconcileVersionDown(fi, rep); err != nil {
				return err
			}
			continue
		}
		if err := s.archiveCurrent(fi.path, fi.version, s.cfg.Host.StateID()); err != nil {
			return err
		}
		rep.ArchivedVersions = append(rep.ArchivedVersions, fmt.Sprintf("%s@v%d", fi.path, fi.version))
	}
	return nil
}

// archiveCurrent archives the file's current content as the given version
// via a manifest snapshot. A stale-version rejection is benign here: an
// archiver goroutine that survived the simulated crash may have completed
// the same version concurrently — the copy is already on the device.
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

// recoverInFlightUpdates rolls back updates caught open by the crash.
func (s *Server) recoverInFlightUpdates(rep *RecoveryReport) error {
	for _, path := range s.UpdatesInFlight() {
		if err := s.restoreLastCommitted(path); err != nil {
			return err
		}
		rep.RestoredFiles = append(rep.RestoredFiles, path)
	}
	return nil
}

// reestablishLinkStates restores at-rest ownership/permissions for every
// linked file (idempotent; cleans up interrupted takeovers).
func (s *Server) reestablishLinkStates() error {
	tbl, err := s.repo.Table("dlfm_files")
	if err != nil {
		return err
	}
	var all []fileInfo
	tbl.Scan(func(_ sqlmini.RowID, row sqlmini.Row) bool {
		all = append(all, decodeFileRow(row))
		return true
	})
	for _, fi := range all {
		if err := s.restoreLinkState(fi.path, fi); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				// Reported as lost by the materialize pass; nothing at rest
				// to re-establish.
				continue
			}
			return err
		}
	}
	return nil
}
