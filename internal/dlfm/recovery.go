package dlfm

import (
	"context"
	"errors"
	"fmt"
	pathpkg "path"

	"datalinks/internal/archive"
	"datalinks/internal/sqlmini"
)

// Restart recovery (§4.2, §4.4):
//
//  1. The repository database recovers from its own WAL (ARIES).
//  2. In-doubt sub-transactions (prepared at crash time) are resolved by
//     asking the host database for the outcome of the host transaction their
//     prepare record names — presumed abort if the host never logged a
//     commit. The same note lists the file-system side effects, which are
//     finished or undone by finishEffect, the rule a live outcome runs
//     (subTxn.end). A sub-transaction prepared without a note fails the
//     Open (UnnotedPrepareError) before anything is resolved, and a journal
//     table such a repository may hold is dropped.
//  3. One scan of the linked files decides each file, in this order:
//     a. An update entry marks an update caught in flight: its in-flight
//        content is quarantined and the last committed version installed
//        from the archive deferred.
//     b. A file missing from the physical file system (a cold start) walks
//        its version counter down to the newest archived version and is
//        installed from it deferred, or is reported lost when nothing is
//        archived.
//     c. A file that keeps a history behind its version counter — a
//        close's archive put failed, or the process died between a commit
//        point and the end of its put — is archived at the counter
//        (archiveBehind).
//     d. The at-rest permission state is re-established (setAtRest; a crash
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
// filling in rep; subs are its in-doubt sub-transactions (inDoubtSubs).
func (s *Server) runRecovery(subs []inDoubtSub, rep *RecoveryReport) error {
	// A fresh repository gets its schema here, and one an older release
	// left half-created by a crash gets whatever it lacks.
	if err := s.ensureRepoTables(); err != nil {
		return err
	}

	// The reboot cleared all kernel state on this machine, including the
	// advisory locks DLFS held for in-flight updates.
	s.cfg.Phys.ClearAllLocks()

	if err := s.resolveInDoubt(subs, rep); err != nil {
		return err
	}
	// The journal table of a repository from before prepare notes.
	if _, err := s.repo.Table("dlfm_txns"); err == nil {
		err := s.inRepo(func(tx *sqlmini.Txn) error { return tx.DropTable("dlfm_txns") })
		if err != nil {
			return fmt.Errorf("dlfm: drop the retired journal table: %w", err)
		}
	}
	for _, fi := range s.linkedFiles() {
		if err := s.recoverFile(fi, rep); err != nil {
			return err
		}
	}
	paths := pathsOf(s.pending)
	if len(paths) == 0 {
		return nil
	}
	return s.inRepo(func(tx *sqlmini.Txn) error {
		for _, p := range paths {
			if _, err := tx.DeleteKey(s.pending, sqlmini.Str(p)); err != nil {
				return err
			}
		}
		return nil
	})
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
			if err := s.setVersionNow(fi.path, entry.Version); err != nil {
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
	return s.setAtRest(fi)
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

// installDeferred installs an archived version as the file at its path
// without reading it — the one way an archived version becomes the file:
// cold start, a promote, a rollback and a coordinated restore all end here.
// The file exists at the version's size and each access reads only the
// chunks it touches, so an install costs the version's metadata, and a
// file's bytes are paid for when, and as far as, it is touched. The version
// is the file's chunk source from now on: the file holds a reference on
// every blob of it (Entry.Hold), so a later Drop of the history or a
// restore's truncate cannot free bytes the file has not loaded yet; parent
// directories are created first.
func (s *Server) installDeferred(e archive.Entry) error {
	held, err := e.Hold()
	if err != nil {
		return fmt.Errorf("v%d: %w", e.Version, err)
	}
	return s.installHeld(e, held)
}

// installHeld is installDeferred of a version the caller already holds; held
// is the file's from the call on.
func (s *Server) installHeld(e archive.Entry, held *archive.Held) error {
	if err := s.mkdirParent(e.Path); err != nil {
		held.Release()
		return err
	}
	if err := s.cfg.Phys.WriteFileDeferred(e.Path, held); err != nil {
		return fmt.Errorf("v%d: %w", e.Version, err)
	}
	return nil
}

// UnnotedPrepareError fails the Open of a repository holding an in-doubt
// sub-transaction whose prepare record carries no recovery note — one
// prepared before prepare notes, when a journal table held what it did.
// Nothing has been resolved and no file touched when it is returned.
type UnnotedPrepareError struct {
	RepoTxn uint64 // the repository transaction left prepared
}

func (e *UnnotedPrepareError) Error() string {
	return fmt.Sprintf("dlfm: repository transaction %d is in doubt without a recovery note in its prepare record (prepared by a release that kept a journal table); it cannot be resolved", e.RepoTxn)
}

// inDoubtSub is a sub-transaction recovered prepared, with its note decoded.
type inDoubtSub struct {
	repoTxn uint64
	hostTxn uint64
	effects []effect
}

// inDoubtSubs decodes the note of every sub-transaction repo recovered in
// doubt, refusing one without a note it can read (UnnotedPrepareError).
func inDoubtSubs(repo *sqlmini.DB) ([]inDoubtSub, error) {
	var subs []inDoubtSub
	for _, p := range repo.InDoubt() {
		hostTxn, effects, ok := decodeNote(p.Note)
		if !ok {
			return nil, &UnnotedPrepareError{RepoTxn: p.ID}
		}
		subs = append(subs, inDoubtSub{repoTxn: p.ID, hostTxn: hostTxn, effects: effects})
	}
	return subs, nil
}

// resolveInDoubt finishes the in-doubt sub-transactions with the outcome of
// their host transactions — presumed abort while the host has none.
func (s *Server) resolveInDoubt(subs []inDoubtSub, rep *RecoveryReport) error {
	for _, d := range subs {
		committed, known := s.cfg.Host.TxnOutcome(d.hostTxn)
		committed = committed && known
		if err := s.repo.ResolveInDoubt(d.repoTxn, committed); err != nil {
			return err
		}
		if committed {
			rep.ResolvedCommit = append(rep.ResolvedCommit, d.hostTxn)
		} else {
			rep.ResolvedAbort = append(rep.ResolvedAbort, d.hostTxn)
		}
		if err := s.resolveEffects(d.effects, committed); err != nil {
			return err
		}
	}
	return nil
}

// resolveEffects finishes or undoes a sub-transaction's side effects once
// its outcome is known: a commit in the order they were made, an abort in
// reverse. Every effect is resolved; the first error is returned.
func (s *Server) resolveEffects(effects []effect, committed bool) error {
	var firstErr error
	for i := range effects {
		e := effects[i]
		if !committed {
			e = effects[len(effects)-1-i]
		}
		if err := s.finishEffect(e, committed); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// finishEffect applies the post-outcome file-system action for one side
// effect. It is the one rule for it: the live outcome and restart recovery
// both end here. At restart no replicator is attached, so the ships are
// no-ops.
func (s *Server) finishEffect(e effect, committed bool) error {
	path := e.file.path
	switch {
	case e.action == "link" && committed:
		// Archive the initial version so an aborted first update can be
		// rolled back (§4.2) and point-in-time restore has a floor, and ship
		// it in the same stream as commits: the successors get the history
		// floor and the promotion identity, so a failover right after link
		// loses nothing. A path that already has a history (a re-link after
		// a restore) archives nothing: the current content is the newest
		// archived version, not version 0. A file no longer linked, or
		// missing after a cold start, is the per-file scan's to decide.
		fi, linked := s.lookupFile(path)
		if !linked || !keepsHistory(fi.mode, fi.recovery) || !s.physExists(path) {
			return nil
		}
		ver, _, err := s.archiveBehind(path, 0, s.cfg.Host.StateID())
		r := s.replicator()
		if err != nil || r == nil {
			return err
		}
		meta, _, mtime, err := s.FileMeta(path)
		if err != nil {
			return err
		}
		return r.ShipCommit(context.Background(), path, int64(ver), mtime, meta)
	case e.action == "link":
		// Undo the eager takeover / permission change.
		return s.release(e.file)
	case e.action == "unlink" && committed:
		// The deferred restoration: the owner gets the file back, the
		// history and the tokens go, and the unlink rides the replication
		// stream so a later failover cannot resurrect the path.
		if err := s.release(e.file); err != nil {
			return err
		}
		if err := s.cfg.Archive.Drop(s.cfg.Name, path); err != nil {
			return err
		}
		s.purgeTokens(path)
		if rep := s.replicator(); rep != nil {
			return rep.ShipUnlink(path)
		}
		return nil
	case e.action == "unlink":
		// An aborted unlink changed nothing on the file system.
		return nil
	default:
		return fmt.Errorf("dlfm: unknown side effect %q", e.action)
	}
}

// archiveBehind is the one rule for a history that ends before ver, the
// file's cur_version (an empty history counts): the file's current bytes are
// archived as ver, under the state id the pending-archive row of a failed put
// gives ver — the one its commit was given — or stateID when there is none. It
// returns the newest archived version afterwards and whether it archived.
func (s *Server) archiveBehind(path string, ver archive.Version, stateID uint64) (archive.Version, bool, error) {
	if newest, ok := s.cfg.Archive.Newest(s.cfg.Name, path); ok && newest.Version >= ver {
		return newest.Version, false, nil
	}
	if row, ok := rowOf(s.pending, path); ok && row[1].I == int64(ver) {
		stateID = uint64(row[2].I) // state_id
	}
	return ver, true, s.archiveCurrent(path, ver, stateID)
}

// archiveCurrent archives the file's current content as the given version
// from a capture, as a close does, and hands the file the version as its
// chunk source. A stale-version rejection is benign here: a close that was
// still in its archive put when the simulated crash hit may have completed
// the same version concurrently — the copy is already on the device.
func (s *Server) archiveCurrent(path string, ver archive.Version, stateID uint64) error {
	snap, err := s.cfg.Phys.CaptureFile(path)
	if err != nil {
		return err
	}
	defer snap.Release()
	_, err = s.cfg.Archive.PutSnapshot(s.cfg.Name, path, ver, stateID, snap)
	switch {
	case err == nil:
		s.handSource(path, int64(ver), snap)
	case !errors.Is(err, archive.ErrStale):
		return err
	}
	return nil
}
