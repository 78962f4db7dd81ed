package dlfm

import (
	"errors"
	"fmt"

	"datalinks/internal/datalink"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
)

// Link processing (§2.2): when a reference is inserted into or deleted from
// a DATALINK column, the DataLinks engine directs DLFM to start or stop
// managing the file. The repository changes run in a sub-transaction of the
// host database transaction; file-system side effects are applied eagerly
// and compensated on abort, exactly as the paper describes ("if the SQL
// transaction is rolled back, the changes made by the DLFM are undone").

// Errors surfaced to the engine (which turns them into SQL statement errors).
var (
	ErrAlreadyLinked = errors.New("dlfm: file already linked")
	ErrNotLinked     = errors.New("dlfm: file not linked")
	ErrFileBusy      = errors.New("dlfm: file is open or being updated")
	ErrNoSuchFile    = errors.New("dlfm: no such file on file server")
)

// subFor returns the repository sub-transaction bound to a host transaction,
// creating it on first use.
func (s *Server) subFor(hostTxn uint64) *subTxn {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub, ok := s.subs[hostTxn]
	if !ok {
		sub = &subTxn{repo: s.repo.Begin()}
		s.subs[hostTxn] = sub
	}
	return sub
}

// journalID allocates a unique id for a dlfm_txns row.
func (s *Server) journalID() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextJournal++
	return s.nextJournal
}

// LinkFile starts managing a file as part of host transaction hostTxn.
func (s *Server) LinkFile(hostTxn uint64, path string, opts datalink.ColumnOptions) error {
	tr := s.cfg.Tracer.Start("link")
	tr.Root().SetAttr("path", path)
	err := s.linkFile(hostTxn, path, opts)
	if err != nil {
		tr.Root().SetAttr("error", err.Error())
	}
	tr.Finish()
	return err
}

func (s *Server) linkFile(hostTxn uint64, path string, opts datalink.ColumnOptions) error {
	if !opts.Mode.Linked() {
		return fmt.Errorf("dlfm: mode %s does not link files", opts.Mode)
	}
	node, err := s.cfg.Phys.Lookup(path)
	if err != nil {
		return fmt.Errorf("%w: %s", ErrNoSuchFile, path)
	}
	attr, err := s.cfg.Phys.Getattr(node)
	if err != nil {
		return err
	}
	if attr.Type != fs.TypeFile {
		return fmt.Errorf("dlfm: %s is not a regular file", path)
	}
	// With the strict-link-check extension, opens of unlinked files are
	// registered in the Sync table, so a link of a currently-open file can
	// be detected and rejected — closing the §4.5 window of inconsistency.
	// Without it, the link succeeds and the window exists (the paper's
	// shipped behaviour).
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	if st, ok := sh.syncs[path]; ok && (st.writer != 0 || st.readers > 0) {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s is open", ErrFileBusy, path)
	}
	sh.mu.Unlock()

	sub := s.subFor(hostTxn)
	// Repository insert; the primary key rejects double links.
	_, err = sub.repo.Exec(
		`INSERT INTO dlfm_files (path, mode, recovery, token_ttl, orig_uid, orig_mode, cur_version)
		 VALUES (?, ?, ?, ?, ?, ?, 0)`,
		sqlmini.Str(path), sqlmini.Str(opts.Mode.String()), sqlmini.Bool(opts.Recovery),
		sqlmini.Int(int64(opts.TokenTTLSecs)), sqlmini.Int(int64(attr.UID)), sqlmini.Int(int64(attr.Mode)))
	if err != nil {
		return fmt.Errorf("%w: %s", ErrAlreadyLinked, path)
	}
	fi := fileInfo{path: path, mode: opts.Mode, recovery: opts.Recovery, origUID: attr.UID, origMode: attr.Mode}
	r, err := s.journal(sub.repo, hostTxn, "link", fi)
	if err != nil {
		return err
	}
	sub.rows = append(sub.rows, r)
	// Apply the file-system constraints for the control mode (§2.2, §4); an
	// abort gives the file back to its owner (compensateJournal).
	if err := s.setAtRest(fi); err != nil {
		return err
	}
	s.cfg.Metrics.Counter("dlfm.link").Inc()
	return nil
}

// setAtRest gives a file the owner and permission bits its control mode
// requires at rest (Table 1): DLFM owns a full-control file read-only (§2.2),
// a DB-write mode keeps its owner without write permission, and rff — or
// NFF, a file DLFM gives back to its owner — keeps its original owner and
// mode. Link, close, restore, promote, reconciliation and recovery all end
// here. Idempotent.
func (s *Server) setAtRest(fi fileInfo) error {
	node, err := s.cfg.Phys.Lookup(fi.path)
	if err != nil {
		return err
	}
	uid, mode := fi.origUID, fi.origMode
	switch {
	case fi.mode.FullControl():
		uid, mode = DefaultUID, 0o400
	case fi.mode.Write != datalink.CtlFS:
		mode &^= 0o222
	}
	if err := s.cfg.Phys.Chown(node, rootCred, uid); err != nil {
		return err
	}
	return s.cfg.Phys.Chmod(node, rootCred, mode)
}

// release gives a file DLFM stops controlling back to its original owner and
// mode, setAtRest's no-control case. A file that is gone has nothing to give
// back.
func (s *Server) release(fi fileInfo) error {
	if !s.physExists(fi.path) {
		return nil
	}
	fi.mode = datalink.NFF
	return s.setAtRest(fi)
}

// UnlinkFile stops managing a file as part of host transaction hostTxn.
// Rejected while the file is open or being updated (§4.5).
func (s *Server) UnlinkFile(hostTxn uint64, path string) error {
	tr := s.cfg.Tracer.Start("unlink")
	tr.Root().SetAttr("path", path)
	err := s.unlinkFile(hostTxn, path)
	if err != nil {
		tr.Root().SetAttr("error", err.Error())
	}
	tr.Finish()
	return err
}

func (s *Server) unlinkFile(hostTxn uint64, path string) error {
	fi, linked := s.lookupFile(path)
	if !linked {
		return fmt.Errorf("%w: %s", ErrNotLinked, path)
	}
	// Synchronization with open files: any Sync entry or update entry
	// rejects the unlink (§4.5). A writer holds its Sync entry until its
	// close has archived, so no archive put outlives it into the history
	// Drop removes.
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	st, ok := sh.syncs[path]
	busy := ok && (st.writer != 0 || st.readers > 0)
	sh.mu.Unlock()
	if busy {
		return fmt.Errorf("%w: %s", ErrFileBusy, path)
	}
	if s.hasUpdateEntry(path) {
		return fmt.Errorf("%w: %s (update in progress)", ErrFileBusy, path)
	}

	sub := s.subFor(hostTxn)
	n, err := sub.repo.Exec(`DELETE FROM dlfm_files WHERE path = ?`, sqlmini.Str(path))
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("%w: %s", ErrNotLinked, path)
	}
	// The file-system restoration waits for the commit (compensateJournal):
	// the file stays protected if the transaction rolls back.
	r, err := s.journal(sub.repo, hostTxn, "unlink", fi)
	if err != nil {
		return err
	}
	sub.rows = append(sub.rows, r)
	s.cfg.Metrics.Counter("dlfm.unlink").Inc()
	return nil
}

// hasUpdateEntry reports whether a durable update entry exists for path.
func (s *Server) hasUpdateEntry(path string) bool {
	tbl, err := s.repo.Table("dlfm_updates")
	if err != nil {
		return false
	}
	_, ok := tbl.LookupPK(sqlmini.Str(path))
	return ok
}

// purgeTokens drops all token entries for a path. The token table is guarded
// by tokMu (not the open/sync mutex): locking s.mu here raced every
// token admission.
func (s *Server) purgeTokens(path string) {
	s.tokMu.Lock()
	defer s.tokMu.Unlock()
	for k := range s.tokens {
		if k.path == path {
			delete(s.tokens, k)
		}
	}
}

// ---- XRM: the sub-transaction commits or aborts with the host (§2.2) ----

var _ sqlmini.XRM = (*Server)(nil)

// XRMName identifies this DLFM in host transaction errors.
func (s *Server) XRMName() string { return "dlfm:" + s.cfg.Name }

// PrepareXRM makes the sub-transaction's pending outcome durable.
func (s *Server) PrepareXRM(hostTxn uint64) error {
	s.mu.Lock()
	sub, ok := s.subs[hostTxn]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("dlfm: no sub-transaction for host txn %d", hostTxn)
	}
	return sub.repo.Prepare()
}

// CommitXRM finishes the sub-transaction on the host's commit.
func (s *Server) CommitXRM(hostTxn uint64) error {
	return s.endSub(hostTxn, true)
}

// AbortXRM rolls the sub-transaction back on the host's abort.
func (s *Server) AbortXRM(hostTxn uint64) error {
	return s.endSub(hostTxn, false)
}

// endSub ends the sub-transaction of hostTxn with the host's outcome and
// resolves the journal rows it wrote, as restart recovery resolves the rows
// of one left in doubt.
func (s *Server) endSub(hostTxn uint64, committed bool) error {
	s.mu.Lock()
	sub, ok := s.subs[hostTxn]
	delete(s.subs, hostTxn)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("dlfm: no sub-transaction for host txn %d", hostTxn)
	}
	end := sub.repo.Abort
	if committed {
		end = sub.repo.Commit
	}
	if err := end(); err != nil {
		return err
	}
	err := s.resolveJournal(sub.rows, committed)
	// The journal rows served their purpose; clean them up outside the
	// resolved transaction.
	s.cleanupJournal(hostTxn)
	return err
}

// cleanupJournal removes resolved journal rows for a host transaction. A
// failed delete is counted, dlfm.journal.cleanup_failures, not returned.
func (s *Server) cleanupJournal(hostTxn uint64) {
	if _, err := s.repo.Exec(`DELETE FROM dlfm_txns WHERE host_txn = ?`, sqlmini.Int(int64(hostTxn))); err != nil {
		// At restart resolveInDoubt skips the row: it reads only in-doubt rows.
		s.cfg.Metrics.Counter("dlfm.journal.cleanup_failures").Inc()
	}
}
