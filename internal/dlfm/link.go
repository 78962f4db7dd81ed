package dlfm

import (
	"context"
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
	// Journal the side effect for 2PC recovery.
	_, err = sub.repo.Exec(
		`INSERT INTO dlfm_txns (id, repo_txn, host_txn, action, path, orig_uid, orig_mode, recovery)
		 VALUES (?, ?, ?, 'link', ?, ?, ?, ?)`,
		sqlmini.Int(s.journalID()), sqlmini.Int(int64(sub.repo.ID())), sqlmini.Int(int64(hostTxn)),
		sqlmini.Str(path), sqlmini.Int(int64(attr.UID)), sqlmini.Int(int64(attr.Mode)), sqlmini.Bool(opts.Recovery))
	if err != nil {
		return err
	}

	// Apply the file-system constraints for the control mode (§2.2, §4).
	if err := s.applyLinkState(node, opts.Mode); err != nil {
		return err
	}
	origUID, origMode := attr.UID, attr.Mode
	sub.comps = append(sub.comps, compensation{
		onAbort: func() error {
			// Undo the takeover / permission change.
			if err := s.cfg.Phys.Chown(node, rootCred, origUID); err != nil {
				return err
			}
			return s.cfg.Phys.Chmod(node, rootCred, origMode)
		},
		onCommit: func() error {
			// Archive the initial version so an aborted first update can be
			// rolled back (§4.2) and point-in-time restore has a floor. The
			// manifest snapshot keeps link cost O(#chunks).
			if opts.Mode.UpdateManaged() || opts.Recovery {
				stateID := s.cfg.Host.StateID()
				shipVer := int64(0)
				if latest, ok := s.cfg.Archive.Newest(s.cfg.Name, path); ok {
					// Already archived (re-link after restore): the current
					// content is the last archived version, not version 0.
					shipVer = int64(latest)
				} else if err := s.archiveCurrent(path, 0, stateID); err != nil {
					return err
				}
				// Replicate the link in the same stream as commits: the
				// successors get the history floor and the promotion
				// identity, so a failover right after link loses nothing.
				return s.shipCurrent(context.Background(), path, shipVer, stateID)
			}
			return nil
		},
	})
	s.cfg.Metrics.Counter("dlfm.link").Inc()
	return nil
}

// applyLinkState sets the ownership and permission bits a control mode
// requires (Table 1 semantics).
func (s *Server) applyLinkState(node *fs.Inode, mode datalink.ControlMode) error {
	switch {
	case mode.FullControl():
		// rdb, rdd: DLFM takes over the file and marks it read-only (§2.2).
		if err := s.cfg.Phys.Chown(node, rootCred, s.cfg.UID); err != nil {
			return err
		}
		return s.cfg.Phys.Chmod(node, rootCred, 0o400)
	case mode.Write != datalink.CtlFS:
		// rfb, rfd: ownership unchanged, write permission disabled.
		attr, err := s.cfg.Phys.Getattr(node)
		if err != nil {
			return err
		}
		return s.cfg.Phys.Chmod(node, rootCred, attr.Mode&^0o222)
	default:
		// rff: referential integrity only; no permission change.
		return nil
	}
}

// restoreLinkState re-establishes the canonical at-rest state for a linked
// file (used when a write takeover ends, and by recovery). Idempotent.
func (s *Server) restoreLinkState(path string, fi fileInfo) error {
	node, err := s.cfg.Phys.Lookup(path)
	if err != nil {
		return err
	}
	switch {
	case fi.mode.FullControl():
		if err := s.cfg.Phys.Chown(node, rootCred, s.cfg.UID); err != nil {
			return err
		}
		return s.cfg.Phys.Chmod(node, rootCred, 0o400)
	case fi.mode.Write != datalink.CtlFS:
		if err := s.cfg.Phys.Chown(node, rootCred, fi.origUID); err != nil {
			return err
		}
		return s.cfg.Phys.Chmod(node, rootCred, fi.origMode&^0o222)
	default:
		if err := s.cfg.Phys.Chown(node, rootCred, fi.origUID); err != nil {
			return err
		}
		return s.cfg.Phys.Chmod(node, rootCred, fi.origMode)
	}
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
	// rejects the unlink (§4.5).
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	if st, ok := sh.syncs[path]; ok && (st.writer != 0 || st.readers > 0) {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrFileBusy, path)
	}
	sh.mu.Unlock()
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
	_, err = sub.repo.Exec(
		`INSERT INTO dlfm_txns (id, repo_txn, host_txn, action, path, orig_uid, orig_mode, recovery)
		 VALUES (?, ?, ?, 'unlink', ?, ?, ?, ?)`,
		sqlmini.Int(s.journalID()), sqlmini.Int(int64(sub.repo.ID())), sqlmini.Int(int64(hostTxn)),
		sqlmini.Str(path), sqlmini.Int(int64(fi.origUID)), sqlmini.Int(int64(fi.origMode)), sqlmini.Bool(fi.recovery))
	if err != nil {
		return err
	}
	// File-system restoration is deferred to commit: the file stays
	// protected if the transaction rolls back.
	sub.comps = append(sub.comps, compensation{
		onCommit: func() error {
			node, err := s.cfg.Phys.Lookup(path)
			if err != nil {
				return err
			}
			if err := s.cfg.Phys.Chown(node, rootCred, fi.origUID); err != nil {
				return err
			}
			if err := s.cfg.Phys.Chmod(node, rootCred, fi.origMode); err != nil {
				return err
			}
			if err := s.cfg.Archive.Drop(s.cfg.Name, path); err != nil {
				return err
			}
			s.purgeTokens(path)
			// Unlink rides the replication stream too: replicas drop their
			// history and row so a later failover cannot resurrect the path.
			if r := s.replicator(); r != nil {
				return r.ShipUnlink(path)
			}
			return nil
		},
	})
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
	s.mu.Lock()
	sub, ok := s.subs[hostTxn]
	delete(s.subs, hostTxn)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("dlfm: no sub-transaction for host txn %d", hostTxn)
	}
	if err := sub.repo.Commit(); err != nil {
		return err
	}
	var firstErr error
	for _, c := range sub.comps {
		if c.onCommit != nil {
			if err := c.onCommit(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	// The journal rows served their purpose; clean them up outside the
	// resolved transaction.
	s.cleanupJournal(hostTxn)
	return firstErr
}

// AbortXRM rolls the sub-transaction back on the host's abort.
func (s *Server) AbortXRM(hostTxn uint64) error {
	s.mu.Lock()
	sub, ok := s.subs[hostTxn]
	delete(s.subs, hostTxn)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("dlfm: no sub-transaction for host txn %d", hostTxn)
	}
	if err := sub.repo.Abort(); err != nil {
		return err
	}
	var firstErr error
	// Undo eager file-system changes in reverse order.
	for i := len(sub.comps) - 1; i >= 0; i-- {
		if sub.comps[i].onAbort != nil {
			if err := sub.comps[i].onAbort(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	s.cleanupJournal(hostTxn)
	return firstErr
}

// cleanupJournal removes resolved journal rows for a host transaction.
func (s *Server) cleanupJournal(hostTxn uint64) {
	_, _ = s.repo.Exec(`DELETE FROM dlfm_txns WHERE host_txn = ?`, sqlmini.Int(int64(hostTxn)))
}
