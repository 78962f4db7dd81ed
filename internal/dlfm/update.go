package dlfm

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strings"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/fs"
	"datalinks/internal/obs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
)

// The update-in-place algorithm (§4): a file's open-for-write begins a
// file-update transaction and its close commits it. The commit is a
// two-phase commit between the DLFM repository (version bookkeeping) and the
// host database (automatic size/mtime metadata update, §4.3). Abort — or a
// crash — restores the last committed version from the archive and moves the
// in-flight content to a quarantine directory (§4.2).

// writeOpen handles the fs_open upcall for write access. For rfd files DLFS
// reaches here only after the native open failed with EACCES (the file was
// made read-only at link time) — the paper's lazy path that keeps unlinked
// and read traffic free of upcalls.
func (s *Server) writeOpen(ctx context.Context, req upcall.Request) upcall.Response {
	if req.Token != "" {
		if resp := s.admitToken(req); !resp.OK {
			return resp
		}
	}
	fi, linked := s.lookupFile(req.Path)
	if !linked {
		return reject(upcall.CodeNotLinked, req.Path+" is not linked")
	}
	if !fi.mode.UpdateManaged() {
		// rfb/rdb block writes entirely; rff writes never reach DLFM.
		return reject(upcall.CodePermission,
			fmt.Sprintf("%s is linked in %s mode: writes are blocked", req.Path, fi.mode))
	}
	grant, ok := s.tokenGrant(fs.UID(req.UID), req.Path)
	if !ok || !grant.typ.Covers(token.Write) {
		return noGrant(req, "write")
	}

	sh, idx := s.pathShard(req.Path)
	sh.mu.Lock()
	// Wait until no conflicting open and no pending archive (§4.4: "any new
	// update request to the file is blocked until the archiving completes").
	pred := func(st *syncState) bool { return st.writer == 0 }
	if fi.mode.FullControl() {
		// rdd: readers also serialize against the writer.
		pred = func(st *syncState) bool { return st.writer == 0 && st.readers == 0 }
	}
	lk := obs.SpanFrom(ctx).Child("lock")
	lk.SetAttr("path", req.Path)
	if !s.waitLocked(sh, req.Path, pred) {
		lk.SetAttr("timeout", true)
		lk.End()
		sh.mu.Unlock()
		return reject(upcall.CodeBusy, req.Path+" is busy (open or archiving)")
	}
	lk.End()
	id := s.newOpenLocked(sh, idx, req.Path, fs.UID(req.UID), true)
	st := s.syncFor(sh, req.Path)
	st.writer = id
	sh.mu.Unlock()

	// Durable update entry before the open is approved (§4.4): after a crash
	// this row is how recovery knows a restore is needed.
	if _, err := s.repo.Exec(`INSERT INTO dlfm_updates (path, open_id) VALUES (?, ?)`,
		sqlmini.Str(req.Path), sqlmini.Int(int64(id))); err != nil {
		s.dropOpen(id)
		return reject(upcall.CodeInternal, "update entry: "+err.Error())
	}

	// Take over the file for the duration of the update (§4.2): DLFM becomes
	// the owner with exclusive access, so native reads fail during the
	// window — read-write serialization without read locks in rfd mode.
	if err := s.takeOver(req.Path); err != nil {
		s.clearUpdateEntry(req.Path)
		s.dropOpen(id)
		return reject(upcall.CodeInternal, "takeover: "+err.Error())
	}
	s.cfg.Metrics.Counter("dlfm.open.write").Inc()
	return upcall.Response{OK: true, OpenID: id, TakeOver: true}
}

// takeOver makes DLFM the exclusive owner of the file.
func (s *Server) takeOver(path string) error {
	node, err := s.cfg.Phys.Lookup(path)
	if err != nil {
		return err
	}
	attr, err := s.cfg.Phys.Getattr(node)
	if err != nil {
		return err
	}
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	if _, ok := sh.takeovers[path]; !ok {
		sh.takeovers[path] = &takeoverState{origUID: attr.UID, origMode: attr.Mode}
	}
	sh.mu.Unlock()
	if err := s.cfg.Phys.Chown(node, rootCred, s.cfg.UID); err != nil {
		return err
	}
	return s.cfg.Phys.Chmod(node, rootCred, 0o600)
}

// releaseTakeover restores the at-rest linked state after an update ends.
func (s *Server) releaseTakeover(path string, fi fileInfo) error {
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	delete(sh.takeovers, path)
	sh.mu.Unlock()
	return s.restoreLinkState(path, fi)
}

// dropOpen discards open and sync state for an open id, waking only the
// opens parked on that path. (An open id lives in its path's shard, so one
// lock covers both.)
func (s *Server) dropOpen(id uint64) {
	sh := s.openShardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.opens[id]
	if !ok {
		return
	}
	delete(sh.opens, id)
	if sy, ok := sh.syncs[st.path]; ok {
		if st.write {
			if sy.writer == id {
				sy.writer = 0
			}
		} else if sy.readers > 0 {
			sy.readers--
		}
		sy.wake()
		if sy.idle() {
			delete(sh.syncs, st.path)
		}
	}
}

// clearUpdateEntry removes the durable update row for a path.
func (s *Server) clearUpdateEntry(path string) {
	_, _ = s.repo.Exec(`DELETE FROM dlfm_updates WHERE path = ?`, sqlmini.Str(path))
}

// closeFile handles the fs_close upcall — end transaction for write opens.
func (s *Server) closeFile(ctx context.Context, req upcall.Request) upcall.Response {
	sh := s.openShardOf(req.OpenID)
	sh.mu.Lock()
	st, ok := sh.opens[req.OpenID]
	sh.mu.Unlock()
	if !ok {
		return reject(upcall.CodeInternal, fmt.Sprintf("unknown open id %d", req.OpenID))
	}
	if !st.write {
		s.dropOpen(st.id)
		s.cfg.Metrics.Counter("dlfm.close.read").Inc()
		return upcall.Response{OK: true}
	}
	if err := s.commitUpdate(ctx, st, req.Size, time.Unix(0, req.Mtime)); err != nil {
		if errors.Is(err, ErrReplicationQuorum) {
			// The commit point passed — host metadata and repository row both
			// carry the new version — but not enough replicas acked it. The
			// close still fails (the application must not treat the write as
			// replicated), yet the content must NOT roll back: restoring the
			// old bytes would diverge from the committed host state. The
			// at-least-once retry discipline already makes "file newer than
			// the last ack" a legal state for the writer to observe.
			return reject(upcall.CodeInternal, "file-update committed but under-replicated: "+err.Error())
		}
		// The close fails and the update rolls back — the application sees
		// the error from close(2), matching "processing of file close
		// request fails [⇒] the update operation is rolled back".
		if rbErr := s.rollbackUpdate(st); rbErr != nil {
			return reject(upcall.CodeInternal,
				fmt.Sprintf("close failed (%v) and rollback failed (%v)", err, rbErr))
		}
		return reject(upcall.CodeInternal, "file-update transaction aborted: "+err.Error())
	}
	s.cfg.Metrics.Counter("dlfm.close.write").Inc()
	return upcall.Response{OK: true}
}

// updateSub is the DLFM side of a file-update transaction's 2PC: a repo
// transaction that prepares/commits/aborts with the host metadata update.
type updateSub struct {
	s    *Server
	repo *sqlmini.Txn
	path string
	ver  int64
}

// XRMName identifies the sub-transaction participant.
func (u *updateSub) XRMName() string { return "dlfm-update:" + u.s.cfg.Name }

// PrepareXRM journals the host binding, then prepares the repo transaction.
func (u *updateSub) PrepareXRM(hostTxn uint64) error {
	_, err := u.repo.Exec(
		`INSERT INTO dlfm_txns (id, repo_txn, host_txn, action, path, orig_uid, orig_mode, recovery)
		 VALUES (?, ?, ?, 'close', ?, 0, 0, FALSE)`,
		sqlmini.Int(u.s.journalID()), sqlmini.Int(int64(u.repo.ID())),
		sqlmini.Int(int64(hostTxn)), sqlmini.Str(u.path))
	if err != nil {
		return err
	}
	return u.repo.Prepare()
}

// CommitXRM commits the repository half.
func (u *updateSub) CommitXRM(hostTxn uint64) error {
	err := u.repo.Commit()
	u.s.cleanupJournal(hostTxn)
	return err
}

// AbortXRM rolls the repository half back.
func (u *updateSub) AbortXRM(hostTxn uint64) error {
	err := u.repo.Abort()
	u.s.cleanupJournal(hostTxn)
	return err
}

// commitUpdate runs the file-update commit protocol for a closing write open.
func (s *Server) commitUpdate(ctx context.Context, st *openState, size int64, mtime time.Time) error {
	fi, linked := s.lookupFile(st.path)
	if !linked {
		return fmt.Errorf("dlfm: %s no longer linked", st.path)
	}
	// Modification detection via mtime (§4.4).
	node, err := s.cfg.Phys.Lookup(st.path)
	if err != nil {
		return err
	}
	attr, err := s.cfg.Phys.Getattr(node)
	if err != nil {
		return err
	}
	modified := !attr.Mtime.Equal(st.mtime)
	if !modified {
		// Nothing to commit: drop the update entry locally.
		s.clearUpdateEntry(st.path)
		if err := s.releaseTakeover(st.path, fi); err != nil {
			return err
		}
		s.dropOpen(st.id)
		s.cfg.Metrics.Counter("dlfm.close.unmodified").Inc()
		return nil
	}

	newVer := int64(fi.version) + 1
	sub := &updateSub{s: s, repo: s.repo.Begin(), path: st.path, ver: newVer}
	if _, err := sub.repo.Exec(`UPDATE dlfm_files SET cur_version = ? WHERE path = ?`,
		sqlmini.Int(newVer), sqlmini.Str(st.path)); err != nil {
		sub.repo.Abort()
		return err
	}
	if _, err := sub.repo.Exec(`DELETE FROM dlfm_updates WHERE path = ?`,
		sqlmini.Str(st.path)); err != nil {
		sub.repo.Abort()
		return err
	}

	// Two-phase commit with the host database: the metadata update (§4.3)
	// and the repository changes share one fate.
	tp := obs.SpanFrom(ctx).Child("2pc")
	stateID, err := s.cfg.Host.MetaUpdate(s.cfg.Name, st.path, size, mtime, sub)
	tp.End()
	if err != nil {
		// The host aborted; AbortXRM already rolled the repo txn back.
		return fmt.Errorf("metadata update failed: %w", err)
	}

	// Commit point passed. Record the committed-but-unarchived version, then
	// archive asynchronously (§4.4).
	if _, err := s.repo.Exec(`INSERT INTO dlfm_pending_archive (path, version, state_id) VALUES (?, ?, ?)`,
		sqlmini.Str(st.path), sqlmini.Int(newVer), sqlmini.Int(int64(stateID))); err != nil {
		return err
	}
	s.startArchive(ctx, st.path, archive.Version(newVer), stateID)

	// Ship the committed version to the path's ring successors before the
	// close returns — the synchronous half of the replication stream. The
	// content is stable until dropOpen releases the writer, so the snapshot
	// here is exactly the committed state. A quorum failure surfaces as
	// ErrReplicationQuorum after local bookkeeping completes; closeFile
	// rejects the close without rolling back.
	var shipErr error
	if r := s.replicator(); r != nil {
		shipErr = func() error {
			meta := ReplicaMeta{Mode: fi.mode, Recovery: fi.recovery, TokenTTL: fi.tokenTTL,
				OrigUID: fi.origUID, OrigMode: fi.origMode}
			snap, err := s.cfg.Phys.SnapshotFile(st.path)
			if err != nil {
				return err
			}
			defer snap.Release()
			return r.ShipCommit(ctx, st.path, newVer, stateID, snap, size, attr.Mtime, meta)
		}()
	}

	if err := s.releaseTakeover(st.path, fi); err != nil {
		return err
	}
	s.dropOpen(st.id)
	s.cfg.Metrics.Counter("dlfm.versions.committed").Inc()
	if shipErr != nil {
		s.cfg.Metrics.Counter("dlfm.repl.quorum_failures").Inc()
		return fmt.Errorf("%w: %v", ErrReplicationQuorum, shipErr)
	}
	return nil
}

// startArchive snapshots the file content and archives it in the background.
// New update opens of the path block until the job finishes (§4.4). The
// snapshot is an O(#chunks) manifest grab, and the archive stores only the
// chunks this version changed — commit cost is O(delta), not O(file size).
//
// The "archive" span is opened synchronously — it is part of the commit
// trace even though the trace's root finishes before the job does (the
// paper's async-archive design). It ends when the job completes, carrying
// the archive-barrier/fsync spans from PutSnapshotCtx underneath it.
func (s *Server) startArchive(ctx context.Context, path string, ver archive.Version, stateID uint64) {
	arch := obs.SpanFrom(ctx).Child("archive")
	arch.SetAttr("version", int64(ver))
	snap, err := s.cfg.Phys.SnapshotFile(path)
	if err != nil {
		snap = nil
	}
	lk := arch.Child("lock")
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	s.syncFor(sh, path).archiving = true
	sh.mu.Unlock()
	lk.End()
	s.archJobs.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer arch.End()
		defer func() {
			sh.mu.Lock()
			if sy, ok := sh.syncs[path]; ok {
				sy.archiving = false
				sy.wake()
				if sy.idle() {
					delete(sh.syncs, path)
				}
			}
			sh.mu.Unlock()
			s.archJobs.Add(-1)
		}()
		// A simulated machine crash (CrashRepo) can race this job; the
		// repository rejects writes after the crash, which surfaces as a
		// panic from the closed WAL. That is the "archiver died mid-job"
		// case the durable pending-archive row exists for — recovery
		// completes the copy. Absorb it here like the process death it is.
		defer func() {
			if recover() != nil {
				s.cfg.Metrics.Counter("dlfm.archive.interrupted").Inc()
			}
		}()
		if snap == nil {
			s.cfg.Metrics.Counter("dlfm.archive.errors").Inc()
			return
		}
		st, err := s.cfg.Archive.PutSnapshotCtx(
			obs.ContextWithSpan(context.Background(), arch), s.cfg.Name, path, ver, stateID, snap)
		snap.Release()
		if err != nil {
			s.cfg.Metrics.Counter("dlfm.archive.errors").Inc()
			return
		}
		s.cfg.Metrics.Counter("dlfm.archive.bytes_new").Add(st.NewBytes)
		s.cfg.Metrics.Counter("dlfm.archive.bytes_deduped").Add(st.DedupedBytes)
		s.cfg.Metrics.Counter("dlfm.archive.chunks_shared").Add(int64(st.SharedChunks))
		_, _ = s.repo.Exec(`DELETE FROM dlfm_pending_archive WHERE path = ?`, sqlmini.Str(path))
		s.cfg.Metrics.Counter("dlfm.archive.jobs").Inc()
	}()
}

// WaitArchives blocks until all in-flight archive jobs complete (tests and
// orderly shutdown).
func (s *Server) WaitArchives() {
	for s.archJobs.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// AbortUpdate explicitly rolls back an in-flight update transaction: the
// last committed version is restored and the in-flight content quarantined.
// Exposed to the engine/core layer; a crash takes the same path in recovery.
func (s *Server) AbortUpdate(openID uint64) error {
	sh := s.openShardOf(openID)
	sh.mu.Lock()
	st, ok := sh.opens[openID]
	sh.mu.Unlock()
	if !ok || !st.write {
		return fmt.Errorf("dlfm: open %d is not an in-flight update", openID)
	}
	return s.rollbackUpdate(st)
}

// AbortUpdateByPath rolls back the in-flight update transaction on a path.
func (s *Server) AbortUpdateByPath(path string) error {
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	var st *openState
	if sy, ok := sh.syncs[path]; ok && sy.writer != 0 {
		st = sh.opens[sy.writer]
	}
	sh.mu.Unlock()
	if st == nil {
		return fmt.Errorf("dlfm: no update in flight on %s", path)
	}
	return s.rollbackUpdate(st)
}

// rollbackUpdate implements §4.2's failure path for one open.
func (s *Server) rollbackUpdate(st *openState) error {
	err := s.restoreLastCommitted(st.path)
	s.dropOpen(st.id)
	return err
}

// restoreLastCommitted quarantines the in-flight content of path and
// restores the newest archived version. Also used by restart recovery. Both
// moves are manifest swaps: the quarantine copy shares its chunks with the
// in-flight file, and the restore shares its chunks with the archive.
func (s *Server) restoreLastCommitted(path string) error {
	fi, linked := s.lookupFile(path)
	if !linked {
		return fmt.Errorf("dlfm: %s not linked", path)
	}
	// Quarantine the in-flight version (§4.2). The name embeds the path
	// percent-escaped — an injective encoding, so /a/b_c and /a_b/c can
	// never map to the same quarantine file — plus a server-wide monotonic
	// sequence number, so two rollbacks in the same clock tick (frozen test
	// clocks, coarse clocks) cannot overwrite each other either. The
	// timestamp stays in the name for operators; expiry uses file mtime.
	current, err := s.cfg.Phys.SnapshotFile(path)
	switch {
	case err == nil:
		qname := fmt.Sprintf("%s/%s.%d.%06d", s.cfg.Quarantine,
			url.PathEscape(strings.TrimPrefix(path, "/")),
			s.cfg.Clock().UnixNano(), s.qseq.Add(1))
		err = s.cfg.Phys.WriteFileSnapshot(qname, current)
		current.Release()
		if err != nil {
			return err
		}
	case errors.Is(err, fs.ErrNotExist):
		// Cold start: the in-flight bytes died with the machine, so there is
		// nothing to quarantine — only the committed version to bring back.
	default:
		return err
	}
	// Restore the last committed version from the archive (paging its
	// chunks back in from the disk tier if they were spilled).
	entry, err := s.cfg.Archive.Latest(s.cfg.Name, path)
	if err != nil {
		return fmt.Errorf("dlfm: no archived version of %s to restore: %w", path, err)
	}
	snap, err := entry.Snapshot()
	if err != nil {
		return fmt.Errorf("dlfm: materialize %s v%d: %w", path, entry.Version, err)
	}
	err = s.writeRestored(path, snap)
	snap.Release()
	if err != nil {
		return err
	}
	s.clearUpdateEntry(path)
	if err := s.releaseTakeover(path, fi); err != nil {
		return err
	}
	s.cfg.Metrics.Counter("dlfm.restores").Inc()
	return nil
}

// RestoreAsOf restores every linked, recovery-enabled file to the newest
// version whose database state identifier is <= stateID, discarding newer
// versions — the file half of coordinated point-in-time restore (§4.4).
func (s *Server) RestoreAsOf(stateID uint64) error {
	tbl, err := s.repo.Table("dlfm_files")
	if err != nil {
		return err
	}
	type target struct {
		fi fileInfo
	}
	var targets []target
	tbl.Scan(func(_ sqlmini.RowID, row sqlmini.Row) bool {
		fi := decodeFileRow(row)
		if fi.recovery {
			targets = append(targets, target{fi: fi})
		}
		return true
	})
	for _, t := range targets {
		entry, err := s.cfg.Archive.AsOf(s.cfg.Name, t.fi.path, stateID)
		if err != nil {
			return fmt.Errorf("dlfm: restore %s as of %d: %w", t.fi.path, stateID, err)
		}
		snap, err := entry.Snapshot()
		if err != nil {
			return fmt.Errorf("dlfm: materialize %s v%d: %w", t.fi.path, entry.Version, err)
		}
		err = s.cfg.Phys.WriteFileSnapshot(t.fi.path, snap)
		snap.Release()
		if err != nil {
			return err
		}
		if err := s.cfg.Archive.TruncateAfter(s.cfg.Name, t.fi.path, stateID); err != nil {
			return fmt.Errorf("dlfm: truncate archive of %s: %w", t.fi.path, err)
		}
		if _, err := s.repo.Exec(`UPDATE dlfm_files SET cur_version = ? WHERE path = ?`,
			sqlmini.Int(int64(entry.Version)), sqlmini.Str(t.fi.path)); err != nil {
			return err
		}
		if err := s.restoreLinkState(t.fi.path, t.fi); err != nil {
			return err
		}
	}
	return nil
}

// UpdatesInFlight reports paths with durable update entries (status tooling).
func (s *Server) UpdatesInFlight() []string {
	tbl, err := s.repo.Table("dlfm_updates")
	if err != nil {
		return nil
	}
	var out []string
	tbl.Scan(func(_ sqlmini.RowID, row sqlmini.Row) bool {
		out = append(out, row[0].S)
		return true
	})
	return out
}
