package dlfm

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strings"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/extent"
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
	// Wait until no conflicting open. A writer holds the path until its
	// close has archived (§4.4: "any new update request to the file is
	// blocked until the archiving completes").
	pred := func(st *syncState) bool { return st.writer == 0 }
	if fi.mode.FullControl() {
		// rdd: readers also serialize against the writer.
		pred = func(st *syncState) bool { return st.writer == 0 && st.readers == 0 }
	}
	lk := obs.SpanFrom(ctx).Child("lock")
	lk.SetString("path", req.Path)
	if !s.waitLocked(sh, req.Path, pred) {
		lk.SetBool("timeout", true)
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
	if err := s.inRepo(func(tx *sqlmini.Txn) error {
		_, err := tx.InsertRow(s.updates, sqlmini.Row{sqlmini.Str(req.Path), sqlmini.Int(int64(id))})
		return err
	}); err != nil {
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
	if err := s.cfg.Phys.Chown(node, rootCred, DefaultUID); err != nil {
		return err
	}
	return s.cfg.Phys.Chmod(node, rootCred, 0o600)
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
			sh.dropSync(st.path, sy)
		}
	}
}

// clearUpdateEntry removes the durable update row for a path. A failed
// delete is counted, dlfm.updates.clear_failures, not returned.
func (s *Server) clearUpdateEntry(path string) {
	if err := s.inRepo(func(tx *sqlmini.Txn) error {
		_, err := tx.DeleteKey(s.updates, sqlmini.Str(path))
		return err
	}); err != nil {
		// At restart recovery's per-file scan restores the path and deletes
		// the row.
		s.cfg.Metrics.Counter("dlfm.updates.clear_failures").Inc()
	}
}

// closeFile handles the fs_close upcall — end transaction for write opens.
func (s *Server) closeFile(ctx context.Context, req upcall.Request) upcall.Response {
	lk := obs.SpanFrom(ctx).Child("lock")
	sh := s.openShardOf(req.OpenID)
	sh.mu.Lock()
	st, ok := sh.opens[req.OpenID]
	sh.mu.Unlock()
	lk.End()
	if !ok {
		return reject(upcall.CodeInternal, fmt.Sprintf("unknown open id %d", req.OpenID))
	}
	if !st.write {
		s.dropOpen(st.id)
		s.cfg.Metrics.Counter("dlfm.close.read").Inc()
		return upcall.Response{OK: true}
	}
	if err := s.commitUpdate(ctx, st, req.Size, time.Unix(0, req.Mtime)); err != nil {
		if notArchived := errors.Is(err, ErrNotArchived); notArchived || errors.Is(err, ErrReplicationQuorum) {
			// The commit point passed — host metadata and repository row both
			// carry the new version — but the archive put failed or not
			// enough replicas acked it. The close still fails (the
			// application must not treat the write as archived or
			// replicated), yet the content must NOT roll back: restoring the
			// old bytes would diverge from the committed host state. The
			// at-least-once retry discipline already makes "file newer than
			// the last ack" a legal state for the writer to observe.
			what := "under-replicated"
			if notArchived {
				what = "not archived"
			}
			return reject(upcall.CodeInternal, "file-update committed but "+what+": "+err.Error())
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

// ErrNotArchived reports a commit that is durable and visible on the owner
// but whose archive put failed. Like ErrReplicationQuorum, the close that
// carried it is rejected WITHOUT rolling the file back; the version's
// pending-archive row lets the next restart archive it from the live file.
var ErrNotArchived = errors.New("dlfm: archive put failed")

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
		if err := s.setAtRest(fi); err != nil {
			return err
		}
		s.dropOpen(st.id)
		s.cfg.Metrics.Counter("dlfm.close.unmodified").Inc()
		return nil
	}

	newVer := int64(fi.version) + 1
	// The repository half of the update's 2PC, a sub-transaction with no
	// side effects: its note names only the host transaction.
	sub := &subTxn{s: s, repo: s.repo.Begin()}
	err = s.setVersion(sub.repo, st.path, archive.Version(newVer))
	if err == nil {
		_, err = sub.repo.DeleteKey(s.updates, sqlmini.Str(st.path))
	}
	if err != nil {
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

	// Commit point passed. The close archives the committed version before
	// it returns: internal/fs is RAM, so a version acknowledged before its
	// archive copy would die with the process. The writer slot covers the
	// put, which is §4.4's "an update waits until archiving completes". One
	// capture of the committed content feeds the local archive and every
	// replica: each store patches against the version it archived from the
	// previous capture. The content is stable until dropOpen releases the
	// writer, so the capture is exactly the committed state.
	snap, capErr := s.cfg.Phys.CaptureFile(st.path)
	archErr := s.archiveCommitted(ctx, st.path, newVer, stateID, snap, capErr)
	if capErr == nil {
		if archErr == nil {
			s.handSource(st.path, newVer, snap)
		}
		snap.Release()
	}

	// Ship the archived version to the path's ring successors before the
	// close returns — the synchronous half of the replication stream. Without
	// the archive put there is no version to ship; restart's archiveBehind
	// and the next anti-entropy pass deliver it. A quorum failure surfaces as
	// ErrReplicationQuorum after local bookkeeping completes; closeFile
	// rejects the close without rolling back.
	var shipErr error
	if r := s.replicator(); r != nil {
		shipErr = archErr
		if archErr == nil {
			meta := ReplicaMeta{Mode: fi.mode, Recovery: fi.recovery, TokenTTL: fi.tokenTTL,
				OrigUID: fi.origUID, OrigMode: fi.origMode}
			shipErr = r.ShipCommit(ctx, st.path, newVer, attr.Mtime, meta)
		}
	}

	if err := s.setAtRest(fi); err != nil {
		return err
	}
	s.dropOpen(st.id)
	s.cfg.Metrics.Counter("dlfm.versions.committed").Inc()
	if shipErr != nil {
		s.cfg.Metrics.Counter("dlfm.repl.quorum_failures").Inc()
	}
	switch {
	case archErr != nil:
		return archErr
	case shipErr != nil:
		return fmt.Errorf("%w: %v", ErrReplicationQuorum, shipErr)
	}
	return nil
}

// archiveCommitted puts the committed capture snap into the archive as
// version ver, under the close's "archive" span (capErr: the capture
// failed). The capture is an O(#chunks) manifest grab, and the archive
// stores only what this version changed — whole chunks, or patches of the
// bytes written — so the put is O(delta), not O(file size). A failed put is
// the only writer of a pending-archive row: at the next restart
// archiveBehind archives the version under the commit's own state id. The
// error wraps ErrNotArchived.
func (s *Server) archiveCommitted(ctx context.Context, path string, ver int64, stateID uint64, snap *extent.Snapshot, capErr error) error {
	arch := obs.SpanFrom(ctx).Child("archive")
	arch.SetInt("version", ver)
	err := capErr
	if err == nil {
		var st archive.PutStats
		st, err = s.cfg.Archive.PutSnapshotCtx(obs.ContextWithSpan(ctx, arch), s.cfg.Name, path, archive.Version(ver), stateID, snap)
		if err == nil {
			s.cfg.Metrics.Counter("dlfm.archive.bytes_new").Add(st.NewBytes)
			s.cfg.Metrics.Counter("dlfm.archive.bytes_deduped").Add(st.DedupedBytes)
			s.cfg.Metrics.Counter("dlfm.archive.chunks_shared").Add(int64(st.SharedChunks))
			s.cfg.Metrics.Counter("dlfm.archive.jobs").Inc()
		}
	}
	arch.End()
	if err == nil {
		return nil
	}
	s.cfg.Metrics.Counter("dlfm.archive.errors").Inc()
	if perr := s.setPendingArchive(path, ver, stateID); perr != nil {
		err = fmt.Errorf("%v (pending-archive row: %v)", err, perr)
	}
	return fmt.Errorf("%w: v%d: %v", ErrNotArchived, ver, err)
}

// handSource gives the file at path the version ver just archived from its
// capture snap as its chunk source: from here on its clean chunks may leave
// memory and load back from the archive. Best effort — a file without a
// source only keeps its chunks resident.
func (s *Server) handSource(path string, ver int64, snap *extent.Snapshot) {
	held, err := s.cfg.Archive.HoldNewest(s.cfg.Name, path, archive.Version(ver))
	if err != nil {
		return
	}
	id, _ := snap.Captured()
	_ = s.cfg.Phys.SetSource(path, id, held)
}

// setPendingArchive makes ver the path's pending-archive row, replacing the
// row of an earlier failed put: recovery archives only cur_version.
func (s *Server) setPendingArchive(path string, ver int64, stateID uint64) error {
	return s.inRepo(func(tx *sqlmini.Txn) error {
		row := sqlmini.Row{sqlmini.Str(path), sqlmini.Int(ver), sqlmini.Int(int64(stateID))}
		id, _, found, err := tx.LockKey(s.pending, row[0], sqlmini.LockX)
		switch {
		case err != nil:
			return err
		case found:
			return tx.UpdateRow(s.pending, id, row)
		}
		_, err = tx.InsertRow(s.pending, row)
		return err
	})
}

// WaitArchives returns at once: the archive put is part of the close, so no
// archive work outlives the close that committed it. It stays because the
// benchmark module calls it.
func (s *Server) WaitArchives() {}

// AbortUpdateByPath explicitly rolls back the in-flight update transaction on
// a path: the last committed version is restored and the in-flight content
// quarantined. A crash takes the same path in recovery.
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
// restores the newest archived version. Also used by restart recovery. It
// holds that version first, so a path without one is left as it is; then it
// moves the in-flight content, chunks and source as they are, to a new file
// in the quarantine directory (fs.MoveContent), and installs the held version
// into the same inode unread (installHeld): open handles, the inode number
// and its attributes stay. Neither step reads a byte or retains a chunk.
func (s *Server) restoreLastCommitted(path string) error {
	fi, linked := s.lookupFile(path)
	if !linked {
		return fmt.Errorf("dlfm: %s not linked", path)
	}
	entry, err := s.cfg.Archive.Latest(s.cfg.Name, path)
	if err != nil {
		return fmt.Errorf("dlfm: no archived version of %s to restore: %w", path, err)
	}
	held, err := entry.Hold()
	if err != nil {
		return fmt.Errorf("dlfm: restore %s: v%d: %w", path, entry.Version, err)
	}
	// Quarantine the in-flight version (§4.2). The name embeds the path
	// percent-escaped — an injective encoding, so /a/b_c and /a_b/c can
	// never map to the same quarantine file — plus a server-wide monotonic
	// sequence number, so two rollbacks in the same clock tick (frozen test
	// clocks, coarse clocks) cannot overwrite each other either. The
	// timestamp stays in the name for operators; expiry uses file mtime,
	// which the move sets to now. At a cold start the in-flight bytes died
	// with the machine, so there is nothing to quarantine — only the
	// committed version to bring back.
	if s.physExists(path) {
		qname := fmt.Sprintf("%s/%s.%d.%06d", DefaultQuarantineDir,
			url.PathEscape(strings.TrimPrefix(path, "/")),
			s.cfg.Clock().UnixNano(), s.qseq.Add(1))
		if err := s.cfg.Phys.MoveContent(path, qname); err != nil {
			held.Release()
			return err
		}
	}
	if err := s.installHeld(entry, held); err != nil {
		return fmt.Errorf("dlfm: restore %s: %w", path, err)
	}
	s.clearUpdateEntry(path)
	if err := s.setAtRest(fi); err != nil {
		return err
	}
	s.cfg.Metrics.Counter("dlfm.restores").Inc()
	return nil
}

// UpdatesInFlight lists the paths with durable update entries, sorted
// (status tooling).
func (s *Server) UpdatesInFlight() []string { return pathsOf(s.updates) }
