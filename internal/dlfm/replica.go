package dlfm

// Shard replication: the DLFM half of ring-successor replication. A replica
// holds a path's full archive history (shipped version by version at the
// commit barrier) plus one dlfm_replicas repository row carrying the identity
// needed to promote — but no physical file and no dlfm_files row, so the
// linked-file namespace, rebalance, and recovery scans never see replicas.
// Promotion (failover) materializes the latest archived content exactly like
// a shard import and moves the row into dlfm_files; from that instant the
// path serves again with no cold start and no data movement.
//
// The owner side is a Replicator installed by the cluster layer after the
// stack is built: commitUpdate, link, and unlink call it synchronously inside
// their commit windows, so a quorum of replicas has acked a version before
// the application's close returns.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/datalink"
	"datalinks/internal/extent"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
)

// ReplicaMeta is the identity a replica must carry to promote a path: the
// dlfm_files columns that are not derivable from the archive history.
type ReplicaMeta struct {
	Mode     datalink.ControlMode
	Recovery bool
	TokenTTL int
	OrigUID  fs.UID
	OrigMode fs.FileMode
}

// Replicator ships owner-side mutations to the path's ring successors. The
// cluster layer installs one per server with SetReplicator; a nil replicator
// (the default, and Replicas=1) makes every ship a no-op. ShipCommit returns
// nil once a write quorum of replicas has acked; its error means the quorum
// was NOT reached — the version is committed locally but under-replicated.
type Replicator interface {
	ShipCommit(ctx context.Context, path string, ver int64, stateID uint64, snap *extent.Snapshot, size int64, mtime time.Time, meta ReplicaMeta) error
	ShipUnlink(path string) error
}

// ErrReplicationQuorum reports a commit that is durable and visible on the
// owner but did not reach its write quorum of replicas. The close that
// carried it is rejected WITHOUT rolling the file back: the host database
// already committed the version, so the content must stay (the same
// "newer than the ack is legal" rule at-least-once retries rely on).
var ErrReplicationQuorum = errors.New("dlfm: replication quorum not reached")

// ErrReplicaLag reports a shipped version that does not directly extend the
// replica's history — the replica missed one or more earlier versions and
// must be caught up (archive.ExportDelta/ImportDelta) before this frame can
// apply.
var ErrReplicaLag = errors.New("dlfm: replica history lags")

// ErrNoReplica reports a promotion target this server holds no replica for.
var ErrNoReplica = errors.New("dlfm: no replica held")

// replicatorBox wraps the interface so the holder can be swapped atomically.
type replicatorBox struct{ r Replicator }

// SetReplicator installs (or clears, with nil) the owner-side replicator.
// Safe to call while traffic is running.
func (s *Server) SetReplicator(r Replicator) {
	s.repl.Store(&replicatorBox{r: r})
}

// replicator returns the installed replicator, or nil.
func (s *Server) replicator() Replicator {
	if b := s.repl.Load(); b != nil {
		return b.r
	}
	return nil
}

// replicaInfo is the decoded dlfm_replicas row.
type replicaInfo struct {
	path    string
	meta    ReplicaMeta
	version int64
	mtime   time.Time
}

func decodeReplicaRow(row sqlmini.Row) replicaInfo {
	mode, _ := datalink.ParseMode(row[1].S)
	return replicaInfo{
		path: row[0].S,
		meta: ReplicaMeta{
			Mode:     mode,
			Recovery: row[2].B,
			TokenTTL: int(row[3].I),
			OrigUID:  fs.UID(row[4].I),
			OrigMode: fs.FileMode(row[5].I),
		},
		version: row[6].I,
		mtime:   time.Unix(0, row[7].I),
	}
}

// replicaRow reads a path's dlfm_replicas row outside any transaction.
func (s *Server) replicaRow(path string) (replicaInfo, bool) {
	tbl, err := s.repo.Table("dlfm_replicas")
	if err != nil {
		return replicaInfo{}, false
	}
	id, ok := tbl.LookupPK(sqlmini.Str(path))
	if !ok {
		return replicaInfo{}, false
	}
	row, ok := tbl.Get(id)
	if !ok {
		return replicaInfo{}, false
	}
	return decodeReplicaRow(row), true
}

// ReplicaPaths lists every path this server holds a replica for, sorted.
func (s *Server) ReplicaPaths() []string {
	tbl, err := s.repo.Table("dlfm_replicas")
	if err != nil {
		return nil
	}
	var out []string
	tbl.Scan(func(_ sqlmini.RowID, row sqlmini.Row) bool {
		out = append(out, row[0].S)
		return true
	})
	sort.Strings(out)
	return out
}

// ReplicaVersion returns the version the replica row has acked for path,
// or -1 if no replica is held.
func (s *Server) ReplicaVersion(path string) int64 {
	ri, ok := s.replicaRow(path)
	if !ok {
		return -1
	}
	return ri.version
}

// FileMeta returns the promotion identity, current version, and physical
// mtime of a path linked on this server — the owner-side inputs to a ship.
func (s *Server) FileMeta(path string) (ReplicaMeta, int64, time.Time, error) {
	fi, ok := s.lookupFile(path)
	if !ok {
		return ReplicaMeta{}, 0, time.Time{}, fmt.Errorf("%w: %s", ErrNotLinked, path)
	}
	node, err := s.cfg.Phys.Lookup(path)
	if err != nil {
		return ReplicaMeta{}, 0, time.Time{}, err
	}
	attr, err := s.cfg.Phys.Getattr(node)
	if err != nil {
		return ReplicaMeta{}, 0, time.Time{}, err
	}
	meta := ReplicaMeta{
		Mode:     fi.mode,
		Recovery: fi.recovery,
		TokenTTL: fi.tokenTTL,
		OrigUID:  fi.origUID,
		OrigMode: fi.origMode,
	}
	return meta, int64(fi.version), attr.Mtime, nil
}

// ApplyReplicaCommit lands one shipped version on this server as a replica:
// the content goes into the archive (a delta against the predecessor this
// replica already holds), the dlfm_replicas row advances. Idempotent — a
// re-shipped frame whose ack was lost returns nil without re-applying.
// ErrReplicaLag means the frame does not directly extend the local history;
// the shipper must catch this replica up first.
func (s *Server) ApplyReplicaCommit(path string, ver int64, stateID uint64, snap *extent.Snapshot, mtime time.Time, meta ReplicaMeta) (err error) {
	defer s.diedMidRequest(&err)
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("dlfm: replica apply %s: server %s closed", path, s.cfg.Name)
	}
	if _, linked := s.lookupFile(path); linked {
		return fmt.Errorf("dlfm: replica apply %s: path is owned by %s", path, s.cfg.Name)
	}
	last := int64(-1)
	if e, err := s.cfg.Archive.Latest(s.cfg.Name, path); err == nil {
		last = int64(e.Version)
	}
	switch {
	case last >= ver:
		// Already archived — only the ack was lost. Fall through to make
		// sure the row reflects it.
	case last < ver-1:
		return fmt.Errorf("%w: %s: have %d, shipped %d", ErrReplicaLag, path, last, ver)
	default:
		if _, err := s.cfg.Archive.PutSnapshot(s.cfg.Name, path, archive.Version(ver), stateID, snap); err != nil && !errors.Is(err, archive.ErrStale) {
			return fmt.Errorf("dlfm: replica archive %s: %w", path, err)
		}
	}
	if err := s.EnsureReplicaRow(path, ver, mtime, meta); err != nil {
		return err
	}
	s.cfg.Metrics.Counter("dlfm.repl.applied").Inc()
	return nil
}

// EnsureReplicaRow upserts the dlfm_replicas row for path at version ver in
// one repository transaction, so the synchronous ship and a catch-up may run
// it concurrently for one path. Rows never move backwards — a stale frame
// leaves a newer row untouched — and a row, once present, is never absent: a
// Failover scanning ReplicaPaths meanwhile always sees the path.
func (s *Server) EnsureReplicaRow(path string, ver int64, mtime time.Time, meta ReplicaMeta) (err error) {
	defer s.diedMidRequest(&err)
	// The row's eight columns, then the UPDATE's version bound.
	args := []sqlmini.Value{
		sqlmini.Str(meta.Mode.String()), sqlmini.Bool(meta.Recovery), sqlmini.Int(int64(meta.TokenTTL)),
		sqlmini.Int(int64(meta.OrigUID)), sqlmini.Int(int64(meta.OrigMode)), sqlmini.Int(ver),
		sqlmini.Int(mtime.UnixNano()), sqlmini.Str(path), sqlmini.Int(ver),
	}
	for {
		tx := s.repo.Begin()
		// A row that is there is locked by the UPDATE until the commit, old
		// enough to advance or not; only one that is not can appear under us.
		n, err := tx.Exec(
			`UPDATE dlfm_replicas SET mode = ?, recovery = ?, token_ttl = ?, orig_uid = ?, orig_mode = ?, cur_version = ?, mtime_ns = ?
			 WHERE path = ? AND cur_version < ?`, args...)
		raced := false
		if err == nil && n == 0 {
			if ri, present := s.replicaRow(path); present {
				raced = ri.version < ver
			} else {
				_, err = tx.Exec(
					`INSERT INTO dlfm_replicas (mode, recovery, token_ttl, orig_uid, orig_mode, cur_version, mtime_ns, path)
					 VALUES (?, ?, ?, ?, ?, ?, ?, ?)`, args[:8]...)
				raced = errors.Is(err, sqlmini.ErrDuplicateKey)
			}
		}
		if raced {
			// A concurrent upsert inserted an older row since the UPDATE
			// looked: go round and advance it.
			_ = tx.Abort()
			continue
		}
		if err == nil {
			err = tx.Commit()
		} else {
			_ = tx.Abort() // the statement's error is the one to report
		}
		if err != nil {
			return fmt.Errorf("dlfm: replica row %s: %w", path, err)
		}
		return nil
	}
}

// diedMidRequest (deferred) is the replication-plane twin of UpcallCtx's
// recover: Kill closes the repository WAL under in-flight calls. A statement
// on a closed log fails with wal.ErrClosed, which the callers below return
// like any other error; this is for whatever else panics on a dying member —
// in the OWNER's goroutine, whose own recover re-raises because the owner is
// alive. A dead replica must answer the shipper with an error like a dead
// machine would; a panic on a live server is a real bug and is re-raised.
func (s *Server) diedMidRequest(err *error) {
	if r := recover(); r != nil {
		if s.Alive() {
			panic(r)
		}
		*err = fmt.Errorf("dlfm: server %s died mid-request: %v", s.cfg.Name, r)
	}
}

// ApplyReplicaUnlink removes a replica after the owner unlinked the path:
// row and archive history both go (unlink semantics — §4.2's unlink restores
// the file to the user and the database forgets it).
func (s *Server) ApplyReplicaUnlink(path string) (err error) {
	defer s.diedMidRequest(&err)
	if _, err := s.repo.Exec(`DELETE FROM dlfm_replicas WHERE path = ?`, sqlmini.Str(path)); err != nil {
		return fmt.Errorf("dlfm: replica unlink %s: %w", path, err)
	}
	if err := s.cfg.Archive.Drop(s.cfg.Name, path); err != nil {
		return fmt.Errorf("dlfm: replica unlink %s: %w", path, err)
	}
	return nil
}

// DropReplica discards a replica this server should no longer hold (the
// successor set moved away from it). Identical mechanics to unlink-apply,
// counted separately for the anti-entropy pass.
func (s *Server) DropReplica(path string) error {
	if err := s.ApplyReplicaUnlink(path); err != nil {
		return err
	}
	s.cfg.Metrics.Counter("dlfm.repl.dropped").Inc()
	return nil
}

// PromoteReplica turns a replica into the served copy: latest archived
// content is materialized with the stored identity and mtime (the same
// sequence as a shard import — mtime last, because modification detection
// compares against it at the next write open), and ImportBundle swaps the
// replica row for the dlfm_files row. No upcall to the old owner, no archive
// transfer: everything needed is already local.
func (s *Server) PromoteReplica(path string) error {
	ri, ok := s.replicaRow(path)
	if !ok {
		return fmt.Errorf("%w: %s on %s", ErrNoReplica, path, s.cfg.Name)
	}
	if _, linked := s.lookupFile(path); linked {
		return fmt.Errorf("%w: promote %s", ErrAlreadyLinked, path)
	}
	entry, err := s.cfg.Archive.Latest(s.cfg.Name, path)
	if err != nil {
		return fmt.Errorf("dlfm: promote %s: no archived content: %w", path, err)
	}
	snap, err := entry.Snapshot()
	if err != nil {
		return fmt.Errorf("dlfm: promote %s: %w", path, err)
	}
	defer snap.Release()
	b := &FileBundle{
		Path:     path,
		Mode:     ri.meta.Mode,
		Recovery: ri.meta.Recovery,
		TokenTTL: ri.meta.TokenTTL,
		OrigUID:  ri.meta.OrigUID,
		OrigMode: ri.meta.OrigMode,
		Version:  int64(entry.Version),
		Content:  snap,
		Mtime:    ri.mtime,
	}
	if err := s.ImportBundle(b); err != nil {
		return fmt.Errorf("dlfm: promote %s: %w", path, err)
	}
	s.cfg.Metrics.Counter("dlfm.repl.promotions").Inc()
	return nil
}

// ReadReplica materializes the latest replicated content of path — the
// stale-bounded read served when the owner is partitioned and the cluster
// allows replica reads. The staleness bound is the replication lag: at most
// the versions the owner committed after this replica's last acked frame.
func (s *Server) ReadReplica(path string) ([]byte, error) {
	if _, ok := s.replicaRow(path); !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoReplica, path, s.cfg.Name)
	}
	entry, err := s.cfg.Archive.Latest(s.cfg.Name, path)
	if err != nil {
		return nil, fmt.Errorf("dlfm: replica read %s: %w", path, err)
	}
	// A manifest whose blob is missing must fail the read, not serve an
	// empty file.
	snap, err := entry.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("dlfm: replica read %s v%d: %w", path, entry.Version, err)
	}
	defer snap.Release()
	return snap.Bytes(), nil
}

// shipCurrent ships the path's current on-disk state at version ver to the
// replica set (no-op without a replicator). Used by link — commit ships are
// issued inline by commitUpdate, which already holds the snapshot inputs.
func (s *Server) shipCurrent(ctx context.Context, path string, ver int64, stateID uint64) error {
	r := s.replicator()
	if r == nil {
		return nil
	}
	meta, _, mtime, err := s.FileMeta(path)
	if err != nil {
		return err
	}
	snap, err := s.cfg.Phys.SnapshotFile(path)
	if err != nil {
		return err
	}
	defer snap.Release()
	return r.ShipCommit(ctx, path, ver, stateID, snap, int64(snap.Len()), mtime, meta)
}
