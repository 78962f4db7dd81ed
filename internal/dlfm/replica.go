package dlfm

// Shard replication: the DLFM half of ring-successor replication. A replica
// holds a path's full archive history plus one dlfm_replicas repository row
// carrying the identity needed to promote — but no physical file and no
// dlfm_files row, so the linked-file namespace, rebalance, and recovery scans
// never see replicas. One verb puts versions on a replica: ImportReplica
// pulls the owner's archive records after the newest version the replica
// holds — named by identity, not number — and the blobs it lacks. A commit's
// ship, a lag catch-up, anti-entropy and a live move all call it; for a
// replica that is level, a ship is one record. Promotion — of a dead owner's
// successor, or of a live move's caught-up destination (shard.go) — installs
// the latest archived version deferred and moves the row into dlfm_files: the
// path serves again with no data movement.
//
// The owner side is a Replicator installed by the cluster layer after the
// stack is built: commitUpdate, link, and unlink call it synchronously inside
// their commit windows, once the version is archived, so a quorum of replicas
// has acked a version before the application's close returns.

import (
	"context"
	"errors"
	"fmt"
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
// (the default, and Replicas=1) makes every ship a no-op. ShipCommit ships
// the archived version ver and returns nil once a write quorum of replicas
// has acked it; its error means the quorum was NOT reached — the version is
// committed locally but under-replicated.
type Replicator interface {
	ShipCommit(ctx context.Context, path string, ver int64, mtime time.Time, meta ReplicaMeta) error
	ShipUnlink(path string) error
}

// ReplicaSource is the owner's side of a transfer, which ImportReplica pulls
// from: its history's records after a base named by identity, and blobs by
// hash. *archive.Store is one.
type ReplicaSource interface {
	ExportDelta(server, path string, base archive.VersionID) ([]archive.HistoryRec, error)
	FetchBlob(h extent.Hash, dst []byte) ([]byte, error)
}

// ErrReplicationQuorum reports a commit that is durable and visible on the
// owner but did not reach its write quorum of replicas. The close that
// carried it is rejected WITHOUT rolling the file back: the host database
// already committed the version, so the content must stay (the same
// "newer than the ack is legal" rule at-least-once retries rely on).
var ErrReplicationQuorum = errors.New("dlfm: replication quorum not reached")

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

// replicaRowOf is ri's dlfm_replicas row; decodeReplicaRow is its inverse.
func replicaRowOf(ri replicaInfo) sqlmini.Row {
	m := ri.meta
	return sqlmini.Row{sqlmini.Str(ri.path), sqlmini.Str(m.Mode.String()), sqlmini.Bool(m.Recovery),
		sqlmini.Int(int64(m.TokenTTL)), sqlmini.Int(int64(m.OrigUID)), sqlmini.Int(int64(m.OrigMode)),
		sqlmini.Int(ri.version), sqlmini.Int(ri.mtime.UnixNano())}
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
	row, ok := rowOf(s.replicas, path)
	if !ok {
		return replicaInfo{}, false
	}
	return decodeReplicaRow(row), true
}

// ReplicaPaths lists every path this server holds a replica for, sorted.
func (s *Server) ReplicaPaths() []string { return pathsOf(s.replicas) }

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

// ImportReplica is the one way versions land on a replica. It imports from
// src what follows the newest version this server holds of path: one record
// for a replica that is level but for the version just committed, the tail
// for one that lags, and — when src does not hold that very version (the
// histories diverged across a restore, or this copy ran ahead of its owner)
// — the whole history, over a dropped copy; blobs still on this server's
// device are revived, not fetched. It acks, advancing the dlfm_replicas row
// to ver, only once its newest version is ver or later and src holds that
// version as it is here — number, state id and archive time; an import
// another shipper landed first counts. imported reports the versions this
// call appended. A path this server links is refused: that ship is a routing
// bug, not a state to absorb.
func (s *Server) ImportReplica(path string, src ReplicaSource, ver int64, mtime time.Time, meta ReplicaMeta) (imported int, err error) {
	defer s.diedMidRequest(&err)
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return 0, fmt.Errorf("dlfm: replica import %s: server %s closed", path, s.cfg.Name)
	}
	s.promoteMu.RLock()
	defer s.promoteMu.RUnlock()
	if _, linked := s.lookupFile(path); linked {
		return 0, fmt.Errorf("dlfm: replica import %s: path is owned by %s", path, s.cfg.Name)
	}
	base, _ := s.cfg.Archive.Newest(s.cfg.Name, path)
	recs, err := src.ExportDelta(s.cfg.Name, path, base)
	if errors.Is(err, archive.ErrChainGap) {
		if err = s.cfg.Archive.Drop(s.cfg.Name, path); err == nil {
			recs, err = src.ExportDelta(s.cfg.Name, path, archive.VersionID{Version: -1})
		}
	}
	if err != nil {
		return 0, fmt.Errorf("dlfm: replica import %s: %w", path, err)
	}
	st, err := s.cfg.Archive.ImportDelta(s.cfg.Name, path, recs, src.FetchBlob)
	if err != nil && !errors.Is(err, archive.ErrStale) {
		return st.Versions, fmt.Errorf("dlfm: replica import %s: %w", path, err)
	}
	// The ack rule: this copy reaches ver, and its newest version is one the
	// owner holds.
	newest, _ := s.cfg.Archive.Newest(s.cfg.Name, path)
	if newest.Version >= archive.Version(ver) {
		_, err = src.ExportDelta(s.cfg.Name, path, newest)
	} else {
		err = fmt.Errorf("history ends at v%d", newest.Version)
	}
	if err != nil {
		return st.Versions, fmt.Errorf("dlfm: replica import %s: v%d not held: %w", path, ver, err)
	}
	if err := s.EnsureReplicaRow(path, ver, mtime, meta); err != nil {
		return st.Versions, err
	}
	s.cfg.Metrics.Counter("dlfm.repl.applied").Inc()
	return st.Versions, nil
}

// EnsureReplicaRow upserts the dlfm_replicas row for path at version ver in
// one repository transaction, so a ship and an anti-entropy pass may run it
// concurrently for one path. Rows never move backwards — a stale frame
// leaves a newer row untouched: the comparison is made under the row's X
// lock — and a row, once present, is never absent (it is updated in place):
// a Failover scanning ReplicaPaths meanwhile always sees the path.
func (s *Server) EnsureReplicaRow(path string, ver int64, mtime time.Time, meta ReplicaMeta) (err error) {
	defer s.diedMidRequest(&err)
	for {
		err = s.inRepo(func(tx *sqlmini.Txn) error {
			row := replicaRowOf(replicaInfo{path: path, meta: meta, version: ver, mtime: mtime})
			id, old, found, err := tx.LockKey(s.replicas, row[0], sqlmini.LockX)
			switch {
			case err != nil:
				return err
			case !found:
				_, err = tx.InsertRow(s.replicas, row)
			case old[6].I < ver: // cur_version
				err = tx.UpdateRow(s.replicas, id, row)
			}
			return err
		})
		// A concurrent upsert inserted the row since LockKey looked: go round
		// and advance it.
		if !errors.Is(err, sqlmini.ErrDuplicateKey) {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("dlfm: replica row %s: %w", path, err)
	}
	return nil
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
// the file to the user and the database forgets it). On a server that links
// the path only the row goes: a replica row beside a link row is stray
// (dlfm.repl.stray_rows counts them), and the history is the one this server
// serves from.
func (s *Server) ApplyReplicaUnlink(path string) (err error) {
	defer s.diedMidRequest(&err)
	if err := s.inRepo(func(tx *sqlmini.Txn) error {
		_, err := tx.DeleteKey(s.replicas, sqlmini.Str(path))
		return err
	}); err != nil {
		return fmt.Errorf("dlfm: replica unlink %s: %w", path, err)
	}
	if s.IsLinked(path) {
		s.cfg.Metrics.Counter("dlfm.repl.stray_rows").Inc()
		return nil
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

// PromoteReplica turns a replica into the served copy (failover and live
// move): the latest archived version is installed deferred — bytes load on
// first access — and one repository transaction swaps the replica row for
// the dlfm_files row, so an owner is never also a replica. Everything needed
// is local; on failure nothing installed stays behind.
func (s *Server) PromoteReplica(path string) error {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
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
	if err := s.installDeferred(entry); err != nil {
		return fmt.Errorf("dlfm: promote %s: %w", path, err)
	}
	if err := s.promoteInstalled(ri, entry.Version); err != nil {
		// Best effort: the promote's own failure is the one to report.
		_ = s.cfg.Phys.Remove(path, rootCred)
		return fmt.Errorf("dlfm: promote %s: %w", path, err)
	}
	return nil
}

// promoteInstalled finishes a promote over the installed file. A mode that
// keeps no history drops the one it was moved with (the installed file holds
// its blobs). The control mode's at-rest owner and permissions go on
// (setAtRest), and the mtime last: every step before dirties it, and
// modification detection compares against exactly this value at the next
// write open (§4.4). Then the replica row becomes the link row at ver.
func (s *Server) promoteInstalled(ri replicaInfo, ver archive.Version) error {
	m := ri.meta
	if !keepsHistory(m.Mode, m.Recovery) {
		if err := s.cfg.Archive.Drop(s.cfg.Name, ri.path); err != nil {
			return err
		}
	}
	fi := fileInfo{path: ri.path, mode: m.Mode, recovery: m.Recovery, tokenTTL: m.TokenTTL,
		origUID: m.OrigUID, origMode: m.OrigMode, version: ver}
	if err := s.setAtRest(fi); err != nil {
		return err
	}
	node, err := s.cfg.Phys.Lookup(ri.path)
	if err != nil {
		return err
	}
	if err := s.cfg.Phys.SetMtime(node, ri.mtime); err != nil {
		return err
	}
	if err := s.inRepo(func(tx *sqlmini.Txn) error {
		if _, err := tx.DeleteKey(s.replicas, sqlmini.Str(ri.path)); err != nil {
			return err
		}
		_, err := tx.InsertRow(s.files, fileRow(fi))
		return err
	}); err != nil {
		return fmt.Errorf("link row: %w", err)
	}
	return nil
}
