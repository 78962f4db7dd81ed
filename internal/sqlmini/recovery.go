package sqlmini

import (
	"errors"
	"fmt"

	"datalinks/internal/wal"
)

// ErrOrphanRecord marks a transaction-scoped log record carrying no
// transaction id — corruption recovery must refuse, not panic over.
var ErrOrphanRecord = errors.New("sqlmini: transaction-scoped log record with no transaction id")

// RecoveryReport summarizes what restart recovery did.
type RecoveryReport struct {
	RecordsScanned int
	Redone         int
	// AnchorLSN is where the analysis and redo passes started (NilLSN means
	// the full log was scanned); SnapshotUsed reports whether a checkpoint
	// image seeded the catalog.
	AnchorLSN     wal.LSN
	SnapshotUsed  bool
	LoserTxns     []uint64
	InDoubtTxns   []uint64
	CommittedTxns []uint64
}

// Crash simulates a machine failure: the volatile log tail is discarded and
// the database becomes unusable. The returned log is the durable prefix a
// restart would find on disk; feed it to Recover.
func (db *DB) Crash() *wal.Log {
	return db.log.Crash()
}

// Recover performs ARIES-style restart recovery from a durable log: analysis
// (classify transactions), redo (replay history), undo (roll back losers).
// Prepared (in-doubt) transactions are redone, re-locked, and left pending
// for ResolveInDoubt — the 2PC coordinator decides their fate.
//
// Both scanning passes are anchored at the last durable checkpoint: the
// snapshot image seeds the catalog at the anchor LSN, and only the log tail
// after it is replayed. Checkpoints are quiescent, so no backchain of a
// loser or in-doubt transaction reaches below the anchor. Without a
// checkpoint the passes run from the log's start, as before.
func Recover(durable *wal.Log, opts Options) (*DB, *RecoveryReport, error) {
	opts.Log = durable
	db := NewDB(opts)
	rep := &RecoveryReport{}

	anchor, err := db.loadCheckpoint(durable, opts.Dir, rep)
	if err != nil {
		return nil, nil, err
	}
	if base := durable.Base(); base > anchor {
		// The log head was truncated past our anchor: the snapshot that
		// justified that truncation is missing or stale. Refusing beats
		// silently replaying an incomplete history.
		return nil, nil, fmt.Errorf("sqlmini: log starts at LSN %d but the checkpoint anchor is %d; snapshot missing or stale", base+1, anchor)
	}

	// Analysis pass.
	type txnInfo struct {
		state   TxnState
		lastLSN wal.LSN
		ended   bool
	}
	txns := make(map[uint64]*txnInfo)
	maxTxn := uint64(0)
	var scanErr error
	err = durable.Scan(anchor+1, wal.NilLSN, func(rec wal.Record) bool {
		rep.RecordsScanned++
		if rec.TxnID > maxTxn {
			maxTxn = rec.TxnID
		}
		if rec.TxnID == 0 {
			if rec.Type != wal.RecCheckpoint {
				scanErr = fmt.Errorf("%w: %s at LSN %d", ErrOrphanRecord, rec.Type, rec.LSN)
				return false
			}
			return true
		}
		ti, ok := txns[rec.TxnID]
		if !ok {
			ti = &txnInfo{state: TxnActive}
			txns[rec.TxnID] = ti
		}
		switch rec.Type {
		case wal.RecUpdate, wal.RecCLR:
			ti.lastLSN = rec.LSN
		case wal.RecPrepare:
			ti.state = TxnPrepared
			ti.lastLSN = rec.LSN
		case wal.RecCommit:
			ti.state = TxnCommitted
			ti.lastLSN = rec.LSN
		case wal.RecAbort:
			ti.state = TxnAborted
		case wal.RecEnd:
			ti.ended = true
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return nil, nil, err
	}
	if maxTxn > db.nextTxn {
		db.nextTxn = maxTxn
	}

	// Redo pass: replay the tail after the anchor. The snapshot already
	// holds every change at or below it, and redo is not idempotent
	// (InsertAt of an existing row fails), so the anchor gate is what makes
	// a crash between snapshot rename and log truncation harmless.
	var redoErr error
	err = durable.Scan(anchor+1, wal.NilLSN, func(rec wal.Record) bool {
		if rec.Type != wal.RecUpdate && rec.Type != wal.RecCLR {
			return true
		}
		p, err := decodePayload(rec.Payload)
		if err != nil {
			redoErr = err
			return false
		}
		if err := db.redoOne(p); err != nil {
			redoErr = err
			return false
		}
		rep.Redone++
		return true
	})
	if err == nil {
		err = redoErr
	}
	if err != nil {
		return nil, nil, err
	}

	// Undo pass: roll back losers (active or mid-abort, not ended).
	for id, ti := range txns {
		switch {
		case ti.state == TxnCommitted:
			rep.CommittedTxns = append(rep.CommittedTxns, id)
			db.outcome[id] = true
		case ti.state == TxnAborted && ti.ended:
			db.outcome[id] = false
		case ti.state == TxnPrepared:
			rep.InDoubtTxns = append(rep.InDoubtTxns, id)
			txn := &Txn{db: db, id: id, state: TxnPrepared, begun: true, lastLSN: ti.lastLSN}
			db.active[id] = txn
			// Re-acquire exclusive locks on everything the in-doubt txn
			// touched so new transactions cannot see or change those rows
			// until the coordinator resolves the outcome.
			if err := db.relockBackchain(txn); err != nil {
				return nil, nil, err
			}
		default: // loser
			rep.LoserTxns = append(rep.LoserTxns, id)
			if err := db.undoLoser(id, ti.lastLSN); err != nil {
				return nil, nil, err
			}
			db.outcome[id] = false
		}
	}
	if _, err := db.log.Flush(); err != nil {
		return nil, nil, err
	}
	// A fresh checkpoint caps what the next restart must replay. Best
	// effort: in-doubt transactions keep the database non-quiescent, and a
	// failed snapshot write only postpones the optimization.
	_, _ = db.Checkpoint()
	return db, rep, nil
}

// loadCheckpoint seeds db from the newest durable checkpoint and returns its
// anchor LSN (NilLSN when no checkpoint exists). Disk-backed databases read
// repo.snap; in-memory logs carry the snapshot inside the checkpoint record.
func (db *DB) loadCheckpoint(durable *wal.Log, dir string, rep *RecoveryReport) (wal.LSN, error) {
	if dir != "" {
		snap, err := loadSnapFile(dir)
		if err != nil {
			return wal.NilLSN, err
		}
		if snap == nil {
			return wal.NilLSN, nil
		}
		if err := db.applySnapshot(snap); err != nil {
			return wal.NilLSN, err
		}
		rep.AnchorLSN = snap.SnapLSN
		rep.SnapshotUsed = true
		return snap.SnapLSN, nil
	}
	ck := durable.LastCheckpoint()
	if ck == wal.NilLSN {
		return wal.NilLSN, nil
	}
	rec, err := durable.Read(ck)
	if err != nil {
		return wal.NilLSN, err
	}
	switch rec.Payload[0] {
	case ckptEmbedded:
		snap, err := decodeSnapshot(rec.Payload[1:])
		if err != nil {
			return wal.NilLSN, err
		}
		if err := db.applySnapshot(snap); err != nil {
			return wal.NilLSN, err
		}
		rep.AnchorLSN = snap.SnapLSN
		rep.SnapshotUsed = true
		return snap.SnapLSN, nil
	case ckptRef:
		return wal.NilLSN, fmt.Errorf("sqlmini: checkpoint at LSN %d references a disk snapshot but no repository directory is configured", ck)
	default:
		return wal.NilLSN, fmt.Errorf("sqlmini: checkpoint at LSN %d has unknown payload kind %#x", ck, rec.Payload[0])
	}
}

// redoOne replays a single logged change.
func (db *DB) redoOne(p logPayload) error {
	switch p.Op {
	case opCreateTable:
		_, err := db.cat.create(p.Table, p.Cols)
		return err
	case opDropTable:
		return db.cat.drop(p.Table)
	case opCreateIndex:
		tbl, err := db.cat.get(p.Table)
		if err != nil {
			return err
		}
		tbl.AddIndex(tbl.ColIndex(p.Col))
		return nil
	case opDropIndex:
		tbl, err := db.cat.get(p.Table)
		if err != nil {
			return err
		}
		tbl.DropIndex(tbl.ColIndex(p.Col))
		return nil
	case opInsert:
		tbl, err := db.cat.get(p.Table)
		if err != nil {
			return err
		}
		return tbl.InsertAt(p.Row, p.After)
	case opDelete:
		tbl, err := db.cat.get(p.Table)
		if err != nil {
			return err
		}
		tbl.Delete(p.Row)
		return nil
	case opUpdate:
		tbl, err := db.cat.get(p.Table)
		if err != nil {
			return err
		}
		_, err = tbl.Update(p.Row, p.After)
		return err
	default:
		return fmt.Errorf("sqlmini: cannot redo op %d", p.Op)
	}
}

// undoLoser rolls back an unfinished transaction during recovery. If the
// crash interrupted an abort, already-undone changes are skipped by
// following CLR UndoLSN pointers.
func (db *DB) undoLoser(id uint64, last wal.LSN) error {
	cur := last
	for cur != wal.NilLSN {
		rec, err := db.log.Read(cur)
		if err != nil {
			return err
		}
		switch rec.Type {
		case wal.RecCLR:
			cur = rec.UndoLSN
		case wal.RecUpdate:
			if err := db.undoOne(rec, id); err != nil {
				return err
			}
			cur = rec.PrevLSN
		default:
			cur = rec.PrevLSN
		}
	}
	_, err := db.log.Append(wal.Record{Type: wal.RecEnd, TxnID: id})
	return err
}

// relockBackchain takes X locks on every row an in-doubt transaction wrote.
func (db *DB) relockBackchain(txn *Txn) error {
	cur := txn.lastLSN
	for cur != wal.NilLSN {
		rec, err := db.log.Read(cur)
		if err != nil {
			return err
		}
		if rec.Type == wal.RecUpdate || rec.Type == wal.RecCLR {
			p, err := decodePayload(rec.Payload)
			if err != nil {
				return err
			}
			if p.Op == opInsert || p.Op == opDelete || p.Op == opUpdate {
				if err := db.lm.Acquire(txn.id, LockTarget{Table: p.Table, Row: p.Row}, LockX); err != nil {
					return err
				}
			}
		}
		if rec.Type == wal.RecCLR {
			cur = rec.UndoLSN
		} else {
			cur = rec.PrevLSN
		}
	}
	return nil
}

// InDoubt lists transactions recovered in the prepared state.
func (db *DB) InDoubt() []uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []uint64
	for id, t := range db.active {
		if t.state == TxnPrepared {
			out = append(out, id)
		}
	}
	return out
}

// ResolveInDoubt finishes a prepared transaction with the coordinator's
// verdict.
func (db *DB) ResolveInDoubt(id uint64, commit bool) error {
	db.mu.Lock()
	txn, ok := db.active[id]
	db.mu.Unlock()
	if !ok || txn.state != TxnPrepared {
		return fmt.Errorf("sqlmini: txn %d is not in-doubt", id)
	}
	if commit {
		return txn.Commit()
	}
	return txn.Abort()
}
