package sqlmini

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

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

// Crash simulates a process kill: the unwritten log tail is discarded and
// the database becomes unusable. The returned log is the log directory
// reopened, what a restart would find on disk; feed it to Recover. An error
// means the directory could not be reopened.
func (db *DB) Crash() (*wal.Log, error) {
	return db.log.Crash()
}

// Recover performs ARIES-style restart recovery from a durable log: analysis
// (classify transactions) and redo (replay history) in one scan of the
// segments, then undo (roll back losers from the undo lists the scan
// rebuilt). Prepared (in-doubt) transactions are redone, re-locked, and left
// pending for ResolveInDoubt — the 2PC coordinator decides their fate, and
// an abort rolls one back through the same code as a live abort.
//
// The scan is anchored at the checkpoint in opts.Dir: the snapshot image
// seeds the catalog at the anchor LSN, and only the log tail after it is
// replayed. Checkpoints are quiescent, so no loser or in-doubt transaction
// logged a change below the anchor. Without a checkpoint the scan runs from
// the log's start. Recovery ends with a checkpoint when opts.Dir is set.
func Recover(durable *wal.Log, opts Options) (*DB, *RecoveryReport, error) {
	opts.Log = durable
	db := NewDB(opts)
	rep := &RecoveryReport{}

	anchor, err := db.loadCheckpoint(opts.Dir, rep)
	if err != nil {
		return nil, nil, err
	}
	if base := durable.Base(); base > anchor {
		// The log head was truncated past our anchor: the snapshot that
		// justified that truncation is missing or stale. Refusing beats
		// silently replaying an incomplete history.
		return nil, nil, fmt.Errorf("sqlmini: log starts at LSN %d but the checkpoint anchor is %d; snapshot missing or stale", base+1, anchor)
	}

	// Analysis and redo, in one scan of the tail after the anchor. Redo
	// replays every change, committed or not (repeating history): the
	// snapshot already holds every change at or below the anchor, and redo
	// is not idempotent (InsertAt of an existing row fails), so the anchor
	// gate is what makes a crash between snapshot rename and log truncation
	// harmless. Each unfinished transaction's undo list is rebuilt as its
	// abort would have kept it: a change joins it, a CLR takes off the
	// changes it compensated.
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
			p, err := decodePayload(rec.Payload)
			if err == nil {
				err = db.redoOne(p)
			}
			if err != nil {
				scanErr = err
				return false
			}
			rep.Redone++
			if ti.log == nil {
				ti.log = txnLogs.Get().(*txnLog)
			}
			undo := ti.log.undo
			if rec.Type == wal.RecUpdate {
				undo = append(undo, undoEntry{p: p, prev: rec.PrevLSN})
			} else {
				for len(undo) > 0 && undo[len(undo)-1].prev >= rec.UndoLSN {
					undo[len(undo)-1] = undoEntry{}
					undo = undo[:len(undo)-1]
				}
			}
			ti.log.undo = undo
		case wal.RecPrepare:
			ti.state = TxnPrepared
			ti.lastLSN = rec.LSN
			note, err := prepareNote(rec.Payload)
			if err != nil {
				scanErr = fmt.Errorf("prepare of txn %d at LSN %d: %w", rec.TxnID, rec.LSN, err)
				return false
			}
			ti.note = note
		case wal.RecCommit:
			ti.state = TxnCommitted
			ti.lastLSN = rec.LSN
			ti.askable = len(rec.Payload) > 0
			ti.dropLog()
		case wal.RecAbort:
			ti.state = TxnAborted
		case wal.RecEnd:
			ti.ended = true
			ti.dropLog()
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

	// Undo pass: roll back losers (active or mid-abort, not ended). Only a
	// commit participants may still ask about is remembered; an abort is
	// not, since a participant presumes an unknown outcome aborted.
	for id, ti := range txns {
		switch {
		case ti.state == TxnCommitted:
			rep.CommittedTxns = append(rep.CommittedTxns, id)
			if ti.askable && !ti.ended {
				db.committed[id] = struct{}{}
			}
		case ti.ended:
			// Rolled back to its END: aborted, or a loser an earlier
			// recovery undid. The log has no checkpoint to hide it when
			// the database has no Dir, so it is seen again.
		case ti.state == TxnPrepared:
			rep.InDoubtTxns = append(rep.InDoubtTxns, id)
			txn := &Txn{db: db, id: id, state: TxnPrepared, begun: true, lastLSN: ti.lastLSN, note: ti.note, log: ti.log}
			db.active[id] = txn
			// Re-acquire exclusive locks on everything the in-doubt txn
			// changed so new transactions cannot see or change those rows
			// until the coordinator resolves the outcome.
			if err := db.relock(txn); err != nil {
				return nil, nil, err
			}
		default: // loser
			rep.LoserTxns = append(rep.LoserTxns, id)
			if err := db.undoLoser(id, ti.log); err != nil {
				return nil, nil, err
			}
		}
	}
	if _, err := db.log.Flush(); err != nil {
		return nil, nil, err
	}
	// A fresh checkpoint caps what the next restart must replay. In-doubt
	// transactions keep the database non-quiescent, which only postpones
	// it; a failed one is counted (the log stays authoritative).
	if opts.Dir != "" {
		if _, err := db.Checkpoint(); err != nil {
			db.ckptFailures.Inc()
		}
	}
	return db, rep, nil
}

// txnInfo is what restart recovery learns of one transaction from the log.
type txnInfo struct {
	state   TxnState
	lastLSN wal.LSN
	ended   bool
	askable bool // a commit participants may ask about
	note    Row
	log     *txnLog // its undo list, while it may need undoing
}

// dropLog returns the undo list of a transaction that finished.
func (ti *txnInfo) dropLog() {
	if ti.log != nil {
		ti.log.release()
		ti.log = nil
	}
}

// loadCheckpoint seeds db from repo.snap in dir and returns its anchor LSN
// (NilLSN when there is no directory or no snapshot in it).
func (db *DB) loadCheckpoint(dir string, rep *RecoveryReport) (wal.LSN, error) {
	if dir == "" {
		return wal.NilLSN, nil
	}
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

// undoLoser rolls back an unfinished transaction during recovery, from the
// undo list the scan rebuilt: the changes an interrupted abort already
// compensated are no longer on it.
func (db *DB) undoLoser(id uint64, tl *txnLog) error {
	if err := db.rollback(id, tl); err != nil {
		return err
	}
	if tl != nil {
		tl.release()
	}
	_, err := db.log.Append(wal.Record{Type: wal.RecEnd, TxnID: id})
	return err
}

// relock takes X locks on every row an in-doubt transaction's undo list
// changed.
func (db *DB) relock(txn *Txn) error {
	if txn.log == nil {
		return nil
	}
	for i := range txn.log.undo {
		p := &txn.log.undo[i].p
		if p.Op == opInsert || p.Op == opDelete || p.Op == opUpdate {
			if err := db.lm.Acquire(txn.id, LockTarget{Table: p.Table, Row: p.Row}, LockX); err != nil {
				return err
			}
		}
	}
	return nil
}

// prepareNote decodes the note a RecPrepare carries. An empty payload — a
// prepare without a note, as every prepare logged before notes existed — has
// none.
func prepareNote(b []byte) (Row, error) {
	if len(b) == 0 {
		return nil, nil
	}
	p, err := decodePayload(b)
	if err != nil {
		return nil, err
	}
	if p.Op != opPrepare {
		return nil, fmt.Errorf("%w: op %d in a prepare record", ErrBadPayload, p.Op)
	}
	return p.After, nil
}

// Prepared is a transaction in the prepared state with the note its Prepare
// logged (nil when it logged none).
type Prepared struct {
	ID   uint64
	Note Row
}

// InDoubt lists the transactions in the prepared state, by id — after
// Recover, those recovered prepared, each with its note from the log.
func (db *DB) InDoubt() []Prepared {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []Prepared
	for id, t := range db.active {
		if t.state == TxnPrepared {
			out = append(out, Prepared{ID: id, Note: t.note})
		}
	}
	slices.SortFunc(out, func(a, b Prepared) int { return cmp.Compare(a.ID, b.ID) })
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
