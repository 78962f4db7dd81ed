package sqlmini

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"datalinks/internal/metrics"
	"datalinks/internal/wal"
)

// XRM is an external resource manager enlisted in a host transaction — the
// interface DLFM implements so its sub-transaction commits and aborts with
// the host database transaction (two-phase commit, §2.2).
type XRM interface {
	// XRMName identifies the participant in logs and errors.
	XRMName() string
	// PrepareXRM must make the sub-transaction's outcome durable-pending.
	PrepareXRM(hostTxn uint64) error
	// CommitXRM and AbortXRM finish the sub-transaction.
	CommitXRM(hostTxn uint64) error
	AbortXRM(hostTxn uint64) error
}

// TxnState is the lifecycle state of a transaction.
type TxnState uint8

// Transaction states.
const (
	TxnActive TxnState = iota + 1
	TxnPrepared
	TxnCommitted
	TxnAborted
)

// DMLOp tells a DML hook what happened to a row.
type DMLOp uint8

// DML operations visible to hooks.
const (
	DMLInsert DMLOp = iota + 1
	DMLDelete
	DMLUpdate
)

// DMLHook observes row changes inside the executing transaction, before they
// are applied. The DataLinks engine registers one to turn DATALINK column
// changes into DLFM link/unlink sub-transaction work. Returning an error
// vetoes the statement.
type DMLHook func(txn *Txn, table *Table, op DMLOp, old, new Row) error

// ScalarFn is a SQL scalar function implementation. The transaction is
// passed so functions like DLURLCOMPLETE can issue tokens in context.
type ScalarFn func(txn *Txn, args []Value) (Value, error)

// DB is a sqlmini database instance.
type DB struct {
	cat   *catalog
	log   *wal.Log
	lm    *LockManager
	clock func() time.Time

	mu      sync.Mutex
	nextTxn uint64
	active  map[uint64]*Txn
	outcome map[uint64]bool // finished txns: true=committed

	// Checkpointing: dir holds repo.snap (empty = embedded checkpoints),
	// ckptBytes is the automatic trigger, ckptMu serializes checkpoints.
	dir       string
	ckptBytes int64
	ckptMu    sync.Mutex

	hookMu  sync.RWMutex
	dmlHook DMLHook
	fns     map[string]ScalarFn

	stmts stmtCache
}

// Options configures a DB.
type Options struct {
	Clock       func() time.Time
	LockTimeout time.Duration
	Log         *wal.Log // reuse an existing log (recovery); nil = fresh
	// Metrics, when set, receives the lock manager's contention counters
	// (sqlmini.lock.waits / wait_ns / shard_collisions).
	Metrics *metrics.Registry
	// Dir is the repository directory holding the disk WAL segments and the
	// repo.snap checkpoint snapshot. Empty keeps checkpoints embedded in the
	// (in-memory) log.
	Dir string
	// CheckpointBytes triggers an automatic quiescent checkpoint once this
	// many log bytes accumulate past the previous one. Zero disables
	// automatic checkpoints.
	CheckpointBytes int64
}

// NewDB creates an empty database.
func NewDB(opts Options) *DB {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	lg := opts.Log
	if lg == nil {
		lg = wal.New()
	}
	db := &DB{
		cat:       newCatalog(),
		log:       lg,
		lm:        NewLockManager(opts.LockTimeout),
		clock:     opts.Clock,
		active:    make(map[uint64]*Txn),
		outcome:   make(map[uint64]bool),
		fns:       make(map[string]ScalarFn),
		dir:       opts.Dir,
		ckptBytes: opts.CheckpointBytes,
	}
	if opts.Metrics != nil {
		db.lm.AttachMetrics(
			opts.Metrics.Counter("sqlmini.lock.waits"),
			opts.Metrics.Counter("sqlmini.lock.wait_ns"),
			opts.Metrics.Counter("sqlmini.lock.shard_collisions"),
		)
	}
	registerBuiltins(db)
	return db
}

// SetDMLHook installs the row-change observer (the DataLinks engine).
func (db *DB) SetDMLHook(h DMLHook) {
	db.hookMu.Lock()
	defer db.hookMu.Unlock()
	db.dmlHook = h
}

// RegisterFn installs a scalar SQL function under the given (upper-cased) name.
func (db *DB) RegisterFn(name string, fn ScalarFn) {
	db.hookMu.Lock()
	defer db.hookMu.Unlock()
	db.fns[normalizeFnName(name)] = fn
}

func (db *DB) scalarFn(name string) (ScalarFn, bool) {
	db.hookMu.RLock()
	defer db.hookMu.RUnlock()
	fn, ok := db.fns[normalizeFnName(name)]
	return fn, ok
}

// Log exposes the WAL (used by crash tests and the engine's state ids).
func (db *DB) Log() *wal.Log { return db.log }

// LockManager exposes the lock manager for wait statistics.
func (db *DB) LockManager() *LockManager { return db.lm }

// Clock returns the database clock.
func (db *DB) Clock() func() time.Time { return db.clock }

// StateID returns the current database state identifier — the durable tail
// LSN. Archived file versions are tagged with it (§4.4).
func (db *DB) StateID() wal.LSN { return db.log.DurableLSN() }

// TableNames lists the catalog (admin/shell use).
func (db *DB) TableNames() []string { return db.cat.names() }

// Table returns a handle on a table.
func (db *DB) Table(name string) (*Table, error) { return db.cat.get(name) }

// Outcome reports whether a finished transaction committed. The second
// return is false while the transaction is still active or unknown — DLFM
// recovery polls this to resolve in-doubt sub-transactions.
func (db *DB) Outcome(txnID uint64) (committed, known bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.outcome[txnID]
	return c, ok
}

// Txn is a database transaction.
type Txn struct {
	db      *DB
	id      uint64
	state   TxnState
	begun   bool // the begin record is in the log
	lastLSN wal.LSN
	xrms    []XRM
	// onCommit/onAbort run after the outcome is durable; the engine uses them
	// for post-commit work like releasing in-memory link state.
	onCommit []func()
	onAbort  []func()
}

// Begin starts a new transaction.
func (db *DB) Begin() *Txn {
	db.mu.Lock()
	db.nextTxn++
	id := db.nextTxn
	txn := &Txn{db: db, id: id, state: TxnActive}
	db.active[id] = txn
	db.mu.Unlock()
	return txn
}

// append logs one record of this transaction, preceded by its begin record
// the first time. A transaction that never logs anything and has no
// participants — a query — therefore leaves the log alone (readOnly): a
// host database serving token SELECTs must not grow its log, which in memory
// mode is its heap, by a begin and a commit record per read.
func (t *Txn) append(rec wal.Record) (wal.LSN, error) {
	if !t.begun {
		if _, err := t.db.log.Append(wal.Record{Type: wal.RecBegin, TxnID: t.id}); err != nil {
			return wal.NilLSN, err
		}
		t.begun = true
	}
	rec.TxnID = t.id
	return t.db.log.Append(rec)
}

// readOnly reports a transaction with nothing to make durable or undo and
// nobody to tell: commit and abort are then purely in-memory.
func (t *Txn) readOnly() bool { return !t.begun && len(t.xrms) == 0 }

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// DB returns the owning database.
func (t *Txn) DB() *DB { return t.db }

// State returns the current transaction state.
func (t *Txn) State() TxnState { return t.state }

// Enlist registers an external resource manager in this transaction. A
// participant is enlisted once; duplicates are ignored.
func (t *Txn) Enlist(x XRM) {
	for _, have := range t.xrms {
		if have == x {
			return
		}
	}
	t.xrms = append(t.xrms, x)
}

// OnCommit registers fn to run after a successful commit.
func (t *Txn) OnCommit(fn func()) { t.onCommit = append(t.onCommit, fn) }

// OnAbort registers fn to run after rollback completes.
func (t *Txn) OnAbort(fn func()) { t.onAbort = append(t.onAbort, fn) }

// errTxnDone guards against use-after-finish.
var errTxnDone = errors.New("sqlmini: transaction already finished")

// logChange appends an update record with backchain. On failure (the log is
// closed: this member was killed) nothing was logged, and the caller takes
// back the in-memory change it made ahead of the record.
func (t *Txn) logChange(p logPayload) error {
	lsn, err := t.append(wal.Record{
		Type:    wal.RecUpdate,
		PrevLSN: t.lastLSN,
		Payload: encodePayload(p),
	})
	if err != nil {
		return fmt.Errorf("sqlmini: log append: %w", err)
	}
	t.lastLSN = lsn
	return nil
}

// lockRow acquires a row lock for this transaction.
func (t *Txn) lockRow(table string, id RowID, mode LockMode) error {
	return t.db.lm.Acquire(t.id, LockTarget{Table: table, Row: id}, mode)
}

// lockTable acquires a table lock (DDL and inserts use X; scans use S on rows).
func (t *Txn) lockTable(table string, mode LockMode) error {
	return t.db.lm.Acquire(t.id, LockTarget{Table: table, Whole: true}, mode)
}

// callHook invokes the DML hook if installed.
func (t *Txn) callHook(table *Table, op DMLOp, old, new Row) error {
	t.db.hookMu.RLock()
	h := t.db.dmlHook
	t.db.hookMu.RUnlock()
	if h == nil {
		return nil
	}
	return h(t, table, op, old, new)
}

// InsertRow inserts a row (typed, coerced) into the named table with full
// locking, logging and hook processing. Exposed for engine-internal use;
// SQL INSERT goes through the executor which calls this.
func (t *Txn) InsertRow(tbl *Table, r Row) (RowID, error) {
	if t.state != TxnActive {
		return 0, errTxnDone
	}
	if err := t.callHook(tbl, DMLInsert, nil, r); err != nil {
		return 0, err
	}
	id, err := tbl.Insert(r.Clone())
	if err != nil {
		return 0, err
	}
	if err := t.lockRow(tbl.Name, id, LockX); err != nil {
		// Lock failure after insert should be impossible (fresh row id), but
		// keep the table consistent if it ever happens.
		tbl.Delete(id)
		return 0, err
	}
	if err := t.logChange(logPayload{Op: opInsert, Table: tbl.Name, Row: id, After: r}); err != nil {
		tbl.Delete(id)
		return 0, err
	}
	return id, nil
}

// DeleteRow deletes a locked row with logging and hook processing.
func (t *Txn) DeleteRow(tbl *Table, id RowID) error {
	if t.state != TxnActive {
		return errTxnDone
	}
	if err := t.lockRow(tbl.Name, id, LockX); err != nil {
		return err
	}
	old, ok := tbl.Get(id)
	if !ok {
		return fmt.Errorf("sqlmini: row %d vanished from %s", id, tbl.Name)
	}
	if err := t.callHook(tbl, DMLDelete, old, nil); err != nil {
		return err
	}
	tbl.Delete(id)
	if err := t.logChange(logPayload{Op: opDelete, Table: tbl.Name, Row: id, Before: old}); err != nil {
		_ = tbl.InsertAt(id, old)
		return err
	}
	return nil
}

// UpdateRow replaces a locked row with logging and hook processing.
func (t *Txn) UpdateRow(tbl *Table, id RowID, new Row) error {
	if t.state != TxnActive {
		return errTxnDone
	}
	if err := t.lockRow(tbl.Name, id, LockX); err != nil {
		return err
	}
	old, ok := tbl.Get(id)
	if !ok {
		return fmt.Errorf("sqlmini: row %d vanished from %s", id, tbl.Name)
	}
	if err := t.callHook(tbl, DMLUpdate, old, new); err != nil {
		return err
	}
	if _, err := tbl.Update(id, new.Clone()); err != nil {
		return err
	}
	if err := t.logChange(logPayload{Op: opUpdate, Table: tbl.Name, Row: id, Before: old, After: new}); err != nil {
		_, _ = tbl.Update(id, old)
		return err
	}
	return nil
}

// readLockRow takes a shared lock for reads within the transaction.
func (t *Txn) readLockRow(table string, id RowID) error {
	return t.lockRow(table, id, LockS)
}

// createTable performs logged DDL.
func (t *Txn) createTable(name string, cols []Column) error {
	if t.state != TxnActive {
		return errTxnDone
	}
	if err := t.lockTable(name, LockX); err != nil {
		return err
	}
	if _, err := t.db.cat.create(name, cols); err != nil {
		return err
	}
	if err := t.logChange(logPayload{Op: opCreateTable, Table: name, Cols: cols}); err != nil {
		_ = t.db.cat.drop(name)
		return err
	}
	return nil
}

// createIndex performs logged DDL: the index is WAL-logged so it is rebuilt
// by restart recovery — repository hot paths stay index-backed after a
// crash instead of silently degrading to full scans.
func (t *Txn) createIndex(tbl *Table, col string) error {
	if t.state != TxnActive {
		return errTxnDone
	}
	if err := t.lockTable(tbl.Name, LockX); err != nil {
		return err
	}
	ci := tbl.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("sqlmini: no column %q in %s", col, tbl.Name)
	}
	if tbl.HasIndex(ci) {
		// Duplicate CREATE INDEX is a no-op and must not be logged: undoing
		// it would drop the committed index.
		return nil
	}
	tbl.AddIndex(ci)
	if err := t.logChange(logPayload{Op: opCreateIndex, Table: tbl.Name, Col: col}); err != nil {
		tbl.DropIndex(ci)
		return err
	}
	return nil
}

// dropTable performs logged DDL. The dropped rows are not individually
// logged; undo of a drop restores schema only (documented limitation, as in
// many real systems DDL is not fully transactional).
func (t *Txn) dropTable(name string) error {
	if t.state != TxnActive {
		return errTxnDone
	}
	if err := t.lockTable(name, LockX); err != nil {
		return err
	}
	tbl, err := t.db.cat.get(name)
	if err != nil {
		return err
	}
	if err := t.db.cat.drop(name); err != nil {
		return err
	}
	if err := t.logChange(logPayload{Op: opDropTable, Table: name, Cols: tbl.Columns}); err != nil {
		t.db.cat.restore(tbl)
		return err
	}
	return nil
}

// Prepare moves the transaction to the prepared (in-doubt) state of 2PC.
// Used when this database is itself a participant (the DLFM repository).
func (t *Txn) Prepare() error {
	if t.state != TxnActive {
		return errTxnDone
	}
	lsn, err := t.append(wal.Record{Type: wal.RecPrepare, PrevLSN: t.lastLSN})
	if err != nil {
		return err
	}
	t.lastLSN = lsn
	if err := t.db.log.FlushTo(lsn); err != nil {
		return err
	}
	t.state = TxnPrepared
	return nil
}

// Commit runs two-phase commit across enlisted XRMs and makes the
// transaction durable. The commit record's LSN becomes the new database
// state identifier.
func (t *Txn) Commit() error {
	if t.state != TxnActive && t.state != TxnPrepared {
		return errTxnDone
	}
	// Phase 1: prepare all participants. Any failure aborts everything.
	for _, x := range t.xrms {
		if err := x.PrepareXRM(t.id); err != nil {
			abortErr := t.Abort()
			if abortErr != nil {
				return fmt.Errorf("prepare %s failed: %w (abort also failed: %v)", x.XRMName(), err, abortErr)
			}
			return fmt.Errorf("sqlmini: prepare %s failed, transaction aborted: %w", x.XRMName(), err)
		}
	}
	// Commit point: durable commit record.
	if !t.readOnly() {
		lsn, err := t.append(wal.Record{Type: wal.RecCommit, PrevLSN: t.lastLSN})
		if err != nil {
			return err
		}
		if err := t.db.log.FlushTo(lsn); err != nil {
			return err
		}
		t.lastLSN = lsn
	}
	t.state = TxnCommitted
	// Phase 2: tell participants. Participant failure after the commit point
	// does not change the outcome; participants re-resolve at recovery.
	for _, x := range t.xrms {
		if err := x.CommitXRM(t.id); err != nil {
			// Log-and-continue semantics: outcome is already decided.
			_ = err
		}
	}
	t.finish(true)
	for _, fn := range t.onCommit {
		fn()
	}
	return nil
}

// Abort rolls back the transaction: every logged change is undone in reverse
// order with CLRs, participants abort, locks release.
func (t *Txn) Abort() error {
	if t.state != TxnActive && t.state != TxnPrepared {
		return errTxnDone
	}
	// A read-only transaction has nothing to undo (the backchain walk below
	// is empty) and logs neither the abort nor the end.
	logged := !t.readOnly()
	if logged {
		if _, err := t.append(wal.Record{Type: wal.RecAbort, PrevLSN: t.lastLSN}); err != nil {
			return err
		}
	}
	// Walk the backchain undoing updates.
	cur := t.lastLSN
	for cur != wal.NilLSN {
		rec, err := t.db.log.Read(cur)
		if err != nil {
			return fmt.Errorf("sqlmini: abort backchain: %w", err)
		}
		if rec.Type == wal.RecUpdate {
			if err := t.db.undoOne(rec, t.id); err != nil {
				return err
			}
		}
		cur = rec.PrevLSN
	}
	if logged {
		if _, err := t.append(wal.Record{Type: wal.RecEnd}); err != nil {
			return err
		}
	}
	t.state = TxnAborted
	for _, x := range t.xrms {
		if err := x.AbortXRM(t.id); err != nil {
			_ = err // participant will re-resolve at its recovery
		}
	}
	t.finish(false)
	for _, fn := range t.onAbort {
		fn()
	}
	return nil
}

// finish releases locks and records the outcome — except a read-only
// transaction's, which no participant or log record can ever ask about.
func (t *Txn) finish(committed bool) {
	t.db.mu.Lock()
	delete(t.db.active, t.id)
	if !t.readOnly() {
		t.db.outcome[t.id] = committed
	}
	t.db.mu.Unlock()
	t.db.lm.ReleaseAll(t.id)
	t.db.maybeCheckpoint()
}

// undoOne reverses a single logged change, writing a CLR.
func (db *DB) undoOne(rec wal.Record, txnID uint64) error {
	p, err := decodePayload(rec.Payload)
	if err != nil {
		return err
	}
	var clr logPayload
	switch p.Op {
	case opInsert:
		tbl, err := db.cat.get(p.Table)
		if err != nil {
			return err
		}
		tbl.Delete(p.Row)
		clr = logPayload{Op: opDelete, Table: p.Table, Row: p.Row, Before: p.After}
	case opDelete:
		tbl, err := db.cat.get(p.Table)
		if err != nil {
			return err
		}
		if err := tbl.InsertAt(p.Row, p.Before); err != nil {
			return err
		}
		clr = logPayload{Op: opInsert, Table: p.Table, Row: p.Row, After: p.Before}
	case opUpdate:
		tbl, err := db.cat.get(p.Table)
		if err != nil {
			return err
		}
		if _, err := tbl.Update(p.Row, p.Before); err != nil {
			return err
		}
		clr = logPayload{Op: opUpdate, Table: p.Table, Row: p.Row, Before: p.After, After: p.Before}
	case opCreateTable:
		if err := db.cat.drop(p.Table); err != nil {
			return err
		}
		clr = logPayload{Op: opDropTable, Table: p.Table, Cols: p.Cols}
	case opDropTable:
		if _, err := db.cat.create(p.Table, p.Cols); err != nil {
			return err
		}
		clr = logPayload{Op: opCreateTable, Table: p.Table, Cols: p.Cols}
	case opCreateIndex:
		tbl, err := db.cat.get(p.Table)
		if err != nil {
			return err
		}
		tbl.DropIndex(tbl.ColIndex(p.Col))
		clr = logPayload{Op: opDropIndex, Table: p.Table, Col: p.Col}
	case opDropIndex:
		tbl, err := db.cat.get(p.Table)
		if err != nil {
			return err
		}
		tbl.AddIndex(tbl.ColIndex(p.Col))
		clr = logPayload{Op: opCreateIndex, Table: p.Table, Col: p.Col}
	default:
		return fmt.Errorf("sqlmini: cannot undo op %d", p.Op)
	}
	_, err = db.log.Append(wal.Record{
		Type:    wal.RecCLR,
		TxnID:   txnID,
		UndoLSN: rec.PrevLSN,
		Payload: encodePayload(clr),
	})
	return err
}

// ActiveTxns returns the ids of currently active transactions.
func (db *DB) ActiveTxns() []uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]uint64, 0, len(db.active))
	for id := range db.active {
		out = append(out, id)
	}
	return out
}
