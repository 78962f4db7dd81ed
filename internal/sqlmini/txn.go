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
// passed so functions like DLURLCOMPLETE can issue tokens in context. args
// is valid only during the call: the executor reuses it.
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
	// outcome holds the fate of every finished transaction a participant
	// may ask about (true=committed): those with enlisted XRMs, and those
	// restart recovery resolved.
	outcome map[uint64]bool

	// Failures nobody waits on, counted for an operator: a participant's
	// phase-2 commit or abort (it re-resolves at its recovery), an automatic
	// checkpoint (the log stays authoritative) and the in-memory undo of a
	// change whose log append failed (see undoFailed).
	xrmCommitFailures, xrmAbortFailures, ckptFailures, undoFailures *metrics.Counter

	// Checkpointing: dir holds repo.snap (empty = never checkpoint),
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
	// Log is the database's write-ahead log (wal.Open), required: a fresh
	// database takes an empty one, Recover the one it replays.
	Log *wal.Log
	// Metrics, when set, receives the lock manager's contention counters
	// (sqlmini.lock.waits / wait_ns / shard_collisions) and the failure
	// counters sqlmini.xrm.commit_failures, sqlmini.xrm.abort_failures,
	// sqlmini.checkpoint.failures and sqlmini.undo_failures.
	Metrics *metrics.Registry
	// Dir is where checkpoints write the repo.snap snapshot, usually the
	// log's own directory. Empty means the database never checkpoints and
	// its log keeps the whole history.
	Dir string
	// CheckpointBytes triggers an automatic quiescent checkpoint once this
	// many log bytes accumulate past the previous one. Zero disables
	// automatic checkpoints.
	CheckpointBytes int64
}

// NewDB creates an empty database over opts.Log.
func NewDB(opts Options) *DB {
	if opts.Log == nil {
		panic("sqlmini: Options.Log is required")
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	db := &DB{
		cat:       newCatalog(),
		log:       opts.Log,
		lm:        NewLockManager(opts.LockTimeout),
		clock:     opts.Clock,
		active:    make(map[uint64]*Txn),
		outcome:   make(map[uint64]bool),
		fns:       make(map[string]ScalarFn),
		dir:       opts.Dir,
		ckptBytes: opts.CheckpointBytes,
	}
	counter := func(name string) *metrics.Counter {
		if opts.Metrics == nil {
			return new(metrics.Counter)
		}
		return opts.Metrics.Counter(name)
	}
	db.xrmCommitFailures = counter("sqlmini.xrm.commit_failures")
	db.xrmAbortFailures = counter("sqlmini.xrm.abort_failures")
	db.ckptFailures = counter("sqlmini.checkpoint.failures")
	db.undoFailures = counter("sqlmini.undo_failures")
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
// recovery polls this to resolve in-doubt sub-transactions. Only a
// transaction that enlisted an XRM, or that restart recovery resolved, is
// known: nobody else can ask.
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
	note    Row // the prepare note, once prepared
	xrms    []XRM
	// onCommit/onAbort run after the outcome is durable; the engine uses them
	// for post-commit work like releasing in-memory link state.
	onCommit []func()
	onAbort  []func()

	// pkID and pkRow back matchRows' answer for a primary-key hit, valid
	// until the next matchRows on this transaction.
	pkID  [1]RowID
	pkRow [1]Row
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
// host database serving token SELECTs must not grow its log, which never
// checkpoints and keeps its tail in memory, by a begin and a commit record
// per read.
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

// CommitLSN returns the LSN of the transaction's commit record once it has
// committed: the first database state that includes its changes, which the
// log's durable tail may already have passed by another committer's flush.
// A read-only transaction logs no commit record and returns NilLSN.
func (t *Txn) CommitLSN() wal.LSN {
	if t.state != TxnCommitted {
		return wal.NilLSN
	}
	return t.lastLSN
}

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
// SQL INSERT goes through the executor which calls this. The table owns r
// from here on: the caller must not write it again.
func (t *Txn) InsertRow(tbl *Table, r Row) (RowID, error) {
	if t.state != TxnActive {
		return 0, errTxnDone
	}
	if err := t.callHook(tbl, DMLInsert, nil, r); err != nil {
		return 0, err
	}
	id, err := tbl.Insert(r)
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
		t.undoFailed(tbl.InsertAt(id, old))
		return err
	}
	return nil
}

// UpdateRow replaces a locked row with logging and hook processing. The
// table owns new from here on: the caller must not write it again.
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
	if _, err := tbl.Update(id, new); err != nil {
		return err
	}
	if err := t.logChange(logPayload{Op: opUpdate, Table: tbl.Name, Row: id, Before: old, After: new}); err != nil {
		_, uerr := tbl.Update(id, old)
		t.undoFailed(uerr)
		return err
	}
	return nil
}

// undoFailed counts, in sqlmini.undo_failures, an in-memory undo that failed
// after the change's log append did. It can: the row lock covers the row,
// not its old key, so between the change and its undo another transaction
// may take the primary key the undo puts back. The table then keeps the
// unlogged change until restart recovery rebuilds it from the log.
func (t *Txn) undoFailed(err error) {
	if err != nil {
		t.db.undoFailures.Inc()
	}
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

// dropTable performs logged DDL. Each row goes first, logged as a delete
// with its before image, then each secondary index as a dropped index, so
// undoing the drop — an abort, or recovery undoing a loser — recreates the
// table, its indexes and its rows. Every change is made before it is logged
// and put back if the append fails, so the table always matches the logged
// prefix an abort undoes.
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
	tbl.Scan(func(id RowID, r Row) bool {
		tbl.Delete(id)
		if err = t.logChange(logPayload{Op: opDelete, Table: name, Row: id, Before: r}); err != nil {
			t.undoFailed(tbl.InsertAt(id, r))
		}
		return err == nil
	})
	for col, c := range tbl.Columns {
		if err != nil || c.Kind == KindLink || !tbl.HasIndex(col) {
			continue
		}
		tbl.DropIndex(col)
		if err = t.logChange(logPayload{Op: opDropIndex, Table: name, Col: c.Name}); err != nil {
			tbl.AddIndex(col)
		}
	}
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
// The note rides the forced prepare record, and restart recovery hands it
// back with the transaction (InDoubt): what the participant needs to resolve
// it, such as the coordinator's transaction id. A nil note logs none.
func (t *Txn) Prepare(note Row) error {
	if t.state != TxnActive {
		return errTxnDone
	}
	rec := wal.Record{Type: wal.RecPrepare, PrevLSN: t.lastLSN}
	if len(note) > 0 {
		rec.Payload = encodePayload(logPayload{Op: opPrepare, After: note})
	}
	lsn, err := t.append(rec)
	if err != nil {
		return err
	}
	t.lastLSN = lsn
	if err := t.db.log.FlushTo(lsn); err != nil {
		return err
	}
	t.state = TxnPrepared
	t.note = note
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
	// does not change the outcome; the participant re-resolves at its
	// recovery, and the failure is counted.
	for _, x := range t.xrms {
		if x.CommitXRM(t.id) != nil {
			t.db.xrmCommitFailures.Inc()
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
		if x.AbortXRM(t.id) != nil {
			t.db.xrmAbortFailures.Inc() // the participant re-resolves at its recovery
		}
	}
	t.finish(false)
	for _, fn := range t.onAbort {
		fn()
	}
	return nil
}

// finish releases locks and records the outcome of a transaction with
// enlisted XRMs — the only ones a participant can ask Outcome about. The
// rest would grow the map by one entry per logged transaction, forever.
func (t *Txn) finish(committed bool) {
	t.db.mu.Lock()
	delete(t.db.active, t.id)
	if len(t.xrms) > 0 {
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
