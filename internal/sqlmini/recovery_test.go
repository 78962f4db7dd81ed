package sqlmini

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// recoverDB crashes db and runs restart recovery.
func recoverDB(t *testing.T, db *DB) (*DB, *RecoveryReport) {
	t.Helper()
	durable, err := db.Crash()
	if err != nil {
		t.Fatal(err)
	}
	db2, rep, err := Recover(durable, Options{LockTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return db2, rep
}

func TestRecoveryReplaysCommitted(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'one'), (2, 'two')`)
	mustExec(t, db, `UPDATE t SET v = 'uno' WHERE id = 1`)
	mustExec(t, db, `DELETE FROM t WHERE id = 2`)

	db2, rep := recoverDB(t, db)
	if len(rep.LoserTxns) != 0 {
		t.Fatalf("losers = %v", rep.LoserTxns)
	}
	rows := mustQuery(t, db2, `SELECT id, v FROM t`)
	if len(rows.Data) != 1 || rows.Data[0][1].S != "uno" {
		t.Fatalf("recovered rows = %+v", rows.Data)
	}
}

func TestRecoveryUndoesUncommitted(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)

	// Uncommitted transaction caught by the crash.
	txn := db.Begin()
	txn.Exec(`UPDATE t SET v = 999 WHERE id = 1`)
	txn.Exec(`INSERT INTO t VALUES (2, 20)`)
	// Force the log so the loser's records are durable (worst case for undo).
	db.Log().Flush()

	db2, rep := recoverDB(t, db)
	if len(rep.LoserTxns) != 1 {
		t.Fatalf("losers = %v", rep.LoserTxns)
	}
	rows := mustQuery(t, db2, `SELECT id, v FROM t`)
	if len(rows.Data) != 1 || rows.Data[0][0].I != 1 || rows.Data[0][1].I != 10 {
		t.Fatalf("recovered rows = %+v", rows.Data)
	}
	// Recovery remembers no abort: an unknown outcome reads as aborted.
	if c, known := db2.Outcome(txn.ID()); known || c {
		t.Fatalf("loser outcome = %v/%v, want unknown", c, known)
	}
}

func TestRecoveryLosesUnflushedCommit(t *testing.T) {
	// A commit whose record never reached stable storage did not happen.
	// Commit() flushes, so simulate by writing through a txn and crashing
	// before commit — the insert records may be durable but no commit is.
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT)`)
	txn := db.Begin()
	txn.Exec(`INSERT INTO t VALUES (1)`)
	db.Log().Flush() // updates durable, commit absent

	db2, _ := recoverDB(t, db)
	rows := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].I != 0 {
		t.Fatalf("uncommitted insert survived: %d", rows.Data[0][0].I)
	}
}

func TestRecoveryMidAbortContinuesUndo(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10), (2, 20)`)

	// Manually mimic a crash in the middle of an abort: updates logged,
	// abort record logged, one CLR logged, then crash.
	txn := db.Begin()
	txn.Exec(`UPDATE t SET v = 111 WHERE id = 1`)
	txn.Exec(`UPDATE t SET v = 222 WHERE id = 2`)
	db.Log().Flush()
	// Start an abort but "crash" before it completes by not letting it run:
	// we emulate the partial abort by flushing mid-way. Full abort then crash
	// after only the durable prefix includes part of the CLRs is equivalent.
	go txn.Abort()
	time.Sleep(10 * time.Millisecond)

	db2, _ := recoverDB(t, db)
	rows := mustQuery(t, db2, `SELECT id, v FROM t ORDER BY id`)
	if len(rows.Data) != 2 || rows.Data[0][1].I != 10 || rows.Data[1][1].I != 20 {
		t.Fatalf("rows after mid-abort recovery = %+v", rows.Data)
	}
}

func TestRecoveryKeepsInDoubtPrepared(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)

	txn := db.Begin()
	txn.Exec(`UPDATE t SET v = 77 WHERE id = 1`)
	if err := txn.Prepare(nil); err != nil {
		t.Fatalf("prepare: %v", err)
	}

	db2, rep := recoverDB(t, db)
	if len(rep.InDoubtTxns) != 1 || rep.InDoubtTxns[0] != txn.ID() {
		t.Fatalf("in-doubt = %v", rep.InDoubtTxns)
	}
	// The row is re-locked: readers must block/timeout.
	if _, err := db2.Query(`SELECT v FROM t WHERE id = 1`); err == nil {
		t.Fatal("read of in-doubt row should block")
	}
	// Coordinator says commit.
	if err := db2.ResolveInDoubt(txn.ID(), true); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	rows := mustQuery(t, db2, `SELECT v FROM t WHERE id = 1`)
	if rows.Data[0][0].I != 77 {
		t.Fatalf("v = %d after commit resolution", rows.Data[0][0].I)
	}
}

func TestRecoveryResolveInDoubtAbort(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)
	txn := db.Begin()
	txn.Exec(`UPDATE t SET v = 88 WHERE id = 1`)
	txn.Prepare(nil)

	db2, _ := recoverDB(t, db)
	if err := db2.ResolveInDoubt(txn.ID(), false); err != nil {
		t.Fatalf("resolve abort: %v", err)
	}
	rows := mustQuery(t, db2, `SELECT v FROM t WHERE id = 1`)
	if rows.Data[0][0].I != 10 {
		t.Fatalf("v = %d after abort resolution", rows.Data[0][0].I)
	}
	if err := db2.ResolveInDoubt(txn.ID(), false); err == nil {
		t.Fatal("double resolve should fail")
	}
}

// TestPrepareNoteSurvivesRotation: the note a prepare logs comes back with
// its transaction after a restart, though the segment that holds the
// prepare record was sealed behind later traffic; a note-less prepare comes
// back with none.
func TestPrepareNoteSurvivesRotation(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a'), (2, 'b')`)
	note := Row{Int(1 << 40), Str("link"), Str("/d/a.bin"), Int(100), Int(0o644), Bool(true)}
	noted, bare := db.Begin(), db.Begin()
	if _, err := noted.Exec(`UPDATE t SET v = 'x' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Exec(`UPDATE t SET v = 'y' WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	if err := noted.Prepare(note); err != nil {
		t.Fatal(err)
	}
	if err := bare.Prepare(nil); err != nil {
		t.Fatal(err)
	}
	before := len(walFiles(t, dir))
	for i := 3; len(walFiles(t, dir)) < before+2; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 'some-padding-value-to-fill-the-log')`, Int(int64(i)))
	}

	db2, _ := reopenDisk(t, db, dir)
	defer db2.Log().Close()
	want := []Prepared{{ID: noted.ID(), Note: note}, {ID: bare.ID()}}
	if got := db2.InDoubt(); !reflect.DeepEqual(got, want) {
		t.Fatalf("in doubt = %+v, want %+v", got, want)
	}
	for _, p := range want {
		if err := db2.ResolveInDoubt(p.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := db2.InDoubt(); len(got) != 0 {
		t.Fatalf("in doubt after resolving = %+v", got)
	}
}

// A prepare record holding anything but a note is refused with the typed
// error (a note cut short is: TestPayloadRoundTrip cuts the op-prepare seed
// at every byte).
func TestPrepareRecordHoldsOnlyANote(t *testing.T) {
	if _, err := prepareNote(encodePayload(updatePayload())); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("a prepare record holding an update: err = %v, want ErrBadPayload", err)
	}
}

func TestRecoveryDDL(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE keepme (id INT)`)
	mustExec(t, db, `CREATE TABLE dropme (id INT)`)
	mustExec(t, db, `DROP TABLE dropme`)

	// Uncommitted CREATE must vanish.
	txn := db.Begin()
	txn.Exec(`CREATE TABLE ghost (id INT)`)
	db.Log().Flush()

	db2, _ := recoverDB(t, db)
	names := db2.TableNames()
	if len(names) != 1 || names[0] != "keepme" {
		t.Fatalf("tables after recovery = %v", names)
	}
}

// TestRecoveryRebuildsIndexes: CREATE INDEX is WAL-logged DDL, so a
// recovered database serves the same predicates index-backed instead of
// silently degrading to full scans; an index created by a loser transaction
// is dropped by undo.
func TestRecoveryRebuildsIndexes(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, cat VARCHAR)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a')`)
	mustExec(t, db, `CREATE INDEX ON t (cat)`)

	// A loser transaction creates a second index the crash must roll back.
	loser := db.Begin()
	if _, err := loser.Exec(`CREATE INDEX ON t (id)`); err != nil {
		t.Fatal(err)
	}
	db.Log().Flush()

	db2, _ := recoverDB(t, db)
	tbl, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.HasIndex(tbl.ColIndex("cat")) {
		t.Fatal("committed index lost by recovery")
	}
	if tbl.HasIndex(tbl.ColIndex("id")) {
		t.Fatal("loser transaction's index survived recovery")
	}
	if ids, ok := tbl.LookupIndex(tbl.ColIndex("cat"), Str("a")); !ok || len(ids) != 2 {
		t.Fatalf("recovered index lookup = %v, %v", ids, ok)
	}
	rows := mustQuery(t, db2, `SELECT COUNT(*) FROM t WHERE cat = 'a'`)
	if rows.Data[0][0].I != 2 {
		t.Fatalf("indexed count after recovery = %d", rows.Data[0][0].I)
	}
}

// TestDropTableUndoRestoresRowsAndIndexes: a DROP TABLE logs each row and
// secondary index before the drop, so undoing it — an explicit abort, or
// recovery undoing a loser — brings back the rows, the count and the index
// lookup, not an empty table.
func TestDropTableUndoRestoresRowsAndIndexes(t *testing.T) {
	for _, tc := range []struct {
		name string
		undo func(t *testing.T, db *DB, txn *Txn) *DB
	}{
		{"abort", func(t *testing.T, db *DB, txn *Txn) *DB {
			if err := txn.Abort(); err != nil {
				t.Fatal(err)
			}
			return db
		}},
		{"recovery undoes a loser", func(t *testing.T, db *DB, _ *Txn) *DB {
			db.Log().Flush()
			db2, rep := recoverDB(t, db)
			if len(rep.LoserTxns) != 1 {
				t.Fatalf("losers = %v, want the dropping transaction", rep.LoserTxns)
			}
			return db2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := testDB(t)
			mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, cat VARCHAR)`)
			mustExec(t, db, `CREATE INDEX ON t (cat)`)
			mustExec(t, db, `INSERT INTO t VALUES (1, 'a'), (2, 'b')`)
			txn := db.Begin()
			if _, err := txn.Exec(`DROP TABLE t`); err != nil {
				t.Fatal(err)
			}
			db = tc.undo(t, db, txn)
			if rows := mustQuery(t, db, `SELECT COUNT(*) FROM t`); rows.Data[0][0].I != 2 {
				t.Fatalf("COUNT(*) after the undone drop = %d, want 2", rows.Data[0][0].I)
			}
			tbl, err := db.Table("t")
			if err != nil {
				t.Fatal(err)
			}
			if ids, ok := tbl.LookupIndex(tbl.ColIndex("cat"), Str("b")); !ok || len(ids) != 1 {
				t.Fatalf("index lookup after the undone drop = %v, %v", ids, ok)
			}
			if rows := mustQuery(t, db, `SELECT cat FROM t WHERE id = 1`); len(rows.Data) != 1 || rows.Data[0][0].S != "a" {
				t.Fatalf("row 1 after the undone drop = %+v", rows.Data)
			}
		})
	}
}

// TestDuplicateCreateIndexAbortKeepsIndex: a duplicate CREATE INDEX is a
// no-op and must not be logged — otherwise undoing the aborted duplicate
// would drop the committed index.
func TestDuplicateCreateIndexAbortKeepsIndex(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, cat VARCHAR)`)
	mustExec(t, db, `CREATE INDEX ON t (cat)`)
	txn := db.Begin()
	if _, err := txn.Exec(`CREATE INDEX ON t (cat)`); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.HasIndex(tbl.ColIndex("cat")) {
		t.Fatal("aborted duplicate CREATE INDEX dropped the committed index")
	}
}

func TestRecoveryAfterRecoveryIsStable(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 1)`)
	db2, _ := recoverDB(t, db)
	mustExec(t, db2, `INSERT INTO t VALUES (2, 2)`)
	db3, _ := recoverDB(t, db2)
	rows := mustQuery(t, db3, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].I != 2 {
		t.Fatalf("double recovery count = %d", rows.Data[0][0].I)
	}
	// New transactions keep working post-recovery.
	mustExec(t, db3, `INSERT INTO t VALUES (3, 3)`)
}

// A loser undone by one recovery (CLRs, then END) is finished for the next:
// without a checkpoint that recovery replays it, and neither undoes it again
// nor logs another END.
func TestRecoveryDoesNotUndoALoserTwice(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 1)`)
	txn := db.Begin()
	if _, err := txn.Exec(`UPDATE t SET v = 2 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Log().Flush(); err != nil {
		t.Fatal(err)
	}
	db2, rep := recoverDB(t, db)
	if len(rep.LoserTxns) != 1 {
		t.Fatalf("first recovery: losers %v, want the one in flight", rep.LoserTxns)
	}
	tail := db2.Log().TailLSN()
	db3, rep := recoverDB(t, db2)
	if len(rep.LoserTxns) != 0 || db3.Log().TailLSN() != tail {
		t.Fatalf("second recovery: losers %v, tail %d -> %d; want none and nothing logged", rep.LoserTxns, tail, db3.Log().TailLSN())
	}
	if c, known := db3.Outcome(txn.ID()); known || c {
		t.Fatalf("outcome of the undone loser: committed=%v known=%v, want unknown", c, known)
	}
	if rows := mustQuery(t, db3, `SELECT v FROM t WHERE id = 1`); rows.Data[0][0].I != 1 {
		t.Fatalf("v = %d, want 1", rows.Data[0][0].I)
	}
}

// Property: for any interleaving of committed and aborted increments, with
// one in-flight increment caught by the crash, the recovered counter equals
// the number of committed increments. (Uncommitted work other than the final
// in-flight transaction is aborted through the normal path: strict 2PL means
// only one writer can be in flight at the instant of the crash.)
func TestRecoveryCounterProperty(t *testing.T) {
	prop := func(pattern []bool, inflight bool) bool {
		if len(pattern) > 25 {
			pattern = pattern[:25]
		}
		db := NewDB(Options{Log: testLog(t), LockTimeout: 500 * time.Millisecond})
		db.MustExec(`CREATE TABLE c (id INT PRIMARY KEY, n INT)`)
		db.MustExec(`INSERT INTO c VALUES (1, 0)`)
		want := int64(0)
		for _, commit := range pattern {
			txn := db.Begin()
			if _, err := txn.Exec(`UPDATE c SET n = n + 1 WHERE id = 1`); err != nil {
				return false
			}
			if commit {
				if err := txn.Commit(); err != nil {
					return false
				}
				want++
			} else {
				if err := txn.Abort(); err != nil {
					return false
				}
			}
		}
		if inflight {
			txn := db.Begin()
			if _, err := txn.Exec(`UPDATE c SET n = n + 1 WHERE id = 1`); err != nil {
				return false
			}
			db.Log().Flush() // its records are durable, its commit is not
		}
		durable, err := db.Crash()
		if err != nil {
			return false
		}
		db2, _, err := Recover(durable, Options{})
		if err != nil {
			return false
		}
		rows, err := db2.Query(`SELECT n FROM c WHERE id = 1`)
		if err != nil || len(rows.Data) != 1 {
			return false
		}
		return rows.Data[0][0].I == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
