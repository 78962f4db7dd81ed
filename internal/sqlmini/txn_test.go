package sqlmini

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"datalinks/internal/wal"
)

func TestTxnCommitVisibility(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	txn := db.Begin()
	if _, err := txn.Exec(`INSERT INTO t VALUES (1, 10)`); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	rows := mustQuery(t, db, `SELECT v FROM t WHERE id = 1`)
	if len(rows.Data) != 1 || rows.Data[0][0].I != 10 {
		t.Fatalf("rows = %+v", rows.Data)
	}
}

func TestTxnAbortUndoesEverything(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10), (2, 20)`)

	txn := db.Begin()
	txn.Exec(`INSERT INTO t VALUES (3, 30)`)
	txn.Exec(`UPDATE t SET v = 99 WHERE id = 1`)
	txn.Exec(`DELETE FROM t WHERE id = 2`)
	if err := txn.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}

	rows := mustQuery(t, db, `SELECT id, v FROM t ORDER BY id`)
	if len(rows.Data) != 2 {
		t.Fatalf("row count after abort = %d", len(rows.Data))
	}
	if rows.Data[0][1].I != 10 || rows.Data[1][1].I != 20 {
		t.Fatalf("values after abort = %+v", rows.Data)
	}
}

func TestTxnAbortRestoresIndexes(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)
	txn := db.Begin()
	txn.Exec(`DELETE FROM t WHERE id = 1`)
	txn.Abort()
	// PK index must be restored: a new insert of id 1 must conflict.
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 11)`); err == nil {
		t.Fatal("PK index lost the restored row")
	}
}

func TestTxnDoubleFinish(t *testing.T) {
	db := testDB(t)
	txn := db.Begin()
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := txn.Commit(); !errors.Is(err, errTxnDone) {
		t.Fatalf("double commit = %v", err)
	}
	if err := txn.Abort(); !errors.Is(err, errTxnDone) {
		t.Fatalf("abort after commit = %v", err)
	}
}

func TestWriteWriteBlocking(t *testing.T) {
	db := NewDB(Options{LockTimeout: 3 * time.Second})
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 0)`)

	t1 := db.Begin()
	if _, err := t1.Exec(`UPDATE t SET v = 1 WHERE id = 1`); err != nil {
		t.Fatalf("t1 update: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		t2 := db.Begin()
		_, err := t2.Exec(`UPDATE t SET v = 2 WHERE id = 1`)
		if err != nil {
			t2.Abort()
			done <- err
			return
		}
		done <- t2.Commit()
	}()

	select {
	case err := <-done:
		t.Fatalf("t2 finished while t1 held the row lock: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1 commit: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("t2: %v", err)
	}
	rows := mustQuery(t, db, `SELECT v FROM t WHERE id = 1`)
	if rows.Data[0][0].I != 2 {
		t.Fatalf("final v = %d, want 2 (t2 last)", rows.Data[0][0].I)
	}
}

func TestReadBlocksOnUncommittedWrite(t *testing.T) {
	db := NewDB(Options{LockTimeout: 200 * time.Millisecond})
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 0)`)

	t1 := db.Begin()
	t1.Exec(`UPDATE t SET v = 42 WHERE id = 1`)

	// Reader must not observe the dirty value; it blocks and times out.
	_, err := db.Query(`SELECT v FROM t WHERE id = 1`)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("dirty read attempt = %v, want lock timeout", err)
	}
	t1.Abort()
	rows := mustQuery(t, db, `SELECT v FROM t WHERE id = 1`)
	if rows.Data[0][0].I != 0 {
		t.Fatalf("v after abort = %d", rows.Data[0][0].I)
	}
}

func TestConcurrentDisjointRowUpdates(t *testing.T) {
	db := NewDB(Options{LockTimeout: 5 * time.Second})
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	for i := 0; i < 8; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 0)`, Int(int64(i)))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := db.Exec(`UPDATE t SET v = v + 1 WHERE id = ?`, Int(id)); err != nil {
					errs <- err
					return
				}
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent update: %v", err)
	}
	rows := mustQuery(t, db, `SELECT SUM(v) FROM t`)
	if rows.Data[0][0].I != 160 {
		t.Fatalf("sum = %d, want 160", rows.Data[0][0].I)
	}
}

func TestLostUpdatePrevented(t *testing.T) {
	db := NewDB(Options{LockTimeout: 5 * time.Second})
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 0)`)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := db.Exec(`UPDATE t SET v = v + 1 WHERE id = 1`); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rows := mustQuery(t, db, `SELECT v FROM t WHERE id = 1`)
	if rows.Data[0][0].I != 100 {
		t.Fatalf("v = %d, want 100 (no lost updates)", rows.Data[0][0].I)
	}
}

func TestSelectForUpdateTakesXLock(t *testing.T) {
	db := NewDB(Options{LockTimeout: 150 * time.Millisecond})
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 0)`)

	t1 := db.Begin()
	if _, err := t1.Query(`SELECT v FROM t WHERE id = 1 FOR UPDATE`); err != nil {
		t.Fatalf("select for update: %v", err)
	}
	// Another reader blocks (S incompatible with X).
	if _, err := db.Query(`SELECT v FROM t WHERE id = 1`); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("reader vs FOR UPDATE = %v", err)
	}
	t1.Commit()
}

func TestLockManagerUpgrade(t *testing.T) {
	lm := NewLockManager(time.Second)
	target := LockTarget{Table: "t", Row: 1}
	if err := lm.Acquire(1, target, LockS); err != nil {
		t.Fatalf("S: %v", err)
	}
	if err := lm.Acquire(1, target, LockX); err != nil {
		t.Fatalf("upgrade S->X sole holder: %v", err)
	}
	if lm.Holding(1, target) != LockX {
		t.Fatalf("mode = %v", lm.Holding(1, target))
	}
	lm.ReleaseAll(1)
	if lm.Holding(1, target) != 0 {
		t.Fatal("locks not released")
	}
}

func TestLockManagerUpgradeBlockedByOtherReader(t *testing.T) {
	lm := NewLockManager(100 * time.Millisecond)
	target := LockTarget{Table: "t", Row: 1}
	lm.Acquire(1, target, LockS)
	lm.Acquire(2, target, LockS)
	if err := lm.Acquire(1, target, LockX); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("upgrade with co-reader = %v", err)
	}
	lm.ReleaseAll(2)
	if err := lm.Acquire(1, target, LockX); err != nil {
		t.Fatalf("upgrade after release: %v", err)
	}
}

func TestTryAcquireNowait(t *testing.T) {
	lm := NewLockManager(time.Second)
	target := LockTarget{Table: "t", Row: 1}
	lm.Acquire(1, target, LockX)
	if err := lm.TryAcquire(2, target, LockS); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("try against X = %v", err)
	}
	if err := lm.TryAcquire(1, target, LockX); err != nil {
		t.Fatalf("re-try own lock: %v", err)
	}
}

func TestDeadlockResolvedByTimeout(t *testing.T) {
	db := NewDB(Options{LockTimeout: 200 * time.Millisecond})
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 0), (2, 0)`)

	t1 := db.Begin()
	t2 := db.Begin()
	if _, err := t1.Exec(`UPDATE t SET v = 1 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Exec(`UPDATE t SET v = 2 WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() { _, err := t1.Exec(`UPDATE t SET v = 1 WHERE id = 2`); done <- err }()
	go func() { _, err := t2.Exec(`UPDATE t SET v = 2 WHERE id = 1`); done <- err }()
	e1, e2 := <-done, <-done
	if e1 == nil && e2 == nil {
		t.Fatal("deadlock not detected: both acquired")
	}
	t1.Abort()
	t2.Abort()
}

func TestOnCommitOnAbortHooks(t *testing.T) {
	db := testDB(t)
	var committed, aborted bool
	t1 := db.Begin()
	t1.OnCommit(func() { committed = true })
	t1.OnAbort(func() { aborted = true })
	t1.Commit()
	if !committed || aborted {
		t.Fatalf("hooks after commit: committed=%v aborted=%v", committed, aborted)
	}
	committed, aborted = false, false
	t2 := db.Begin()
	t2.OnCommit(func() { committed = true })
	t2.OnAbort(func() { aborted = true })
	t2.Abort()
	if committed || !aborted {
		t.Fatalf("hooks after abort: committed=%v aborted=%v", committed, aborted)
	}
}

// fakeXRM records 2PC calls and can be told to fail prepare.
type fakeXRM struct {
	name        string
	prepared    []uint64
	committed   []uint64
	aborted     []uint64
	failPrepare bool
}

func (f *fakeXRM) XRMName() string { return f.name }
func (f *fakeXRM) PrepareXRM(id uint64) error {
	if f.failPrepare {
		return fmt.Errorf("%s: prepare refused", f.name)
	}
	f.prepared = append(f.prepared, id)
	return nil
}
func (f *fakeXRM) CommitXRM(id uint64) error {
	f.committed = append(f.committed, id)
	return nil
}
func (f *fakeXRM) AbortXRM(id uint64) error {
	f.aborted = append(f.aborted, id)
	return nil
}

func TestTwoPhaseCommitSuccess(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT)`)
	x1 := &fakeXRM{name: "dlfm1"}
	x2 := &fakeXRM{name: "dlfm2"}
	txn := db.Begin()
	txn.Enlist(x1)
	txn.Enlist(x2)
	txn.Enlist(x1) // duplicate enlistment ignored
	txn.Exec(`INSERT INTO t VALUES (1)`)
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if len(x1.prepared) != 1 || len(x1.committed) != 1 || len(x1.aborted) != 0 {
		t.Fatalf("x1 calls = %+v", x1)
	}
	if len(x2.prepared) != 1 || len(x2.committed) != 1 {
		t.Fatalf("x2 calls = %+v", x2)
	}
	if c, known := db.Outcome(txn.ID()); !known || !c {
		t.Fatalf("outcome = %v, %v", c, known)
	}
}

func TestTwoPhaseCommitPrepareFailureAbortsHost(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT)`)
	good := &fakeXRM{name: "good"}
	bad := &fakeXRM{name: "bad", failPrepare: true}
	txn := db.Begin()
	txn.Enlist(good)
	txn.Enlist(bad)
	txn.Exec(`INSERT INTO t VALUES (1)`)
	if err := txn.Commit(); err == nil {
		t.Fatal("commit should fail when a participant refuses prepare")
	}
	// Host change rolled back.
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].I != 0 {
		t.Fatalf("row survived failed 2PC: %d", rows.Data[0][0].I)
	}
	// The good participant must have been told to abort.
	if len(good.aborted) != 1 || len(good.committed) != 0 {
		t.Fatalf("good participant calls = %+v", good)
	}
	if c, known := db.Outcome(txn.ID()); !known || c {
		t.Fatalf("outcome = %v, %v; want aborted", c, known)
	}
}

func TestStateIDAdvancesOnCommit(t *testing.T) {
	db := testDB(t)
	s0 := db.StateID()
	mustExec(t, db, `CREATE TABLE t (id INT)`)
	s1 := db.StateID()
	if s1 <= s0 {
		t.Fatalf("state id did not advance: %d -> %d", s0, s1)
	}
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	if db.StateID() <= s1 {
		t.Fatal("state id did not advance on second commit")
	}
}

func TestDMLHookVeto(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT)`)
	db.SetDMLHook(func(txn *Txn, tbl *Table, op DMLOp, old, new Row) error {
		if op == DMLInsert && new[0].I == 13 {
			return errors.New("thirteen is unlucky")
		}
		return nil
	})
	if _, err := db.Exec(`INSERT INTO t VALUES (13)`); err == nil {
		t.Fatal("vetoed insert succeeded")
	}
	mustExec(t, db, `INSERT INTO t VALUES (12)`)
}

func TestDMLHookSeesOldAndNew(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)
	var gotOld, gotNew int64
	db.SetDMLHook(func(txn *Txn, tbl *Table, op DMLOp, old, new Row) error {
		if op == DMLUpdate {
			gotOld, gotNew = old[1].I, new[1].I
		}
		return nil
	})
	mustExec(t, db, `UPDATE t SET v = 20 WHERE id = 1`)
	if gotOld != 10 || gotNew != 20 {
		t.Fatalf("hook saw %d -> %d", gotOld, gotNew)
	}
}

// A log that refuses the append — it was closed under an open transaction, as
// Kill does to a member's repository — fails the statement with the typed
// error and leaves every table as it was; nothing panics.
func TestLogAppendFailureIsAnError(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT, tag VARCHAR)`)
	mustExec(t, db, `CREATE TABLE dropme (id INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10, 'a')`)
	mustExec(t, db, `INSERT INTO dropme VALUES (5)`)
	txn := db.Begin()
	db.Log().Close()
	for _, sql := range []string{
		`INSERT INTO t VALUES (2, 20, 'b')`,
		`UPDATE t SET v = 11 WHERE id = 1`,
		`DELETE FROM t WHERE id = 1`,
		`CREATE TABLE fresh (id INT)`,
		`CREATE INDEX ON t (tag)`,
		`DROP TABLE dropme`,
	} {
		if _, err := txn.Exec(sql); !errors.Is(err, wal.ErrClosed) {
			t.Fatalf("%s on a closed log: err = %v, want wal.ErrClosed", sql, err)
		}
	}
	if err := txn.Abort(); err != nil {
		t.Fatalf("abort of a transaction that logged nothing: %v", err)
	}
	if rows := mustQuery(t, db, `SELECT id, v FROM t`); len(rows.Data) != 1 || rows.Data[0][0].I != 1 || rows.Data[0][1].I != 10 {
		t.Fatalf("t after the failed statements: %+v", rows.Data)
	}
	if rows := mustQuery(t, db, `SELECT id FROM dropme`); len(rows.Data) != 1 {
		t.Fatalf("dropme lost its rows: %+v", rows.Data)
	}
	if _, err := db.Table("fresh"); err == nil {
		t.Fatal("the table of the failed CREATE exists")
	}
	if tbl, _ := db.Table("t"); tbl.HasIndex(tbl.ColIndex("tag")) {
		t.Fatal("the index of the failed CREATE INDEX exists")
	}
}
