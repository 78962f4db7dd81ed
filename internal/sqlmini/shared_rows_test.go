package sqlmini

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"datalinks/internal/datalink"
	"datalinks/internal/metrics"
	"datalinks/internal/wal"
)

// Compare orders links as their URLs, without building them.
func TestCompareLinkMatchesURLOrder(t *testing.T) {
	links := []datalink.Link{
		{Server: "a", Path: "/y"},
		{Server: "a.b", Path: "/x"}, // "a.b" > "a" as a server, but "dlfs://a.b/x" < "dlfs://a/y"
		{Server: "a", Path: "/x"},
		{Server: "a", Path: "/x/"},
		{Server: "a", Path: "/x"}, // equal to an earlier one
		{Server: "ab", Path: "/"},
		{Server: "", Path: "/a"},
		{Server: "a", Path: ""},
		{Server: "", Path: ""},
		{Server: "srv", Path: "/d/f5.bin"},
		{Server: "srv", Path: "/d/f50.bin"},
		{Server: "srv/d", Path: "/f5.bin"}, // same URL as srv + /d/f5.bin
	}
	for _, a := range links {
		for _, b := range links {
			got, err := Compare(Link(a), Link(b))
			if want := strings.Compare(a.URL(), b.URL()); err != nil || got != want {
				t.Errorf("Compare(%q, %q) = %d, %v; want %d", a.URL(), b.URL(), got, err, want)
			}
		}
	}
}

// A row handed out by the table is the installed one, and stays as it was
// when an UPDATE installs its successor; an aborted UPDATE puts back the
// exact prior row.
func TestUpdateCopiesOnWrite(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT, doc DATALINK, tag VARCHAR)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10, DLVALUE('dlfs://s/a'), 'x')`)
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	id, ok := tbl.LookupPK(Int(1))
	if !ok {
		t.Fatal("row 1 missing")
	}
	before, _ := tbl.Get(id)
	prior := append(Row(nil), before...)
	var scanned Row
	tbl.Scan(func(_ RowID, r Row) bool { scanned = r; return false })

	mustExec(t, db, `UPDATE t SET v = 11, doc = DLVALUE('dlfs://s/b'), tag = 'y' WHERE id = 1`)
	if !reflect.DeepEqual(before, prior) || !reflect.DeepEqual(scanned, prior) {
		t.Fatalf("rows read before the UPDATE changed under it: %v, %v, want %v", before, scanned, prior)
	}
	after, _ := tbl.Get(id)
	if after[1].I != 11 || after[3].S != "y" {
		t.Fatalf("UPDATE did not land: %v", after)
	}

	txn := db.Begin()
	if _, err := txn.Exec(`UPDATE t SET v = 12, tag = 'z' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	if got, _ := tbl.Get(id); !reflect.DeepEqual(got, after) || !reflect.DeepEqual(before, prior) {
		t.Fatalf("after abort: row %v (want %v), first read %v (want %v)", got, after, before, prior)
	}
	if ids, _ := tbl.LookupIndex(2, mustLink(t, "dlfs://s/b")); len(ids) != 1 || ids[0] != id {
		t.Fatalf("link index after the abort: %v", ids)
	}
	if ids, _ := tbl.LookupIndex(2, mustLink(t, "dlfs://s/a")); len(ids) != 0 {
		t.Fatalf("link index still files the replaced value: %v", ids)
	}
}

// Update re-keys an index only when the key changes, and a primary key
// another row holds fails the update without touching the table.
func TestTableUpdateRekeysOnlyChangedKeys(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, DLVALUE('dlfs://s/a'), 0), (2, DLVALUE('dlfs://s/b'), 0)`)
	if _, err := db.Exec(`UPDATE t SET id = 2 WHERE id = 1`); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("UPDATE onto a held key: %v", err)
	}
	mustExec(t, db, `UPDATE t SET id = 3, v = 1 WHERE id = 1`)
	tbl, _ := db.Table("t")
	if _, ok := tbl.LookupPK(Int(1)); ok {
		t.Fatal("old key still indexed")
	}
	id, ok := tbl.LookupPK(Int(3))
	if !ok {
		t.Fatal("new key not indexed")
	}
	if ids, _ := tbl.LookupIndex(1, mustLink(t, "dlfs://s/a")); len(ids) != 1 || ids[0] != id {
		t.Fatalf("unchanged link key lost its row: %v", ids)
	}
	if r := mustQuery(t, db, `SELECT id, v FROM t WHERE doc = DLVALUE('dlfs://s/a')`); len(r.Data) != 1 || r.Data[0][0].I != 3 || r.Data[0][1].I != 1 {
		t.Fatalf("rows = %v", r.Data)
	}
}

// Only a transaction with a participant can be asked about: autocommit
// statements leave no outcome behind.
func TestAutocommitLeavesNoOutcome(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 0)`)
	for i := 0; i < 10000; i++ {
		mustExec(t, db, `UPDATE t SET v = ? WHERE id = 1`, Int(int64(i)))
	}
	db.mu.Lock()
	n := len(db.committed)
	db.mu.Unlock()
	if n != 0 {
		t.Fatalf("10 000 autocommit UPDATEs left %d outcomes", n)
	}
}

// failingXRM refuses phase 2.
type failingXRM struct{ fakeXRM }

func (f *failingXRM) CommitXRM(uint64) error { return errors.New("commit refused") }
func (f *failingXRM) AbortXRM(uint64) error  { return errors.New("abort refused") }

// A participant's phase-2 failure does not change the outcome, but an
// operator sees it.
func TestXRMPhaseTwoFailuresAreCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	db := NewDB(Options{Log: testLog(t), Metrics: reg, LockTimeout: 500 * time.Millisecond})
	mustExec(t, db, `CREATE TABLE t (id INT)`)

	txn := db.Begin()
	txn.Enlist(&failingXRM{fakeXRM{name: "x"}})
	if _, err := txn.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit after the commit point: %v", err)
	}
	if c, known := db.Outcome(txn.ID()); !known || !c {
		t.Fatalf("outcome %v/%v, want committed", c, known)
	}

	txn = db.Begin()
	txn.Enlist(&failingXRM{fakeXRM{name: "x"}})
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sqlmini.xrm.commit_failures").Value(); got != 1 {
		t.Errorf("sqlmini.xrm.commit_failures = %d, want 1", got)
	}
	if got := reg.Counter("sqlmini.xrm.abort_failures").Value(); got != 1 {
		t.Errorf("sqlmini.xrm.abort_failures = %d, want 1", got)
	}
}

// An automatic checkpoint that fails is counted; the commit that triggered
// it still succeeds.
func TestAutomaticCheckpointFailureIsCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	db := NewDB(Options{
		Log:             testLog(t),
		Metrics:         reg,
		Dir:             filepath.Join(t.TempDir(), "missing"), // repo.snap cannot be written
		CheckpointBytes: 1,
		LockTimeout:     500 * time.Millisecond,
	})
	mustExec(t, db, `CREATE TABLE t (id INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	if got := reg.Counter("sqlmini.checkpoint.failures").Value(); got != 2 {
		t.Fatalf("sqlmini.checkpoint.failures = %d after two triggering commits, want 2", got)
	}
	if _, err := db.Checkpoint(); err == nil {
		t.Fatal("an explicit checkpoint into a missing dir succeeded")
	}
}

// An S→X upgrade leaves one holder entry: ReleaseAll clears it and wakes
// the transaction queued behind it.
func TestLockUpgradeThenReleaseAllWakesWaiter(t *testing.T) {
	lm := NewLockManager(5 * time.Second)
	target := LockTarget{Table: "t", Row: 1}
	if err := lm.Acquire(1, target, LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, target, LockX); err != nil {
		t.Fatal(err)
	}
	lm.heldMu.Lock()
	held := len(lm.held[1].targets)
	lm.heldMu.Unlock()
	if held != 1 {
		t.Fatalf("txn 1's held set has %d entries after the upgrade, want 1", held)
	}
	got := make(chan error, 1)
	go func() { got <- lm.Acquire(2, target, LockS) }()
	select {
	case err := <-got:
		t.Fatalf("S granted beside an X holder (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the waiter was not woken by ReleaseAll")
	}
	if m := lm.Holding(1, target); m != 0 {
		t.Fatalf("txn 1 still holds %v", m)
	}
	sh := lm.shardOf(target)
	sh.mu.Lock()
	holders := append([]lockHolder(nil), sh.locks[target].holders...)
	sh.mu.Unlock()
	if len(holders) != 1 || holders[0] != (lockHolder{txn: 2, mode: LockS}) {
		t.Fatalf("holders after the release: %+v, want txn 2 in S alone", holders)
	}
	lm.ReleaseAll(2)
	sh.mu.Lock()
	left := len(sh.locks)
	sh.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d lock states left after every release", left)
	}
}

// A burst of concurrent transactions leaves at most maxFreeStates held sets
// kept for reuse, not one per transaction of the burst.
func TestLockHeldSetFreeListIsBounded(t *testing.T) {
	lm := NewLockManager(time.Second)
	const burst = 4 * maxFreeStates
	for txn := uint64(1); txn <= burst; txn++ {
		if err := lm.Acquire(txn, LockTarget{Table: "t", Row: RowID(txn)}, LockX); err != nil {
			t.Fatal(err)
		}
	}
	for txn := uint64(1); txn <= burst; txn++ {
		lm.ReleaseAll(txn)
	}
	lm.heldMu.Lock()
	kept := len(lm.heldFree)
	lm.heldMu.Unlock()
	if kept > maxFreeStates {
		t.Fatalf("%d held sets kept after a burst of %d, want <= %d", kept, burst, maxFreeStates)
	}
}

// Locking allocates nothing once the manager has seen a transaction of the
// same shape: holder slices, lock states and held sets are reused.
func TestLockAcquireReleaseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	lm := NewLockManager(time.Second)
	row := LockTarget{Table: "files", Row: 7}
	whole := LockTarget{Table: "files", Whole: true}
	txn := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		txn++
		if err := lm.Acquire(txn, whole, LockS); err != nil {
			t.Fatal(err)
		}
		if err := lm.Acquire(txn, row, LockX); err != nil {
			t.Fatal(err)
		}
		lm.ReleaseAll(txn)
	}); n != 0 {
		t.Fatalf("two Acquires + ReleaseAll: %.0f allocs, want 0", n)
	}
}

// An autocommit UPDATE by primary key on a disk-WAL database: the
// statement's own objects, one log payload, and nothing per lock, per
// index probe or per read row, nor a re-keyed index when no key changed.
// It measures 3 — the Txn, the copy-on-write row, the payload: the matched
// id and row are the Txn's own scratch — where copying every read row,
// string index keys and per-acquire lock state cost 24, and the matched id
// and row slices 2 more.
func TestAutocommitUpdateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	dir := t.TempDir()
	lg, err := wal.Open(wal.Config{Dir: dir}) // default segment size: no rotation in the window
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lg.Close() })
	db := NewDB(Options{Log: lg, Dir: dir, LockTimeout: 500 * time.Millisecond})
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK, size INT)`)
	for i := 0; i < 64; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?, 0)`, Int(int64(i)), Link(datalink.Link{Server: "s", Path: fmt.Sprintf("/f%d", i)}))
	}
	const budget = 3
	args := []Value{Int(4096), Int(17)}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := db.Exec(`UPDATE t SET size = ? WHERE id = ?`, args...); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Fatalf("autocommit UPDATE by PK: %.0f allocs, want <= %d", n, budget)
	}
}
