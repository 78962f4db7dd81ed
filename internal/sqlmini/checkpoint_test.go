package sqlmini

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"datalinks/internal/wal"
)

// diskDB opens a disk-backed database in dir with small segments so head
// truncation actually deletes files.
func diskDB(t *testing.T, dir string) *DB {
	t.Helper()
	lg, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	return NewDB(Options{Log: lg, Dir: dir, LockTimeout: 500 * time.Millisecond})
}

// reopenDisk kills the process state and cold-starts from the directory.
func reopenDisk(t *testing.T, db *DB, dir string) (*DB, *RecoveryReport) {
	t.Helper()
	db.Log().Kill()
	lg, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	db2, rep, err := Recover(lg, Options{Dir: dir, LockTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return db2, rep
}

func TestCheckpointDiskAnchoredRecovery(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	for i := 1; i <= 40; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 'x')`, Int(int64(i)))
	}
	ok, err := db.Checkpoint()
	if err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "repo.snap")); err != nil {
		t.Fatalf("repo.snap missing: %v", err)
	}
	totalBefore := db.Log().TailLSN()
	// Tail after the checkpoint: a handful of records only.
	mustExec(t, db, `UPDATE t SET v = 'y' WHERE id = 7`)
	mustExec(t, db, `INSERT INTO t VALUES (41, 'tail')`)

	db2, rep := reopenDisk(t, db, dir)
	if !rep.SnapshotUsed || rep.AnchorLSN == wal.NilLSN {
		t.Fatalf("recovery ignored the snapshot: %+v", rep)
	}
	// O(tail), not O(history): the anchored scan must cover far fewer
	// records than were ever logged.
	if rep.RecordsScanned >= int(totalBefore) {
		t.Fatalf("RecordsScanned = %d, want « %d total", rep.RecordsScanned, totalBefore)
	}
	rows := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].I != 41 {
		t.Fatalf("row count after recovery = %d, want 41", rows.Data[0][0].I)
	}
	rows = mustQuery(t, db2, `SELECT v FROM t WHERE id = 7`)
	if rows.Data[0][0].S != "y" {
		t.Fatalf("post-checkpoint update lost: %+v", rows.Data)
	}
}

// TestCheckpointSequenceGate: head truncation removes only whole segments,
// so the log retains records at or below the anchor. If recovery replayed
// them on top of the snapshot, InsertAt would duplicate rows — the anchored
// scan is the gate, and this is its natural failure mode.
func TestCheckpointSequenceGate(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, Int(int64(i)), Int(int64(i*100)))
	}
	if ok, err := db.Checkpoint(); err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	// Pre-anchor records must still be on disk (whole-segment truncation).
	if db.Log().Base() >= db.Log().TailLSN() {
		t.Fatalf("truncation removed the whole log: base=%d tail=%d", db.Log().Base(), db.Log().TailLSN())
	}

	db2, rep := reopenDisk(t, db, dir)
	if !rep.SnapshotUsed {
		t.Fatal("snapshot not used")
	}
	rows := mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].I != 10 {
		t.Fatalf("rows double-applied or lost: count = %d, want 10", rows.Data[0][0].I)
	}
}

func TestCheckpointSkipsWhileBusy(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT)`)
	txn := db.Begin()
	if _, err := txn.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	ok, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("checkpoint claimed success while a transaction was active")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	ok, err = db.Checkpoint()
	if err != nil || !ok {
		t.Fatalf("quiescent checkpoint: ok=%v err=%v", ok, err)
	}
}

func TestCheckpointMemoryAnchoredRecovery(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	for i := 1; i <= 30; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, Int(int64(i)), Int(int64(i)))
	}
	if ok, err := db.Checkpoint(); err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	total := db.Log().TailLSN()
	mustExec(t, db, `UPDATE t SET v = 0 WHERE id = 3`)

	durable := db.Crash()
	db2, rep, err := Recover(durable, Options{LockTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotUsed {
		t.Fatal("embedded checkpoint not used")
	}
	if rep.RecordsScanned >= int(total) {
		t.Fatalf("RecordsScanned = %d, want « %d", rep.RecordsScanned, total)
	}
	rows := mustQuery(t, db2, `SELECT v FROM t WHERE id = 3`)
	if rows.Data[0][0].I != 0 {
		t.Fatalf("tail update lost: %+v", rows.Data)
	}
	rows = mustQuery(t, db2, `SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].I != 30 {
		t.Fatalf("count = %d, want 30", rows.Data[0][0].I)
	}
}

func TestCheckpointAutomaticTrigger(t *testing.T) {
	dir := t.TempDir()
	lg, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(Options{Log: lg, Dir: dir, CheckpointBytes: 2048, LockTimeout: 500 * time.Millisecond})
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	for i := 1; i <= 60; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 'some-padding-value-to-fill-the-log')`, Int(int64(i)))
	}
	if _, err := os.Stat(filepath.Join(dir, "repo.snap")); err != nil {
		t.Fatalf("automatic checkpoint never fired: %v", err)
	}
	if db.Log().SizeSinceCheckpoint() > 4096 {
		t.Fatalf("odometer not reset by automatic checkpoint: %d", db.Log().SizeSinceCheckpoint())
	}
}

func TestRecoverRefusesTruncatedLogWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	for i := 1; i <= 20; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?)`, Int(int64(i)))
	}
	if ok, err := db.Checkpoint(); err != nil || !ok {
		t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
	}
	if db.Log().Base() == wal.NilLSN {
		t.Skip("no segment was truncated; cannot exercise the gate")
	}
	db.Log().Kill()
	if err := os.Remove(filepath.Join(dir, "repo.snap")); err != nil {
		t.Fatal(err)
	}
	lg, err := wal.Open(wal.Config{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(lg, Options{Dir: dir, LockTimeout: 500 * time.Millisecond}); err == nil {
		t.Fatal("recovery accepted a truncated log with no snapshot")
	}
}

func TestRecoverRejectsOrphanRecord(t *testing.T) {
	lg := wal.New()
	p := encodePayload(logPayload{Op: opInsert, Table: "t", Row: 1})
	if _, err := lg.Append(wal.Record{Type: wal.RecUpdate, TxnID: 0, Payload: p}); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	durable := lg.Crash()
	_, _, err := Recover(durable, Options{LockTimeout: 500 * time.Millisecond})
	if !errors.Is(err, ErrOrphanRecord) {
		t.Fatalf("err = %v, want ErrOrphanRecord", err)
	}
}

func TestRecoverRejectsOrphanCLR(t *testing.T) {
	lg := wal.New()
	p := encodePayload(logPayload{Op: opDelete, Table: "t", Row: 1})
	if _, err := lg.Append(wal.Record{Type: wal.RecCLR, TxnID: 0, Payload: p}); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	durable := lg.Crash()
	_, _, err := Recover(durable, Options{LockTimeout: 500 * time.Millisecond})
	if !errors.Is(err, ErrOrphanRecord) {
		t.Fatalf("err = %v, want ErrOrphanRecord", err)
	}
}

// TestCheckpointRepeatedCycles runs several checkpoint/workload/kill rounds
// and verifies each cold start reconstructs the full state.
func TestCheckpointRepeatedCycles(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	next := 1
	for round := 0; round < 4; round++ {
		for i := 0; i < 8; i++ {
			mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, Int(int64(next)), Int(int64(next*7)))
			next++
		}
		if round%2 == 0 {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		db2, _ := reopenDisk(t, db, dir)
		db = db2
		rows := mustQuery(t, db, `SELECT COUNT(*) FROM t`)
		if got := int(rows.Data[0][0].I); got != next-1 {
			t.Fatalf("round %d: count = %d, want %d", round, got, next-1)
		}
	}
	db.Log().Close()
}

// TestCheckpointSnapshotFailureKeepsLogHead: a snapshot that cannot be
// replaced durably fails the checkpoint BEFORE anything depends on it — no
// reference record is logged and no segment the snapshot would have
// superseded is deleted.
func TestCheckpointSnapshotFailureKeepsLogHead(t *testing.T) {
	dir := t.TempDir()
	db := diskDB(t, dir)
	defer db.Log().Close()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	for i := 1; i <= 40; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 'x')`, Int(int64(i)))
	}
	segsBefore, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	tail := db.Log().TailLSN()
	// A non-empty directory where repo.snap belongs: the rename must fail.
	if err := os.MkdirAll(filepath.Join(dir, snapFileName, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if ok, err := db.Checkpoint(); err == nil || ok {
		t.Fatalf("checkpoint over an unreplaceable snapshot: ok=%v err=%v, want an error", ok, err)
	}
	segsAfter, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segsBefore) < 2 || len(segsAfter) != len(segsBefore) || db.Log().Base() != wal.NilLSN {
		t.Fatalf("failed checkpoint truncated the log: %d -> %d segments, base %d", len(segsBefore), len(segsAfter), db.Log().Base())
	}
	if db.Log().TailLSN() != tail {
		t.Fatalf("failed checkpoint logged a record: tail %d -> %d", tail, db.Log().TailLSN())
	}
}
