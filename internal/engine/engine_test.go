package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/datalink"
	"datalinks/internal/dlfm"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
	"datalinks/internal/wal"
)

// newArchive opens an archive store over a test directory, closed when the
// test ends.
func newArchive(t testing.TB) *archive.Store {
	t.Helper()
	arch, err := archive.NewTiered(0, nil, archive.TierConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(arch.Close)
	return arch
}

const owner fs.UID = 100

// openDLFM starts a DLFM over a test repository directory; it is killed
// when the test ends.
func openDLFM(t *testing.T, cfg dlfm.Config) *dlfm.Server {
	t.Helper()
	cfg.RepoDir = t.TempDir()
	srv, _, err := dlfm.Open(cfg)
	if err != nil {
		t.Fatalf("dlfm: %v", err)
	}
	t.Cleanup(srv.Kill)
	return srv
}

// rig wires a host DB + engine + one DLFM over a shared physical FS.
type rig struct {
	db   *sqlmini.DB
	eng  *Engine
	srv  *dlfm.Server
	phys *fs.FS
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng, err := Open(sqlmini.Options{LockTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	key := []byte("shared-key")
	srv := openDLFM(t, dlfm.Config{
		Name:     "fs1",
		Phys:     phys,
		Archive:  newArchive(t),
		Host:     eng,
		TokenKey: key,
	})
	eng.AttachFileServer(srv, key, 0)
	return &rig{db: eng.DB(), eng: eng, srv: srv, phys: phys}
}

func (r *rig) seed(t *testing.T, path, content string) {
	t.Helper()
	if err := r.phys.WriteFile(path, []byte(content)); err != nil {
		t.Fatal(err)
	}
	ino, _ := r.phys.Lookup(path)
	r.phys.Chown(ino, fs.Cred{UID: fs.Root}, owner)
	r.phys.Chmod(ino, fs.Cred{UID: owner}, 0o644)
}

func TestInsertLinksDeleteUnlinks(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)
	if !r.srv.IsLinked("/d/f.bin") {
		t.Fatal("insert did not link")
	}
	if len(r.eng.LinkedFiles()) != 1 {
		t.Fatalf("registry = %v", r.eng.LinkedFiles())
	}
	r.db.MustExec(`DELETE FROM t WHERE id = 1`)
	if r.srv.IsLinked("/d/f.bin") {
		t.Fatal("delete did not unlink")
	}
	if len(r.eng.LinkedFiles()) != 0 {
		t.Fatalf("registry after delete = %v", r.eng.LinkedFiles())
	}
}

func TestUpdateRelinks(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/a.bin", "a")
	r.seed(t, "/d/b.bin", "b")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/a.bin'))`)
	r.db.MustExec(`UPDATE t SET doc = DLVALUE('dlfs://fs1/d/b.bin') WHERE id = 1`)
	if r.srv.IsLinked("/d/a.bin") {
		t.Fatal("old link survived the update")
	}
	if !r.srv.IsLinked("/d/b.bin") {
		t.Fatal("new link missing after the update")
	}
}

func TestUpdateSameLinkIsNoop(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/a.bin", "a")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, note VARCHAR, doc DATALINK MODE RFD)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, 'x', DLVALUE('dlfs://fs1/d/a.bin'))`)
	links := r.eng.Metrics().Counter("engine.links").Value()
	// Updating an unrelated column must not unlink/relink.
	r.db.MustExec(`UPDATE t SET note = 'y' WHERE id = 1`)
	if got := r.eng.Metrics().Counter("engine.links").Value(); got != links {
		t.Fatalf("spurious link operations: %d -> %d", links, got)
	}
	if !r.srv.IsLinked("/d/a.bin") {
		t.Fatal("link lost")
	}
}

func TestLinkToUnknownServerFails(t *testing.T) {
	r := newRig(t)
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD)`)
	if _, err := r.db.Exec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://nowhere/d/f.bin'))`); err == nil {
		t.Fatal("link to unattached server accepted")
	}
}

func TestLinkMissingFileFailsStatement(t *testing.T) {
	r := newRig(t)
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD)`)
	if _, err := r.db.Exec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/ghost.bin'))`); err == nil {
		t.Fatal("link of missing file accepted")
	}
	rows, _ := r.db.Query(`SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].I != 0 {
		t.Fatal("failed insert left a row")
	}
}

func TestNffStoresURLWithoutLinking(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE NFF)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)
	if r.srv.IsLinked("/d/f.bin") {
		t.Fatal("nff should not link")
	}
	row, _ := r.db.QueryRow(`SELECT DLURLCOMPLETE(doc) FROM t WHERE id = 1`)
	if strings.Contains(row[0].S, token.Sep) {
		t.Fatal("nff got a token")
	}
}

func TestTokenIssuingRespectsModes(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFB)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)
	// rfb: reads are FS-controlled -> no token in URL.
	row, err := r.db.QueryRow(`SELECT DLURLCOMPLETE(doc) FROM t WHERE id = 1`)
	if err != nil || strings.Contains(row[0].S, token.Sep) {
		t.Fatalf("rfb read URL = %v, %v", row, err)
	}
	// rfb: no write tokens.
	if _, err := r.db.Query(`SELECT DLURLCOMPLETEWRITE(doc) FROM t WHERE id = 1`); err == nil {
		t.Fatal("rfb issued a write token")
	}
}

// A token SELECT through the engine allocates its answer — the Txn, the
// Rows, its Cols and Data, the output Row — and the tokenized URL, built in
// one string: no join scaffolding, no argument slice for DLURLCOMPLETE, no
// token string of its own, no counter name and no registry key (22 before).
func TestTokenSelectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	r := newRig(t)
	const path = "/d/a-path-longer-than-a-small-string-buffer.bin"
	r.seed(t, path, "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1` + path + `'))`)
	const budget = 6
	args := []sqlmini.Value{sqlmini.Int(1)}
	var url string
	if n := testing.AllocsPerRun(200, func() {
		row, err := r.db.QueryRow(`SELECT DLURLCOMPLETE(doc) FROM t WHERE id = ?`, args...)
		if err != nil {
			t.Fatal(err)
		}
		url = row[0].S
	}); n > budget {
		t.Fatalf("token SELECT by primary key: %.0f allocs, want <= %d", n, budget)
	}
	name, tok, ok := token.Extract(url)
	if !ok || name != "dlfs://fs1"+path {
		t.Fatalf("URL %q", url)
	}
	if _, err := r.srv.Authority().Validate(tok, path); err != nil {
		t.Fatalf("issued token rejected by DLFM: %v", err)
	}
}

func TestLinkedModeAndIssueToken(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES TOKEN 60)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)
	l := datalink.Link{Server: "fs1", Path: "/d/f.bin"}
	mode, ok := r.eng.LinkedMode(l)
	if !ok || mode != datalink.RDD {
		t.Fatalf("linked mode = %v, %v", mode, ok)
	}
	tok, err := r.eng.IssueToken(l, token.Read)
	if err != nil || tok == "" {
		t.Fatalf("read token = %q, %v", tok, err)
	}
	// Token is valid at the DLFM authority.
	if _, err := r.srv.Authority().Validate(tok, "/d/f.bin"); err != nil {
		t.Fatalf("issued token rejected by DLFM: %v", err)
	}
	// Unlinked file: no token, no error.
	tok, err = r.eng.IssueToken(datalink.Link{Server: "fs1", Path: "/d/other"}, token.Read)
	if err != nil || tok != "" {
		t.Fatalf("unlinked token = %q, %v", tok, err)
	}
}

func TestRebuildRegistry(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)
	// Blow the registry away and rebuild from table contents.
	r.eng.mu.Lock()
	r.eng.registry = make(map[string]registration)
	r.eng.mu.Unlock()
	if err := r.eng.RebuildRegistry(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if len(r.eng.LinkedFiles()) != 1 {
		t.Fatalf("registry after rebuild = %v", r.eng.LinkedFiles())
	}
}

func TestMetaUpdateWritesCompanionColumns(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES, doc_size INT, doc_mtime TIMESTAMP)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'), NULL, NULL)`)
	mt := time.Unix(1_700_000_123, 0)
	sub := &noopXRM{}
	state, err := r.eng.MetaUpdate("fs1", "/d/f.bin", 4321, mt, sub)
	if err != nil {
		t.Fatalf("meta update: %v", err)
	}
	if state == 0 {
		t.Fatal("no state id")
	}
	if !sub.prepared || !sub.committed {
		t.Fatalf("sub-transaction not driven through 2PC: %+v", sub)
	}
	row, _ := r.db.QueryRow(`SELECT doc_size, doc_mtime FROM t WHERE id = 1`)
	if row[0].I != 4321 || !row[1].T.Equal(mt) {
		t.Fatalf("companion columns = %+v", row)
	}
}

// The state id MetaUpdate returns is its own transaction's commit record,
// even when another transaction commits — and moves the log's durable tail —
// before MetaUpdate returns. Tagging the version with the later state would
// let RestoreToState to a state between the two keep the row but drop the
// version.
func TestMetaUpdateReturnsItsOwnCommitState(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES, doc_size INT)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'), NULL)`)
	r.db.MustExec(`CREATE TABLE other (id INT PRIMARY KEY, n INT)`)
	r.db.MustExec(`INSERT INTO other VALUES (1, 0)`)
	sub := &committingXRM{db: r.db}
	state, err := r.eng.MetaUpdate("fs1", "/d/f.bin", 7, time.Unix(1_700_000_000, 0), sub)
	if err != nil {
		t.Fatalf("meta update: %v", err)
	}
	if sub.err != nil {
		t.Fatalf("second transaction: %v", sub.err)
	}
	if state >= uint64(sub.later) {
		t.Fatalf("MetaUpdate returned state %d, not before the later commit's %d", state, sub.later)
	}
	var rec wal.Record
	if err := r.db.Log().Scan(wal.LSN(state), wal.LSN(state), func(r wal.Record) bool {
		rec = r
		return false
	}); err != nil || rec.LSN != wal.LSN(state) {
		t.Fatalf("no record at state %d: %v", state, err)
	}
	if rec.Type != wal.RecCommit || rec.TxnID != sub.hostTxn {
		t.Fatalf("state %d is a type-%d record of txn %d, want the commit of txn %d", state, rec.Type, rec.TxnID, sub.hostTxn)
	}
}

// committingXRM commits a second host transaction from its phase-2 commit:
// a concurrent committer whose flush lands between MetaUpdate's commit and
// its return.
type committingXRM struct {
	noopXRM
	db      *sqlmini.DB
	hostTxn uint64
	later   wal.LSN
	err     error
}

func (c *committingXRM) CommitXRM(hostTxn uint64) error {
	c.hostTxn = hostTxn
	_, c.err = c.db.Exec(`UPDATE other SET n = n + 1 WHERE id = 1`)
	c.later = c.db.StateID()
	return nil
}

type noopXRM struct{ prepared, committed, aborted bool }

func (n *noopXRM) XRMName() string         { return "noop" }
func (n *noopXRM) PrepareXRM(uint64) error { n.prepared = true; return nil }
func (n *noopXRM) CommitXRM(uint64) error  { n.committed = true; return nil }
func (n *noopXRM) AbortXRM(uint64) error   { n.aborted = true; return nil }
func (n *noopXRM) XRMDurable() bool        { return true }

// RestoreToState rebuilds the database in a fresh directory and removes the
// live one only after that and the file half succeed; a restore that cannot
// start, or whose file half fails, leaves the live database serving.
func TestRestoreToStateReplacesTheLogDirectory(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "v0")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)
	state := r.eng.StateID()
	r.db.MustExec(`DELETE FROM t WHERE id = 1`)
	if r.srv.IsLinked("/d/f.bin") {
		t.Fatal("unlink failed")
	}

	tmp := os.Getenv("TMPDIR")
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	if err := r.eng.RestoreToState(state); err == nil {
		t.Fatal("restore without a directory to rebuild in succeeded")
	}
	if r.eng.DB() != r.db {
		t.Fatal("a failed restore replaced the live database")
	}
	r.db.MustExec(`INSERT INTO t VALUES (2, NULL)`)
	t.Setenv("TMPDIR", tmp)

	// A file half that fails leaves the live database serving too: the file
	// the restored row references is gone.
	if err := r.phys.Remove("/d/f.bin", fs.Cred{UID: fs.Root}); err != nil {
		t.Fatal(err)
	}
	live := r.eng.StateID()
	if err := r.eng.RestoreToState(state); err == nil {
		t.Fatal("restore relinking a missing file succeeded")
	}
	if r.eng.DB() != r.db || r.eng.StateID() != live {
		t.Fatal("a restore whose file half failed replaced the live database")
	}
	r.seed(t, "/d/f.bin", "v0")

	oldDir := r.db.Log().Dir()
	if err := r.eng.RestoreToState(state); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if _, err := os.Stat(oldDir); !os.IsNotExist(err) {
		t.Fatalf("the replaced log directory %s is still there: %v", oldDir, err)
	}
	db := r.eng.DB()
	if db.Log().Dir() == oldDir || db.StateID() != wal.LSN(state) {
		t.Fatalf("restored log in %s at state %d, want a new directory at state %d", db.Log().Dir(), db.StateID(), state)
	}
	rows, err := db.Query(`SELECT id FROM t`)
	if err != nil || len(rows.Data) != 1 || rows.Data[0][0].I != 1 {
		t.Fatalf("restored rows = %v, %v", rows, err)
	}
	if !r.srv.IsLinked("/d/f.bin") {
		t.Fatal("link not re-established by restore")
	}
}

func TestMultiServerLinks(t *testing.T) {
	r := newRig(t)
	phys2 := fs.New()
	phys2.MkdirAll("/e", fs.Cred{UID: fs.Root}, 0o777)
	phys2.WriteFile("/e/g.bin", []byte("y"))
	srv2 := openDLFM(t, dlfm.Config{
		Name: "fs2", Phys: phys2, Archive: newArchive(t), Host: r.eng, TokenKey: []byte("shared-key"),
	})
	r.eng.AttachFileServer(srv2, []byte("shared-key"), 0)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFF)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin')), (2, DLVALUE('dlfs://fs2/e/g.bin'))`)
	if !r.srv.IsLinked("/d/f.bin") || !srv2.IsLinked("/e/g.bin") {
		t.Fatal("multi-server links incomplete")
	}
	// One transaction spanning both servers rolls back everywhere.
	txn := r.db.Begin()
	if _, err := txn.Exec(`DELETE FROM t`); err != nil {
		t.Fatalf("delete: %v", err)
	}
	txn.Abort()
	if !r.srv.IsLinked("/d/f.bin") || !srv2.IsLinked("/e/g.bin") {
		t.Fatal("abort did not restore links on both servers")
	}
}

// noXRM is a participant that agrees to everything.
type noXRM struct{}

func (noXRM) XRMName() string         { return "none" }
func (noXRM) PrepareXRM(uint64) error { return nil }
func (noXRM) CommitXRM(uint64) error  { return nil }
func (noXRM) AbortXRM(uint64) error   { return nil }
func (noXRM) XRMDurable() bool        { return true }

// metaRig is a rig with /d/f.bin linked RFD through a table with both
// companion columns.
func metaRig(t *testing.T) *rig {
	t.Helper()
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES, doc_size BIGINT, Doc_MTime TIMESTAMP)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'), 0, NULL)`)
	return r
}

// The host's metadata update of a commit is typed point operations on the
// host row — found through the link column's index, no statement text
// built — and lands the size and mtime as the SQL UPDATE did.
func TestMetaUpdateAllocBudget(t *testing.T) {
	r := metaRig(t)
	mtime := time.Unix(1700000000, 0)
	if _, err := r.eng.MetaUpdate("fs1", "/d/f.bin", 4096, mtime, noXRM{}); err != nil {
		t.Fatal(err)
	}
	row, err := r.db.QueryRow(`SELECT doc_size, doc_mtime FROM t WHERE id = 1`)
	if err != nil || row[0].Kind() != sqlmini.KindInt || row[0].I != 4096 || !row[1].T.Equal(mtime) {
		t.Fatalf("companion columns after the update: %v, %v", row, err)
	}
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	// Measured 4: the transaction and its participant list, the index
	// probe's answer and the row copy. The log payload is encoded into the
	// transaction's pooled record buffer.
	const budget = 4
	n := testing.AllocsPerRun(200, func() {
		if _, err := r.eng.MetaUpdate("fs1", "/d/f.bin", 4096, mtime, noXRM{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("MetaUpdate: %.1f mallocs", n)
	if n > budget {
		t.Fatalf("MetaUpdate: %.1f mallocs, budget %d", n, budget)
	}
}

// One in-process commit on one server — the write open, an in-place write
// and the close with its repository 2PC and host metadata update — within
// a budget that SQL text on the commit path would break.
func TestCommitAllocBudget(t *testing.T) {
	r := metaRig(t)
	const path = "/d/f.bin"
	ino, err := r.phys.Lookup(path)
	if err != nil {
		t.Fatal(err)
	}
	open := upcall.Request{Op: upcall.OpWriteOpen, Path: path, UID: int32(owner), Write: true,
		Token: r.srv.Authority().Issue(token.Write, path)}
	edit := []byte("edit")
	commit := func() {
		resp, err := r.srv.Upcall(open)
		if err != nil || !resp.OK {
			t.Fatalf("write open: %+v, %v", resp, err)
		}
		if _, err := r.phys.WriteAt(ino, 0, edit); err != nil {
			t.Fatal(err)
		}
		attr, _ := r.phys.Getattr(ino)
		resp, err = r.srv.Upcall(upcall.Request{Op: upcall.OpClose, OpenID: resp.OpenID,
			Size: attr.Size, Mtime: attr.Mtime.UnixNano()})
		if err != nil || !resp.OK {
			t.Fatalf("close: %+v, %v", resp, err)
		}
	}
	commit()
	if row, err := r.db.QueryRow(`SELECT doc_size FROM t WHERE id = 1`); err != nil || row[0].I != 4 {
		t.Fatalf("doc_size after a commit: %v, %v", row, err)
	}
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	// Measured 17: no record payload is allocated — each is encoded into a
	// pooled buffer the log copies from.
	const budget = 17
	n := testing.AllocsPerRun(100, commit)
	t.Logf("write open + write + close: %.1f mallocs", n)
	if n > budget {
		t.Fatalf("write open + write + close: %.1f mallocs, budget %d", n, budget)
	}
}
