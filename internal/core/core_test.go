package core

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
)

const alice fs.UID = 100
const bob fs.UID = 101

// closeAtEnd closes c when the test ends and fails the test on a close
// error.
func closeAtEnd(t testing.TB, c interface{ Close() error }) {
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}

// newSys builds a one-server system with a movies table and one linked clip.
func newSys(t *testing.T, mode string) (*System, *FileServer) {
	t.Helper()
	sys, err := NewSystem(Config{
		Servers:     []ServerConfig{{Name: "fs1", OpenWait: 300 * time.Millisecond}},
		LockTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	closeAtEnd(t, sys)
	srv, _ := sys.Server("fs1")
	if err := srv.Phys.MkdirAll("/movies", fs.Cred{UID: fs.Root}, 0o777); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := srv.Phys.WriteFile("/movies/clip1.mpg", []byte("v0 content")); err != nil {
		t.Fatalf("seed file: %v", err)
	}
	// Give the file a real owner before linking.
	ino, _ := srv.Phys.Lookup("/movies/clip1.mpg")
	srv.Phys.Chown(ino, fs.Cred{UID: fs.Root}, alice)
	srv.Phys.Chmod(ino, fs.Cred{UID: alice}, 0o644)

	sys.DB().MustExec(`CREATE TABLE movies (
		id INT PRIMARY KEY,
		title VARCHAR,
		clip DATALINK MODE ` + strings.ToUpper(mode) + ` RECOVERY YES,
		clip_size INT,
		clip_mtime TIMESTAMP
	)`)
	if _, err := sys.DB().Exec(`INSERT INTO movies (id, title, clip) VALUES (1, 'Casablanca', DLVALUE('dlfs://fs1/movies/clip1.mpg'))`); err != nil {
		t.Fatalf("link insert: %v", err)
	}
	return sys, srv
}

// urlFor fetches the tokenized URL for the movie's clip.
func urlFor(t *testing.T, sys *System, fn string) string {
	t.Helper()
	row, err := sys.DB().QueryRow(`SELECT ` + fn + `(clip) FROM movies WHERE id = 1`)
	if err != nil {
		t.Fatalf("select %s: %v", fn, err)
	}
	return row[0].S
}

func TestLinkMakesFileReadOnly(t *testing.T) {
	_, srv := newSys(t, "rfd")
	ino, _ := srv.Phys.Lookup("/movies/clip1.mpg")
	attr, _ := srv.Phys.Getattr(ino)
	if attr.Mode&0o222 != 0 {
		t.Fatalf("linked rfd file still writable: mode %o", attr.Mode)
	}
	if attr.UID != alice {
		t.Fatalf("rfd link must not change ownership: uid %d", attr.UID)
	}
}

func TestLinkFullControlTakesOver(t *testing.T) {
	_, srv := newSys(t, "rdd")
	ino, _ := srv.Phys.Lookup("/movies/clip1.mpg")
	attr, _ := srv.Phys.Getattr(ino)
	if attr.UID != srv.DLFM.UID() {
		t.Fatalf("rdd link must take over ownership: uid %d", attr.UID)
	}
	if attr.Mode != 0o400 {
		t.Fatalf("rdd at-rest mode = %o, want 400", attr.Mode)
	}
}

func TestLinkRollbackRestoresPermissions(t *testing.T) {
	sys, srv := newSys(t, "rdd")
	srv.Phys.WriteFile("/movies/clip2.mpg", []byte("x"))
	txn := sys.DB().Begin()
	if _, err := txn.Exec(`INSERT INTO movies (id, title, clip) VALUES (2, 'Vertigo', DLVALUE('dlfs://fs1/movies/clip2.mpg'))`); err != nil {
		t.Fatalf("insert: %v", err)
	}
	// Mid-transaction the takeover is already applied (eager).
	ino, _ := srv.Phys.Lookup("/movies/clip2.mpg")
	attr, _ := srv.Phys.Getattr(ino)
	if attr.UID != srv.DLFM.UID() {
		t.Fatalf("takeover not eager: uid %d", attr.UID)
	}
	if err := txn.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	attr, _ = srv.Phys.Getattr(ino)
	if attr.UID == srv.DLFM.UID() {
		t.Fatal("abort did not undo the takeover")
	}
	if srv.DLFM.IsLinked("/movies/clip2.mpg") {
		t.Fatal("aborted link still in repository")
	}
}

func TestReadWithTokenRDD(t *testing.T) {
	sys, _ := newSys(t, "rdd")
	url := urlFor(t, sys, "DLURLCOMPLETE")
	if !strings.Contains(url, ";dltoken=") {
		t.Fatalf("rdd read URL missing token: %s", url)
	}
	sess := sys.NewSession(bob)
	f, err := sess.OpenRead(url)
	if err != nil {
		t.Fatalf("open with token: %v", err)
	}
	data, err := f.ReadAll()
	if err != nil || string(data) != "v0 content" {
		t.Fatalf("read = %q, %v", data, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestReadWithoutTokenRDDFails(t *testing.T) {
	sys, _ := newSys(t, "rdd")
	sess := sys.NewSession(bob)
	if _, err := sess.OpenRead("dlfs://fs1/movies/clip1.mpg"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("tokenless rdd read = %v, want permission denied", err)
	}
}

func TestReadTokenCannotWrite(t *testing.T) {
	sys, _ := newSys(t, "rdd")
	url := urlFor(t, sys, "DLURLCOMPLETE")
	sess := sys.NewSession(bob)
	if _, err := sess.OpenWrite(url); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("write with read token = %v, want permission denied", err)
	}
}

func TestRFDReadNeedsNoTokenAndNoUpcall(t *testing.T) {
	sys, srv := newSys(t, "rfd")
	url := urlFor(t, sys, "DLURLCOMPLETE")
	if strings.Contains(url, ";dltoken=") {
		t.Fatalf("rfd read URL should carry no token: %s", url)
	}
	srv.Transport.Reset()
	sess := sys.NewSession(bob)
	f, err := sess.OpenRead(url)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	data, _ := f.ReadAll()
	if string(data) != "v0 content" {
		t.Fatalf("read = %q", data)
	}
	f.Close()
	if n := srv.Transport.Calls(); n != 0 {
		t.Fatalf("rfd read path made %d upcalls, want 0", n)
	}
}

func TestUpdateInPlaceCommit(t *testing.T) {
	sys, srv := newSys(t, "rfd")
	wurl := urlFor(t, sys, "DLURLCOMPLETEWRITE")
	if !strings.Contains(wurl, ";dltoken=") {
		t.Fatalf("write URL missing token: %s", wurl)
	}
	sess := sys.NewSession(alice)
	f, err := sess.OpenWrite(wurl)
	if err != nil {
		t.Fatalf("open write: %v", err)
	}
	if err := f.WriteAll([]byte("v1 content!")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close (commit): %v", err)
	}

	// Content committed.
	data, _ := srv.Phys.ReadFile("/movies/clip1.mpg")
	if string(data) != "v1 content!" {
		t.Fatalf("content = %q", data)
	}
	// Metadata auto-updated in the same transaction (§4.3).
	row, err := sys.DB().QueryRow(`SELECT clip_size FROM movies WHERE id = 1`)
	if err != nil {
		t.Fatalf("select size: %v", err)
	}
	if row[0].I != int64(len("v1 content!")) {
		t.Fatalf("clip_size = %d, want %d", row[0].I, len("v1 content!"))
	}
	// A version was archived with the commit state id.
	versions := srv.Archive.Versions("fs1", "/movies/clip1.mpg")
	if len(versions) != 2 || versions[1].Version != 1 {
		t.Fatalf("versions = %+v", versions)
	}
	// File is read-only again at rest.
	ino, _ := srv.Phys.Lookup("/movies/clip1.mpg")
	attr, _ := srv.Phys.Getattr(ino)
	if attr.Mode&0o222 != 0 || attr.UID != alice {
		t.Fatalf("at-rest state after commit: uid=%d mode=%o", attr.UID, attr.Mode)
	}
}

func TestUpdateAbortRestoresLastCommitted(t *testing.T) {
	sys, srv := newSys(t, "rfd")
	wurl := urlFor(t, sys, "DLURLCOMPLETEWRITE")
	sess := sys.NewSession(alice)
	f, err := sess.OpenWrite(wurl)
	if err != nil {
		t.Fatalf("open write: %v", err)
	}
	f.WriteAll([]byte("scribbled garbage"))
	if err := f.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	data, _ := srv.Phys.ReadFile("/movies/clip1.mpg")
	if string(data) != "v0 content" {
		t.Fatalf("content after abort = %q, want v0", data)
	}
	// In-flight content is quarantined.
	names, err := srv.Phys.ReadDir("/lost+found")
	if err != nil || len(names) != 1 {
		t.Fatalf("quarantine = %v, %v", names, err)
	}
	// The file is usable again: a new update succeeds.
	wurl2 := urlFor(t, sys, "DLURLCOMPLETEWRITE")
	f2, err := sess.OpenWrite(wurl2)
	if err != nil {
		t.Fatalf("open after abort: %v", err)
	}
	f2.WriteAll([]byte("v1"))
	if err := f2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestWriteWriteSerialization(t *testing.T) {
	sys, _ := newSys(t, "rfd")
	sess := sys.NewSession(alice)
	w1 := urlFor(t, sys, "DLURLCOMPLETEWRITE")
	f1, err := sess.OpenWrite(w1)
	if err != nil {
		t.Fatalf("open 1: %v", err)
	}
	// Second writer times out at DLFM (OpenWait 300ms) -> busy.
	w2 := urlFor(t, sys, "DLURLCOMPLETEWRITE")
	if _, err := sess.OpenWrite(w2); !errors.Is(err, fs.ErrLocked) {
		t.Fatalf("second writer = %v, want busy/locked", err)
	}
	f1.WriteAll([]byte("v1"))
	if err := f1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestRFDReadRejectedDuringTakeover(t *testing.T) {
	sys, _ := newSys(t, "rfd")
	sess := sys.NewSession(alice)
	wurl := urlFor(t, sys, "DLURLCOMPLETEWRITE")
	f, err := sess.OpenWrite(wurl)
	if err != nil {
		t.Fatalf("open write: %v", err)
	}
	// A reader during the update window is rejected by the permission check
	// (the paper's read-write serialization without read locks).
	reader := sys.NewSession(bob)
	if _, err := reader.OpenRead("dlfs://fs1/movies/clip1.mpg"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("read during takeover = %v, want permission denied", err)
	}
	f.Close()
	// After the update commits, reads work again.
	if _, err := reader.OpenRead("dlfs://fs1/movies/clip1.mpg"); err != nil {
		t.Fatalf("read after close: %v", err)
	}
}

func TestRDDReadWriteSerialization(t *testing.T) {
	sys, _ := newSys(t, "rdd")
	sessA := sys.NewSession(alice)
	// A reader holds the file open.
	rurl := urlFor(t, sys, "DLURLCOMPLETE")
	rf, err := sessA.OpenRead(rurl)
	if err != nil {
		t.Fatalf("open read: %v", err)
	}
	// Writer must wait and time out while the reader is open (rdd full
	// serialization at open time).
	wurl := urlFor(t, sys, "DLURLCOMPLETEWRITE")
	if _, err := sessA.OpenWrite(wurl); !errors.Is(err, fs.ErrLocked) {
		t.Fatalf("write during read = %v, want busy", err)
	}
	rf.Close()
	wf, err := sessA.OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
	if err != nil {
		t.Fatalf("write after reader closed: %v", err)
	}
	wf.WriteAll([]byte("v1"))
	if err := wf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestUnlinkRejectedWhileOpen(t *testing.T) {
	sys, _ := newSys(t, "rdd")
	sess := sys.NewSession(alice)
	rf, err := sess.OpenRead(urlFor(t, sys, "DLURLCOMPLETE"))
	if err != nil {
		t.Fatalf("open read: %v", err)
	}
	if _, err := sys.DB().Exec(`DELETE FROM movies WHERE id = 1`); err == nil {
		t.Fatal("unlink succeeded while the file was open for read")
	}
	rf.Close()
	if _, err := sys.DB().Exec(`DELETE FROM movies WHERE id = 1`); err != nil {
		t.Fatalf("unlink after close: %v", err)
	}
	// After unlink the file is unprotected again.
	srv, _ := sys.Server("fs1")
	if srv.DLFM.IsLinked("/movies/clip1.mpg") {
		t.Fatal("file still linked after delete")
	}
	ino, _ := srv.Phys.Lookup("/movies/clip1.mpg")
	attr, _ := srv.Phys.Getattr(ino)
	if attr.UID != alice || attr.Mode != 0o644 {
		t.Fatalf("permissions not restored after unlink: uid=%d mode=%o", attr.UID, attr.Mode)
	}
}

// TestDropTableUnlinksItsFiles: dropping a table unlinks every file its rows
// reference, as deleting the rows does.
func TestDropTableUnlinksItsFiles(t *testing.T) {
	sys, srv := newSys(t, "rfd")
	if _, err := sys.DB().Exec(`DROP TABLE movies`); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if got := srv.DLFM.LinkedPaths(); len(got) != 0 {
		t.Fatalf("linked after the drop: %v", got)
	}
	if got := sys.Engine.LinkedFiles(); len(got) != 0 {
		t.Fatalf("registry after the drop: %v", got)
	}
	ino, _ := srv.Phys.Lookup("/movies/clip1.mpg")
	if attr, _ := srv.Phys.Getattr(ino); attr.UID != alice || attr.Mode != 0o644 {
		t.Fatalf("clip1 uid %d mode %o after the drop, want alice's 0644 back", attr.UID, attr.Mode)
	}
}

// TestDropTableAbortKeepsTheLinks: a drop that aborts unlinks nothing.
func TestDropTableAbortKeepsTheLinks(t *testing.T) {
	sys, srv := newSys(t, "rfd")
	txn := sys.DB().Begin()
	if _, err := txn.Exec(`DROP TABLE movies`); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	if !srv.DLFM.IsLinked("/movies/clip1.mpg") || len(sys.Engine.LinkedFiles()) != 1 {
		t.Fatalf("aborted drop left linked %v, registry %v", srv.DLFM.LinkedPaths(), sys.Engine.LinkedFiles())
	}
	if row, err := sys.DB().QueryRow(`SELECT COUNT(*) FROM movies`); err != nil || row[0].I != 1 {
		t.Fatalf("aborted drop left %v rows (%v), want 1", row, err)
	}
}

// TestDropTableRefusedWhileAFileIsOpen: a row whose file is being updated
// cannot be unlinked, so the drop fails with the table, its rows and its
// indexes as they were. Once the writer closes, the drop goes through.
func TestDropTableRefusedWhileAFileIsOpen(t *testing.T) {
	sys, srv := newSys(t, "rfd")
	sys.DB().MustExec(`CREATE INDEX ON movies (title)`)
	wf, err := sys.NewSession(alice).OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DB().Exec(`DROP TABLE movies`); err == nil {
		t.Fatal("drop succeeded while a linked file was open for update")
	}
	tbl, err := sys.DB().Table("movies")
	if err != nil {
		t.Fatalf("refused drop took the table: %v", err)
	}
	if tbl.Len() != 1 || !tbl.HasIndex(tbl.ColIndex("title")) {
		t.Fatalf("refused drop left %d rows, title index %v", tbl.Len(), tbl.HasIndex(tbl.ColIndex("title")))
	}
	if !srv.DLFM.IsLinked("/movies/clip1.mpg") {
		t.Fatal("refused drop unlinked clip1")
	}
	wf.WriteAll([]byte("v1"))
	if err := wf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := sys.DB().Exec(`DROP TABLE movies`); err != nil {
		t.Fatalf("drop after the close: %v", err)
	}
	if srv.DLFM.IsLinked("/movies/clip1.mpg") {
		t.Fatal("clip1 linked after the drop")
	}
}

func TestRemoveRenameRejectedForLinkedFiles(t *testing.T) {
	sys, srv := newSys(t, "rff")
	sess := sys.NewSession(alice)
	_ = sess
	// rff: reads and writes stay with the FS, but remove/rename of the
	// linked file is rejected — no dangling pointers.
	if err := srv.LFS.Remove(fs.Cred{UID: alice}, "/movies/clip1.mpg"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("remove linked = %v, want rejection", err)
	}
	if err := srv.LFS.Rename(fs.Cred{UID: alice}, "/movies/clip1.mpg", "/movies/other.mpg"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("rename linked = %v, want rejection", err)
	}
	// Unlinked files pass through.
	srv.Phys.WriteFile("/movies/free.dat", []byte("x"))
	if err := srv.LFS.Remove(fs.Cred{UID: fs.Root}, "/movies/free.dat"); err != nil {
		t.Fatalf("remove unlinked: %v", err)
	}
	// Renaming onto a linked file is rejected too.
	srv.Phys.WriteFile("/movies/new.dat", []byte("y"))
	if err := srv.LFS.Rename(fs.Cred{UID: fs.Root}, "/movies/new.dat", "/movies/clip1.mpg"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("rename onto linked = %v, want rejection", err)
	}
}

func TestRFBWritesBlocked(t *testing.T) {
	sys, _ := newSys(t, "rfb")
	sess := sys.NewSession(alice)
	// Even the owner cannot write an rfb file, and there are no write tokens.
	if _, err := sess.OpenWrite("dlfs://fs1/movies/clip1.mpg"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("rfb write = %v, want permission denied", err)
	}
	if _, err := sys.DB().Query(`SELECT DLURLCOMPLETEWRITE(clip) FROM movies WHERE id = 1`); err == nil {
		t.Fatal("write token issued for rfb-linked file")
	}
	// Reads are free (FS-controlled).
	f, err := sess.OpenRead("dlfs://fs1/movies/clip1.mpg")
	if err != nil {
		t.Fatalf("rfb read: %v", err)
	}
	f.Close()
}

func TestExpiredTokenRejected(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := &now
	sys, err := NewSystem(Config{
		Servers:  []ServerConfig{{Name: "fs1"}},
		Clock:    func() time.Time { return *clock },
		TokenTTL: time.Minute,
	})
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	defer sys.Close()
	srv, _ := sys.Server("fs1")
	srv.Phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	srv.Phys.WriteFile("/d/f", []byte("x"))
	sys.DB().MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	sys.DB().MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f'))`)
	row, err := sys.DB().QueryRow(`SELECT DLURLCOMPLETE(doc) FROM t WHERE id = 1`)
	if err != nil {
		t.Fatalf("token: %v", err)
	}
	url := row[0].S
	// Let the token expire.
	*clock = now.Add(2 * time.Minute)
	sess := sys.NewSession(alice)
	if _, err := sess.OpenRead(url); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("expired token = %v, want rejection", err)
	}
}

func TestCrashRecoveryRestoresInFlightUpdate(t *testing.T) {
	sys, srv := newSys(t, "rfd")
	_ = srv
	sess := sys.NewSession(alice)
	f, err := sess.OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
	if err != nil {
		t.Fatalf("open write: %v", err)
	}
	f.WriteAll([]byte("half-written update that never committed"))
	// Crash the file server with the update in flight.
	rep, err := sys.CrashAndRecoverServer("fs1")
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.RestoredFiles) != 1 || rep.RestoredFiles[0] != "/movies/clip1.mpg" {
		t.Fatalf("restored = %v", rep.RestoredFiles)
	}
	newSrv, _ := sys.Server("fs1")
	data, _ := newSrv.Phys.ReadFile("/movies/clip1.mpg")
	if string(data) != "v0 content" {
		t.Fatalf("content after crash recovery = %q, want v0", data)
	}
	// The in-flight version is quarantined, the file usable again.
	names, _ := newSrv.Phys.ReadDir("/lost+found")
	if len(names) != 1 {
		t.Fatalf("quarantine after recovery = %v", names)
	}
	sess2 := sys.NewSession(alice)
	f2, err := sess2.OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
	if err != nil {
		t.Fatalf("open after recovery: %v", err)
	}
	f2.WriteAll([]byte("v1 after recovery"))
	if err := f2.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	data, _ = newSrv.Phys.ReadFile("/movies/clip1.mpg")
	if string(data) != "v1 after recovery" {
		t.Fatalf("content = %q", data)
	}
}

func TestCrashRecoveryKeepsCommittedUpdate(t *testing.T) {
	sys, _ := newSys(t, "rfd")
	sess := sys.NewSession(alice)
	f, _ := sess.OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
	f.WriteAll([]byte("v1 committed"))
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := sys.CrashAndRecoverServer("fs1"); err != nil {
		t.Fatalf("recover: %v", err)
	}
	newSrv, _ := sys.Server("fs1")
	data, _ := newSrv.Phys.ReadFile("/movies/clip1.mpg")
	if string(data) != "v1 committed" {
		t.Fatalf("committed content lost in recovery: %q", data)
	}
}

// TestCrashAndRecoverServerKeepsTheRegistry: a member's registry lives as
// long as the member. Every counter it had before a crash recovery — the
// archive tier's, the file system's, the link path's — is still in the
// registry System.Metrics reports for it afterwards, not left counting in
// one nothing exports.
func TestCrashAndRecoverServerKeepsTheRegistry(t *testing.T) {
	sys, _ := newSys(t, "rfd")
	f, _ := sys.NewSession(alice).OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
	f.WriteAll([]byte("v1"))
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	names := func() map[string]bool {
		out := make(map[string]bool)
		for _, nv := range sys.Metrics()["dlfm:fs1"].Snapshot() {
			out[nv.Name] = true
		}
		return out
	}
	before := names()
	if _, err := sys.CrashAndRecoverServer("fs1"); err != nil {
		t.Fatalf("recover: %v", err)
	}
	after := names()
	var lost []string
	for n := range before {
		if !after[n] {
			lost = append(lost, n)
		}
	}
	sort.Strings(lost)
	if len(lost) > 0 {
		t.Fatalf("the recovered member's registry lost %d of %d counters: %v", len(lost), len(before), lost)
	}
}

// TestServerWithoutRepoDirRunsDurableRepository: a server configured without
// RepoDir runs the disk WAL, repo.snap included, in a private directory. The
// directory goes when the server closes, crashes or fails, and a
// crash-restart reopens it and keeps a committed update.
func TestServerWithoutRepoDirRunsDurableRepository(t *testing.T) {
	repoDirOf := func(t *testing.T, m *FileServer) string {
		t.Helper()
		dir := m.DLFM.Repo().Log().Dir()
		if dir == "" {
			t.Fatalf("%s: the repository log has no directory", m.Name)
		}
		if _, err := os.Stat(filepath.Join(dir, "repo.snap")); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		return dir
	}
	gone := func(t *testing.T, dir, after string) {
		t.Helper()
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("private repository %s survived %s (%v)", dir, after, err)
		}
	}

	t.Run("system", func(t *testing.T) {
		sys, srv := newSys(t, "rfd")
		dir := repoDirOf(t, srv)
		f, err := sys.NewSession(alice).OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
		if err != nil {
			t.Fatalf("open write: %v", err)
		}
		f.WriteAll([]byte("v1 committed"))
		if err := f.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if _, err := sys.CrashAndRecoverServer("fs1"); err != nil {
			t.Fatalf("recover: %v", err)
		}
		newSrv, _ := sys.Server("fs1")
		if got := repoDirOf(t, newSrv); got != dir {
			t.Fatalf("the restart opened %s, not the crashed server's %s", got, dir)
		}
		row, err := newSrv.DLFM.Repo().QueryRow(`SELECT cur_version FROM dlfm_files WHERE path = ?`, sqlmini.Str("/movies/clip1.mpg"))
		if err != nil || row[0].I != 1 {
			t.Fatalf("repository version after the restart = %v (%v), want 1", row, err)
		}
		if data, _ := newSrv.Phys.ReadFile("/movies/clip1.mpg"); string(data) != "v1 committed" {
			t.Fatalf("committed content lost in recovery: %q", data)
		}
		if err := sys.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		gone(t, dir, "Close")
	})

	t.Run("system crash", func(t *testing.T) {
		sys, srv := newSys(t, "rfd")
		dir := repoDirOf(t, srv)
		sys.Crash()
		gone(t, dir, "Crash")
	})

	t.Run("cluster", func(t *testing.T) {
		c := newCluster(t, 3)
		dirs := map[string]string{}
		for _, id := range c.Members() {
			m, err := c.Member(id)
			if err != nil {
				t.Fatal(err)
			}
			dirs[id] = repoDirOf(t, m)
		}
		if err := c.FailServer("fs2"); err != nil {
			t.Fatal(err)
		}
		gone(t, dirs["fs2"], "FailServer")
		if err := c.AbsorbDead("fs2"); !errors.Is(err, ErrNoDurableRepo) {
			t.Fatalf("AbsorbDead of a member whose private repository died with it: %v, want ErrNoDurableRepo", err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		gone(t, dirs["fs1"], "Close")
		gone(t, dirs["fs3"], "Close")
	})
}

func TestPointInTimeRestore(t *testing.T) {
	sys, srv := newSys(t, "rdd")
	sess := sys.NewSession(alice)
	var states []uint64
	var contents = []string{"v0 content"}
	states = append(states, sys.Engine.StateID())
	for i := 1; i <= 3; i++ {
		f, err := sess.OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		content := strings.Repeat("x", i) + " version"
		f.WriteAll([]byte(content))
		if err := f.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
		states = append(states, sys.Engine.StateID())
		contents = append(contents, content)
	}
	// Restore to each captured state and verify both halves agree.
	for i := len(states) - 1; i >= 1; i-- {
		if err := sys.Engine.RestoreToState(states[i]); err != nil {
			t.Fatalf("restore to state %d: %v", states[i], err)
		}
		data, _ := srv.Phys.ReadFile("/movies/clip1.mpg")
		if string(data) != contents[i] {
			t.Fatalf("restore %d: content = %q, want %q", i, data, contents[i])
		}
		// The database half still references the clip.
		row, err := sys.Engine.DB().QueryRow(`SELECT COUNT(*) FROM movies`)
		if err != nil || row[0].I != 1 {
			t.Fatalf("restored db rows = %v, %v", row, err)
		}
	}
}

// TestRestoreBeforeALink: a restore to a state before a second RECOVERY YES
// file was linked dissolves that link — the file has no version at the
// state, so it goes back to its owner as it stands — and rewinds the file the
// state kept.
func TestRestoreBeforeALink(t *testing.T) {
	sys, srv := newSys(t, "rdd")
	s0 := sys.Engine.StateID()
	if err := srv.SeedFile("/movies/clip2.mpg", []byte("clip2 content"), alice); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DB().Exec(`INSERT INTO movies (id, title, clip) VALUES (2, 'Vertigo', DLVALUE('dlfs://fs1/movies/clip2.mpg'))`); err != nil {
		t.Fatalf("link clip2: %v", err)
	}
	f, err := sys.NewSession(alice).OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAll([]byte("v1 content"))
	if err := f.Close(); err != nil {
		t.Fatalf("commit clip1: %v", err)
	}

	if err := sys.Engine.RestoreToState(s0); err != nil {
		t.Fatalf("restore to before the link: %v", err)
	}
	if row, err := sys.DB().QueryRow(`SELECT COUNT(*) FROM movies`); err != nil || row[0].I != 1 {
		t.Fatalf("restored host holds %v rows (%v), want 1", row, err)
	}
	if got := strings.Join(srv.DLFM.LinkedPaths(), ","); got != "/movies/clip1.mpg" {
		t.Fatalf("linked after the restore: %s, want clip1 alone", got)
	}
	ino, _ := srv.Phys.Lookup("/movies/clip2.mpg")
	if attr, _ := srv.Phys.Getattr(ino); attr.UID != alice || attr.Mode != 0o644 {
		t.Fatalf("clip2 uid %d mode %o, want alice's 0644 back", attr.UID, attr.Mode)
	}
	if data, _ := srv.Phys.ReadFile("/movies/clip1.mpg"); string(data) != "v0 content" {
		t.Fatalf("clip1 reads %q, want its content at s0", data)
	}
}

// TestRestoreAcrossARelinkChangesNothing: a restore to a state at which clip2
// was linked, across a later unlink and relink of it, cannot rewind clip2 —
// its history began again at the relink. The member checks every file it
// would rewind before it changes any: the restore fails, the host keeps its
// state, and clip1 keeps its last commit.
func TestRestoreAcrossARelinkChangesNothing(t *testing.T) {
	sys, srv := newSys(t, "rdd")
	if err := srv.SeedFile("/movies/clip2.mpg", []byte("clip2 content"), alice); err != nil {
		t.Fatal(err)
	}
	link := `INSERT INTO movies (id, title, clip) VALUES (2, 'Vertigo', DLVALUE('dlfs://fs1/movies/clip2.mpg'))`
	sys.DB().MustExec(link)
	commit := func(content string) {
		t.Helper()
		f, err := sys.NewSession(alice).OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAll([]byte(content))
		if err := f.Close(); err != nil {
			t.Fatalf("commit %q: %v", content, err)
		}
	}
	commit("clip1 v1")
	s1 := sys.Engine.StateID()
	sys.DB().MustExec(`DELETE FROM movies WHERE id = 2`)
	sys.DB().MustExec(link)
	commit("clip1 v2")
	state := sys.Engine.StateID()

	if err := sys.Engine.RestoreToState(s1); !errors.Is(err, archive.ErrNotFound) {
		t.Fatalf("restore across the relink: %v, want archive.ErrNotFound", err)
	}
	if got := sys.Engine.StateID(); got != state {
		t.Fatalf("refused restore moved the host from state %d to %d", state, got)
	}
	if data, _ := srv.Phys.ReadFile("/movies/clip1.mpg"); string(data) != "clip1 v2" {
		t.Fatalf("clip1 reads %q after the refused restore, want its last commit", data)
	}
}

// TestRestoreThenHostCrashes: the host database runs the disk WAL and never
// checkpoints, so a restore followed by host crashes replays the whole log
// each time — the second crash the first recovery's CLRs and END included —
// and keeps serving the restored state. A second restore still reaches back
// to the link.
func TestRestoreThenHostCrashes(t *testing.T) {
	sys, srv := newSys(t, "rdd")
	sLink := sys.Engine.StateID()
	write := func(content string) uint64 {
		t.Helper()
		f, err := sys.NewSession(alice).OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
		if err != nil {
			t.Fatalf("open write: %v", err)
		}
		f.WriteAll([]byte(content))
		if err := f.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return sys.Engine.StateID()
	}
	sA := write("version A")
	write("version B")
	check := func(after string, state uint64) {
		t.Helper()
		db := sys.Engine.DB()
		row, err := db.QueryRow(`SELECT clip_size FROM movies WHERE id = 1`)
		if err != nil || row[0].I != int64(len("version A")) {
			t.Fatalf("after %s: clip_size = %v (%v), want A's", after, row, err)
		}
		if row, err := db.QueryRow(`SELECT COUNT(*) FROM movies`); err != nil || row[0].I != 1 {
			t.Fatalf("after %s: %v rows (%v), want 1", after, row, err)
		}
		if data, _ := srv.Phys.ReadFile("/movies/clip1.mpg"); string(data) != "version A" {
			t.Fatalf("after %s: content %q, want A's", after, data)
		}
		if got := sys.Engine.StateID(); got != state {
			t.Fatalf("after %s: state id %d, want %d", after, got, state)
		}
		if _, err := os.Stat(filepath.Join(db.Log().Dir(), "repo.snap")); !os.IsNotExist(err) || db.Log().Base() != 0 {
			t.Fatalf("after %s: the host checkpointed (repo.snap: %v, log base %d)", after, err, db.Log().Base())
		}
	}

	if err := sys.Engine.RestoreToState(sA); err != nil {
		t.Fatalf("restore to A: %v", err)
	}
	check("the restore", sA)
	if err := sys.RecoverHost(); err != nil {
		t.Fatalf("host recovery: %v", err)
	}
	check("a host crash", sA)
	// A loser the next crash undoes, and the one after replays as finished.
	txn := sys.DB().Begin()
	if _, err := txn.Exec(`INSERT INTO movies (id, title) VALUES (2, 'loser')`); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DB().Log().Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RecoverHost(); err != nil {
		t.Fatalf("host recovery: %v", err)
	}
	undone := sys.Engine.StateID()
	if undone == sA {
		t.Fatal("the loser's undo logged nothing")
	}
	check("a host crash with a loser", undone)
	if err := sys.RecoverHost(); err != nil {
		t.Fatalf("host recovery: %v", err)
	}
	check("a host crash after the loser's undo", undone)

	if err := sys.Engine.RestoreToState(sLink); err != nil {
		t.Fatalf("restore to the link: %v", err)
	}
	if data, _ := srv.Phys.ReadFile("/movies/clip1.mpg"); string(data) != "v0 content" || sys.Engine.StateID() != sLink {
		t.Fatalf("restore to the link: content %q at state %d, want %q at %d", data, sys.Engine.StateID(), "v0 content", sLink)
	}
}

// TestHostLogDirectoryIsPrivate: the host database logs to a private
// datalinks-host-* directory that goes when the system closes or crashes
// and when the cluster closes.
func TestHostLogDirectoryIsPrivate(t *testing.T) {
	hostDir := func(t *testing.T, db *sqlmini.DB) string {
		t.Helper()
		dir := db.Log().Dir()
		if !strings.HasPrefix(filepath.Base(dir), "datalinks-host-") {
			t.Fatalf("host log directory %q, want a private datalinks-host-* one", dir)
		}
		if _, err := os.Stat(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	gone := func(t *testing.T, dir, after string) {
		t.Helper()
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("host log directory %s survived %s (%v)", dir, after, err)
		}
	}
	t.Run("system close", func(t *testing.T) {
		sys, _ := newSys(t, "rfd")
		dir := hostDir(t, sys.DB())
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		gone(t, dir, "Close")
	})
	t.Run("system crash", func(t *testing.T) {
		sys, _ := newSys(t, "rfd")
		dir := hostDir(t, sys.DB())
		sys.Crash()
		gone(t, dir, "Crash")
	})
	t.Run("cluster close", func(t *testing.T) {
		c := newCluster(t, 2)
		dir := hostDir(t, c.DB())
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		gone(t, dir, "Close")
	})
}

func TestUserTxnMultiFile(t *testing.T) {
	sys, srv := newSys(t, "rfd")
	srv.Phys.WriteFile("/movies/clip2.mpg", []byte("c2 v0"))
	sys.DB().MustExec(`INSERT INTO movies (id, title, clip) VALUES (2, 'Metropolis', DLVALUE('dlfs://fs1/movies/clip2.mpg'))`)

	sess := sys.NewSession(alice)
	u := sess.BeginUserTxn()
	r1, _ := sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(clip) FROM movies WHERE id = 1`)
	r2, _ := sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(clip) FROM movies WHERE id = 2`)
	f1, err := u.OpenWrite(r1[0].S)
	if err != nil {
		t.Fatalf("open 1: %v", err)
	}
	f2, err := u.OpenWrite(r2[0].S)
	if err != nil {
		t.Fatalf("open 2: %v", err)
	}
	f1.WriteAll([]byte("c1 v1"))
	f2.WriteAll([]byte("c2 v1"))
	if err := u.Commit(); err != nil {
		t.Fatalf("user txn commit: %v", err)
	}
	d1, _ := srv.Phys.ReadFile("/movies/clip1.mpg")
	d2, _ := srv.Phys.ReadFile("/movies/clip2.mpg")
	if string(d1) != "c1 v1" || string(d2) != "c2 v1" {
		t.Fatalf("contents = %q, %q", d1, d2)
	}
}

func TestUserTxnAbort(t *testing.T) {
	sys, srv := newSys(t, "rfd")
	sess := sys.NewSession(alice)
	u := sess.BeginUserTxn()
	f, err := u.OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	f.WriteAll([]byte("garbage"))
	if err := u.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	data, _ := srv.Phys.ReadFile("/movies/clip1.mpg")
	if string(data) != "v0 content" {
		t.Fatalf("content after user txn abort = %q", data)
	}
}

func TestUnmodifiedCloseCreatesNoVersion(t *testing.T) {
	sys, srv := newSys(t, "rfd")
	sess := sys.NewSession(alice)
	f, err := sess.OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// No write happens.
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	versions := srv.Archive.Versions("fs1", "/movies/clip1.mpg")
	if len(versions) != 1 {
		t.Fatalf("unmodified close created a version: %+v", versions)
	}
}

func TestStrictModeClosesLinkWindow(t *testing.T) {
	sys, err := NewSystem(Config{
		Servers: []ServerConfig{{Name: "fs1", Strict: true, OpenWait: 200 * time.Millisecond}},
	})
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	defer sys.Close()
	srv, _ := sys.Server("fs1")
	srv.Phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	srv.Phys.WriteFile("/d/f", []byte("x"))
	sys.DB().MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD)`)

	// Open the (unlinked) file, then try to link it: strict mode rejects.
	fd, err := srv.LFS.Open(fs.Cred{UID: alice}, "/d/f", fs.AccessRead)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := sys.DB().Exec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f'))`); err == nil {
		t.Fatal("strict mode allowed linking an open file")
	}
	srv.LFS.Close(fd)
	if _, err := sys.DB().Exec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f'))`); err != nil {
		t.Fatalf("link after close: %v", err)
	}
}

func TestLinkWindowExistsWithoutStrict(t *testing.T) {
	sys, srv := newSys(t, "rdd")
	// Default (non-strict) system: linking an open file succeeds — the §4.5
	// window of inconsistency the paper leaves open.
	srv.Phys.WriteFile("/movies/open.dat", []byte("x"))
	fd, err := srv.LFS.Open(fs.Cred{UID: alice}, "/movies/open.dat", fs.AccessRead)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := sys.DB().Exec(`INSERT INTO movies (id, title, clip) VALUES (9, 'w', DLVALUE('dlfs://fs1/movies/open.dat'))`); err != nil {
		t.Fatalf("link while open (window) should succeed: %v", err)
	}
	srv.LFS.Close(fd)
}

func TestMetadataCompanionColumnsOptional(t *testing.T) {
	// A table without clip_size/clip_mtime columns still commits updates.
	sys, err := NewSystem(Config{Servers: []ServerConfig{{Name: "fs1"}}})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	defer sys.Close()
	srv, _ := sys.Server("fs1")
	srv.Phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	srv.Phys.WriteFile("/d/f", []byte("x"))
	sys.DB().MustExec(`CREATE TABLE bare (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	sys.DB().MustExec(`INSERT INTO bare VALUES (1, DLVALUE('dlfs://fs1/d/f'))`)
	row, _ := sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(doc) FROM bare WHERE id = 1`)
	sess := sys.NewSession(alice)
	f, err := sess.OpenWrite(row[0].S)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	f.WriteAll([]byte("xy"))
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestTokenIsPerUserID(t *testing.T) {
	sys, _ := newSys(t, "rdd")
	url := urlFor(t, sys, "DLURLCOMPLETE")
	// Alice validates the token (lookup), creating a token entry under her
	// uid. Bob never presented a token: opening without one fails for him
	// even after alice's entry exists.
	aliceSess := sys.NewSession(alice)
	f, err := aliceSess.OpenRead(url)
	if err != nil {
		t.Fatalf("alice open: %v", err)
	}
	f.Close()
	bobSess := sys.NewSession(bob)
	if _, err := bobSess.OpenRead("dlfs://fs1/movies/clip1.mpg"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("bob tokenless open = %v, want rejection", err)
	}
	// But processes sharing alice's uid are covered by her entry (§4.1).
	aliceTwin := sys.NewSession(alice)
	f2, err := aliceTwin.OpenRead("dlfs://fs1/movies/clip1.mpg")
	if err != nil {
		t.Fatalf("same-uid open via token entry: %v", err)
	}
	f2.Close()
}

func TestHostCrashRecoveryOutcomeResolution(t *testing.T) {
	// A committed update must survive a crash and restart of both machines.
	sys, srv := newSys(t, "rfd")
	_ = srv
	sess := sys.NewSession(alice)
	f, _ := sess.OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
	f.WriteAll([]byte("v1 committed"))
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Crash both: the host database and the file server.
	if err := sys.RecoverHost(); err != nil {
		t.Fatalf("host recovery: %v", err)
	}
	if _, err := sys.CrashAndRecoverServer("fs1"); err != nil {
		t.Fatalf("server recovery: %v", err)
	}
	newSrv, _ := sys.Server("fs1")
	data, _ := newSrv.Phys.ReadFile("/movies/clip1.mpg")
	if string(data) != "v1 committed" {
		t.Fatalf("content after double recovery = %q", data)
	}
	// The committed metadata survived host recovery.
	row, err := sys.DB().QueryRow(`SELECT clip_size FROM movies WHERE id = 1`)
	if err != nil || row[0].I != int64(len("v1 committed")) {
		t.Fatalf("metadata after recovery = %v, %v", row, err)
	}
}

func TestSQLVisibleState(t *testing.T) {
	sys, _ := newSys(t, "rdd")
	rows, err := sys.DB().Query(`SELECT DLURLPATHONLY(clip), DLURLSERVER(clip) FROM movies WHERE id = 1`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if rows.Data[0][0].S != "/movies/clip1.mpg" || rows.Data[0][1].S != "fs1" {
		t.Fatalf("scalar fns = %+v", rows.Data[0])
	}
	var _ sqlmini.Row // keep import
}
