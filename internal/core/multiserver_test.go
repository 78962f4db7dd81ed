package core

import (
	"testing"
	"time"

	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
)

// newTwoServerSys models the paper's "multiple distinct file servers within
// a DataLinks database" deployment (§1).
func newTwoServerSys(t *testing.T) (*System, *FileServer, *FileServer) {
	t.Helper()
	sys, err := NewSystem(Config{
		Servers: []ServerConfig{
			{Name: "east", OpenWait: 500 * time.Millisecond},
			{Name: "west", OpenWait: 500 * time.Millisecond},
		},
		LockTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	closeAtEnd(t, sys)
	east, _ := sys.Server("east")
	west, _ := sys.Server("west")
	for _, srv := range []*FileServer{east, west} {
		if err := srv.Phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777); err != nil {
			t.Fatal(err)
		}
		if err := srv.Phys.WriteFile("/d/f.bin", []byte(srv.Name+" v0")); err != nil {
			t.Fatal(err)
		}
		ino, _ := srv.Phys.Lookup("/d/f.bin")
		srv.Phys.Chown(ino, fs.Cred{UID: fs.Root}, alice)
		srv.Phys.Chmod(ino, fs.Cred{UID: alice}, 0o644)
	}
	return sys, east, west
}

func TestMultiServerLinkTransactionSpansServers(t *testing.T) {
	sys, east, west := newTwoServerSys(t)
	sys.DB().MustExec(`CREATE TABLE mirror (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	// One transaction links a file on each server.
	txn := sys.DB().Begin()
	if _, err := txn.Exec(`INSERT INTO mirror VALUES (1, DLVALUE('dlfs://east/d/f.bin'))`); err != nil {
		t.Fatalf("east link: %v", err)
	}
	if _, err := txn.Exec(`INSERT INTO mirror VALUES (2, DLVALUE('dlfs://west/d/f.bin'))`); err != nil {
		t.Fatalf("west link: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if !east.DLFM.IsLinked("/d/f.bin") || !west.DLFM.IsLinked("/d/f.bin") {
		t.Fatal("links missing on one server")
	}

	// And an aborted transaction touching both undoes both.
	txn = sys.DB().Begin()
	if _, err := txn.Exec(`DELETE FROM mirror`); err != nil {
		t.Fatalf("delete: %v", err)
	}
	txn.Abort()
	if !east.DLFM.IsLinked("/d/f.bin") || !west.DLFM.IsLinked("/d/f.bin") {
		t.Fatal("abort lost a link")
	}
}

func TestMultiServerUserTxnAcrossServers(t *testing.T) {
	sys, east, west := newTwoServerSys(t)
	sys.DB().MustExec(`CREATE TABLE mirror (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	sys.DB().MustExec(`INSERT INTO mirror VALUES (1, DLVALUE('dlfs://east/d/f.bin')), (2, DLVALUE('dlfs://west/d/f.bin'))`)

	sess := sys.NewSession(alice)
	u := sess.BeginUserTxn()
	r1, _ := sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(doc) FROM mirror WHERE id = 1`)
	r2, _ := sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(doc) FROM mirror WHERE id = 2`)
	f1, err := u.OpenWrite(r1[0].S)
	if err != nil {
		t.Fatalf("east open: %v", err)
	}
	f2, err := u.OpenWrite(r2[0].S)
	if err != nil {
		t.Fatalf("west open: %v", err)
	}
	f1.WriteAll([]byte("east v1"))
	f2.WriteAll([]byte("west v1"))
	if err := u.Commit(); err != nil {
		t.Fatalf("user txn commit: %v", err)
	}
	de, _ := east.Phys.ReadFile("/d/f.bin")
	dw, _ := west.Phys.ReadFile("/d/f.bin")
	if string(de) != "east v1" || string(dw) != "west v1" {
		t.Fatalf("contents = %q / %q", de, dw)
	}
}

func TestMultiServerCrashIsolatedToOneServer(t *testing.T) {
	sys, east, west := newTwoServerSys(t)
	_ = east
	sys.DB().MustExec(`CREATE TABLE mirror (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	sys.DB().MustExec(`INSERT INTO mirror VALUES (1, DLVALUE('dlfs://east/d/f.bin')), (2, DLVALUE('dlfs://west/d/f.bin'))`)
	sess := sys.NewSession(alice)

	// In-flight update on east; committed update on west.
	r1, _ := sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(doc) FROM mirror WHERE id = 1`)
	fe, err := sess.OpenWrite(r1[0].S)
	if err != nil {
		t.Fatalf("east open: %v", err)
	}
	fe.WriteAll([]byte("east garbage"))
	r2, _ := sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(doc) FROM mirror WHERE id = 2`)
	fw, err := sess.OpenWrite(r2[0].S)
	if err != nil {
		t.Fatalf("west open: %v", err)
	}
	fw.WriteAll([]byte("west v1"))
	if err := fw.Close(); err != nil {
		t.Fatalf("west commit: %v", err)
	}

	// Crash east only.
	if _, err := sys.CrashAndRecoverServer("east"); err != nil {
		t.Fatalf("east recovery: %v", err)
	}
	eastNew, _ := sys.Server("east")
	de, _ := eastNew.Phys.ReadFile("/d/f.bin")
	if string(de) != "east v0" {
		t.Fatalf("east after recovery = %q", de)
	}
	dw, _ := west.Phys.ReadFile("/d/f.bin")
	if string(dw) != "west v1" {
		t.Fatalf("west disturbed by east crash: %q", dw)
	}
}

func TestMultiServerRestoreCoversAllServers(t *testing.T) {
	sys, east, west := newTwoServerSys(t)
	sys.DB().MustExec(`CREATE TABLE mirror (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	sys.DB().MustExec(`INSERT INTO mirror VALUES (1, DLVALUE('dlfs://east/d/f.bin')), (2, DLVALUE('dlfs://west/d/f.bin'))`)
	s0 := sys.Engine.StateID()
	sess := sys.NewSession(alice)
	for _, id := range []int{1, 2} {
		row, err := sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(doc) FROM mirror WHERE id = ?`, intVal(id))
		if err != nil {
			t.Fatalf("url %d: %v", id, err)
		}
		f, err := sess.OpenWrite(row[0].S)
		if err != nil {
			t.Fatalf("open %d: %v", id, err)
		}
		f.WriteAll([]byte("updated"))
		if err := f.Close(); err != nil {
			t.Fatalf("close %d: %v", id, err)
		}
	}

	if err := sys.Engine.RestoreToState(s0); err != nil {
		t.Fatalf("restore: %v", err)
	}
	de, _ := east.Phys.ReadFile("/d/f.bin")
	dw, _ := west.Phys.ReadFile("/d/f.bin")
	if string(de) != "east v0" || string(dw) != "west v0" {
		t.Fatalf("restored contents = %q / %q", de, dw)
	}
}

func intVal(i int) sqlmini.Value { return sqlmini.Int(int64(i)) }
