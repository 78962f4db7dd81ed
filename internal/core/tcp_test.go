package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"datalinks/internal/fs"
)

// newTCPSys builds a system whose DLFS reaches DLFM over a real TCP
// connection — the process split of Figure 1.
func newTCPSys(t *testing.T) (*System, *FileServer) {
	t.Helper()
	sys, err := NewSystem(Config{
		Servers: []ServerConfig{{
			Name:       "fs1",
			TCPUpcalls: true,
			OpenWait:   300 * time.Millisecond,
		}},
		LockTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("new tcp system: %v", err)
	}
	closeAtEnd(t, sys)
	srv, _ := sys.Server("fs1")
	if err := srv.Phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := srv.Phys.WriteFile("/d/f.bin", []byte("v0 over tcp")); err != nil {
		t.Fatal(err)
	}
	ino, _ := srv.Phys.Lookup("/d/f.bin")
	srv.Phys.Chown(ino, fs.Cred{UID: fs.Root}, alice)
	srv.Phys.Chmod(ino, fs.Cred{UID: alice}, 0o644)
	return sys, srv
}

func TestTCPUpcallFullLifecycle(t *testing.T) {
	sys, srv := newTCPSys(t)
	sys.DB().MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
	if _, err := sys.DB().Exec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'), NULL)`); err != nil {
		t.Fatalf("link: %v", err)
	}

	// Token read over the wire.
	row, err := sys.DB().QueryRow(`SELECT DLURLCOMPLETE(doc) FROM t WHERE id = 1`)
	if err != nil {
		t.Fatalf("token: %v", err)
	}
	sess := sys.NewSession(alice)
	f, err := sess.OpenRead(row[0].S)
	if err != nil {
		t.Fatalf("open over tcp: %v", err)
	}
	data, _ := f.ReadAll()
	if string(data) != "v0 over tcp" {
		t.Fatalf("read = %q", data)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Update transaction over the wire.
	row, _ = sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(doc) FROM t WHERE id = 1`)
	w, err := sess.OpenWrite(row[0].S)
	if err != nil {
		t.Fatalf("write open over tcp: %v", err)
	}
	if err := w.WriteAll([]byte("v1 over tcp!")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("commit over tcp: %v", err)
	}
	mrow, err := sys.DB().QueryRow(`SELECT doc_size FROM t WHERE id = 1`)
	if err != nil || mrow[0].I != int64(len("v1 over tcp!")) {
		t.Fatalf("metadata = %v, %v", mrow, err)
	}
	// The rejection paths survive the wire too. (A different uid: alice's
	// earlier token validation left her a live token entry, §4.1.)
	stranger := sys.NewSession(bob)
	if _, err := stranger.OpenRead("dlfs://fs1/d/f.bin"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("tokenless read over tcp = %v", err)
	}
	if srv.Transport.Calls() == 0 {
		t.Fatal("no upcalls counted on the TCP transport")
	}
}

func TestTCPUpcallCrashRecoveryRedials(t *testing.T) {
	sys, _ := newTCPSys(t)
	sys.DB().MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	if _, err := sys.DB().Exec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`); err != nil {
		t.Fatalf("link: %v", err)
	}
	sess := sys.NewSession(alice)
	row, _ := sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(doc) FROM t WHERE id = 1`)
	f, err := sess.OpenWrite(row[0].S)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	f.WriteAll([]byte("in flight at crash"))
	if _, err := sys.CrashAndRecoverServer("fs1"); err != nil {
		t.Fatalf("crash+recover: %v", err)
	}
	srv, _ := sys.Server("fs1")
	data, _ := srv.Phys.ReadFile("/d/f.bin")
	if !strings.HasPrefix(string(data), "v0") {
		t.Fatalf("content after recovery = %q", data)
	}
	// The recovered daemon serves on a fresh TCP endpoint.
	row, _ = sys.DB().QueryRow(`SELECT DLURLCOMPLETEWRITE(doc) FROM t WHERE id = 1`)
	f2, err := sess.OpenWrite(row[0].S)
	if err != nil {
		t.Fatalf("open after recovery over tcp: %v", err)
	}
	f2.WriteAll([]byte("v1 post-recovery"))
	if err := f2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
