package datalinks_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"datalinks"
	"datalinks/internal/upcall"
)

// closeAtEnd closes c when the test ends and fails the test on a close
// error.
func closeAtEnd(t testing.TB, c interface{ Close() error }) {
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}

func openSys(t *testing.T) (*datalinks.System, *datalinks.FileServer) {
	t.Helper()
	sys, err := datalinks.Open(datalinks.Config{
		Servers:     []datalinks.ServerConfig{{Name: "fs1", OpenWait: 300 * time.Millisecond}},
		LockTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	closeAtEnd(t, sys)
	fsrv, err := sys.FileServer("fs1")
	if err != nil {
		t.Fatalf("file server: %v", err)
	}
	return sys, fsrv
}

func TestPublicAPIRoundTrip(t *testing.T) {
	sys, fsrv := openSys(t)
	if err := fsrv.SeedFile("/docs/a.txt", []byte("hello"), 100); err != nil {
		t.Fatalf("seed: %v", err)
	}
	sys.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, name VARCHAR, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
	if _, err := sys.Exec(`INSERT INTO docs (id, name, doc) VALUES (?, ?, DLVALUE(?))`,
		1, "a", "dlfs://fs1/docs/a.txt"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	// Typed query results.
	rows, err := sys.Query(`SELECT id, name, doc FROM docs`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if rows.Data[0][0].(int64) != 1 || rows.Data[0][1].(string) != "a" {
		t.Fatalf("row = %+v", rows.Data[0])
	}
	link, ok := rows.Data[0][2].(datalinks.Link)
	if !ok || link.Path != "/docs/a.txt" || link.URL() != "dlfs://fs1/docs/a.txt" {
		t.Fatalf("link cell = %+v", rows.Data[0][2])
	}
	// Token read.
	url, err := sys.QueryString(`SELECT DLURLCOMPLETE(doc) FROM docs WHERE id = 1`)
	if err != nil {
		t.Fatalf("token url: %v", err)
	}
	f, err := sys.Session(100).OpenRead(url)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	data, _ := f.ReadAll()
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if string(data) != "hello" {
		t.Fatalf("read = %q", data)
	}
}

func TestPublicAPIUpdateLifecycle(t *testing.T) {
	sys, fsrv := openSys(t)
	fsrv.SeedFile("/docs/b.txt", []byte("v0"), 100)
	sys.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES, doc_size INT)`)
	sys.MustExec(`INSERT INTO docs (id, doc) VALUES (1, DLVALUE('dlfs://fs1/docs/b.txt'))`)

	url, _ := sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM docs WHERE id = 1`)
	sess := sys.Session(100)
	f, err := sess.OpenWrite(url)
	if err != nil {
		t.Fatalf("open write: %v", err)
	}
	if err := f.WriteAll([]byte("version one")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if sz, _ := f.Size(); sz != int64(len("version one")) {
		t.Fatalf("size = %d", sz)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if vs := fsrv.Versions("/docs/b.txt"); len(vs) != 2 {
		t.Fatalf("versions = %v", vs)
	}
	rows, _ := sys.Query(`SELECT doc_size FROM docs WHERE id = 1`)
	if rows.Data[0][0].(int64) != int64(len("version one")) {
		t.Fatalf("metadata = %v", rows.Data[0][0])
	}
	// Abort path.
	url, _ = sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM docs WHERE id = 1`)
	f2, err := sess.OpenWrite(url)
	if err != nil {
		t.Fatalf("open 2: %v", err)
	}
	f2.WriteAll([]byte("garbage"))
	if err := f2.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	data, _ := fsrv.ReadFile("/docs/b.txt")
	if string(data) != "version one" {
		t.Fatalf("after abort = %q", data)
	}
}

func TestPublicAPIUserTxn(t *testing.T) {
	sys, fsrv := openSys(t)
	fsrv.SeedFile("/d/x.txt", []byte("x0"), 100)
	fsrv.SeedFile("/d/y.txt", []byte("y0"), 100)
	sys.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	sys.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/x.txt')), (2, DLVALUE('dlfs://fs1/d/y.txt'))`)

	u := sys.Session(100).BeginUserTxn()
	u1, _ := sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM t WHERE id = 1`)
	u2, _ := sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM t WHERE id = 2`)
	f1, err := u.OpenWrite(u1)
	if err != nil {
		t.Fatalf("open 1: %v", err)
	}
	f2, err := u.OpenWrite(u2)
	if err != nil {
		t.Fatalf("open 2: %v", err)
	}
	f1.WriteAll([]byte("x1"))
	f2.WriteAll([]byte("y1"))
	if err := u.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	dx, _ := fsrv.ReadFile("/d/x.txt")
	dy, _ := fsrv.ReadFile("/d/y.txt")
	if string(dx) != "x1" || string(dy) != "y1" {
		t.Fatalf("contents = %q, %q", dx, dy)
	}
}

func TestPublicAPIRestore(t *testing.T) {
	sys, fsrv := openSys(t)
	fsrv.SeedFile("/d/f.txt", []byte("v0"), 100)
	sys.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	sys.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.txt'))`)
	s0 := sys.StateID()

	url, _ := sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM t WHERE id = 1`)
	f, _ := sys.Session(100).OpenWrite(url)
	f.WriteAll([]byte("v1"))
	f.Close()

	if err := sys.RestoreToState(s0); err != nil {
		t.Fatalf("restore: %v", err)
	}
	data, _ := fsrv.ReadFile("/d/f.txt")
	if string(data) != "v0" {
		t.Fatalf("after restore = %q", data)
	}
	// The restored system keeps working.
	rows, err := sys.Query(`SELECT COUNT(*) FROM t`)
	if err != nil || rows.Data[0][0].(int64) != 1 {
		t.Fatalf("restored query = %v, %v", rows, err)
	}
}

func TestPublicAPICrashRecovery(t *testing.T) {
	sys, fsrv := openSys(t)
	fsrv.SeedFile("/d/f.txt", []byte("v0"), 100)
	sys.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	sys.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.txt'))`)
	url, _ := sys.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM t WHERE id = 1`)
	f, err := sys.Session(100).OpenWrite(url)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	f.WriteAll([]byte("never committed"))
	rep, err := sys.CrashAndRecoverServer("fs1")
	if err != nil {
		t.Fatalf("crash+recover: %v", err)
	}
	if len(rep.RestoredFiles) != 1 {
		t.Fatalf("restored = %v", rep.RestoredFiles)
	}
	fsrv2, _ := sys.FileServer("fs1")
	data, _ := fsrv2.ReadFile("/d/f.txt")
	if string(data) != "v0" {
		t.Fatalf("after recovery = %q", data)
	}
}

func TestPublicAPIErrors(t *testing.T) {
	sys, _ := openSys(t)
	if _, err := sys.FileServer("nope"); err == nil {
		t.Fatal("unknown server accepted")
	}
	if _, err := sys.Exec(`INSERT INTO missing VALUES (1)`); err == nil {
		t.Fatal("insert into missing table accepted")
	}
	if _, err := sys.Query(`SELECT`, 1); err == nil {
		t.Fatal("bad SQL accepted")
	}
	if _, err := sys.Exec(`CREATE TABLE t (id INT)`, struct{}{}); err == nil ||
		!strings.Contains(err.Error(), "unsupported argument") {
		t.Fatalf("bad arg = %v", err)
	}
	if _, err := sys.QueryString(`SELECT 1 FROM nothing`); err == nil {
		t.Fatal("QueryString over missing table accepted")
	}
	if _, err := sys.Session(1).OpenRead("not-a-url"); err == nil {
		t.Fatal("bad url accepted")
	}
	var e error = errors.New("x")
	_ = e
}

// TestPublicAPIReferenceStack drives the replicated three-member stack the
// benchmark ledger measures — TCP upcalls through a pool of two, durable
// repository and archive directories with group fsync, Replicas 2 with a
// write quorum of 2 — through the public API, and holds every archived
// version on the owner and its replica to the same bytes.
func TestPublicAPIReferenceStack(t *testing.T) {
	const (
		files    = 8
		fileSize = 256 << 10
		commits  = 40
		edit     = 4 << 10
		uid      = 100
	)
	dir := t.TempDir()
	members := make([]datalinks.ServerConfig, 3)
	for i := range members {
		name := fmt.Sprintf("m%d", i+1)
		members[i] = datalinks.ServerConfig{
			Name:         name,
			TCPUpcalls:   true,
			UpcallNet:    &upcall.NetConfig{Client: upcall.ClientConfig{PoolSize: 2}},
			OpenWait:     10 * time.Second,
			RepoDir:      filepath.Join(dir, name, "repo"),
			RepoFsync:    "group",
			ArchiveDir:   filepath.Join(dir, name, "archive"),
			ArchiveFsync: "group",
		}
	}
	c, err := datalinks.OpenCluster(datalinks.ClusterConfig{Members: members, Replicas: 2, WriteQuorum: 2})
	if err != nil {
		t.Fatalf("open cluster: %v", err)
	}
	closeAtEnd(t, c)

	c.MustExec(`CREATE TABLE files (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
	paths := make([]string, files)
	shadow := make([][]byte, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/rdd/f%02d", i)
		shadow[i] = bytes.Repeat([]byte{byte('a' + i)}, fileSize)
		if err := c.SeedFile(paths[i], shadow[i], uid); err != nil {
			t.Fatalf("seed %s: %v", paths[i], err)
		}
		if _, err := c.Exec(`INSERT INTO files VALUES (?, DLVALUE(?), NULL)`, i, c.URL(paths[i])); err != nil {
			t.Fatalf("link %s: %v", paths[i], err)
		}
	}

	sess := c.Session(uid)
	for k := 0; k < commits; k++ {
		id := k % files
		off := int64(k*37%(fileSize/edit)) * edit
		data := bytes.Repeat([]byte{byte(k)}, edit)
		url, err := c.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM files WHERE id = ?`, id)
		if err != nil {
			t.Fatalf("commit %d: write url: %v", k, err)
		}
		f, err := sess.OpenWrite(url)
		if err != nil {
			t.Fatalf("commit %d: open: %v", k, err)
		}
		if _, err := f.WriteAt(off, data); err != nil {
			t.Fatalf("commit %d: write: %v", k, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("commit %d: close: %v", k, err)
		}
		copy(shadow[id][off:], data)
	}

	for i, p := range paths {
		url, err := c.QueryString(`SELECT DLURLCOMPLETE(doc) FROM files WHERE id = ?`, i)
		if err != nil {
			t.Fatalf("%s: read url: %v", p, err)
		}
		f, err := sess.OpenRead(url)
		if err != nil {
			t.Fatalf("%s: open read: %v", p, err)
		}
		got, err := f.ReadAll()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: read: %v", p, err)
		}
		if !bytes.Equal(got, shadow[i]) {
			t.Fatalf("%s: read-back differs from the committed bytes", p)
		}
	}

	if err := c.FlushReplication(); err != nil {
		t.Fatalf("flush replication: %v", err)
	}
	type version struct {
		n    int64
		data []byte
	}
	inner := c.Internal()
	history := func(id, p string) []version {
		m, err := inner.Member(id)
		if err != nil {
			t.Fatalf("member %s: %v", id, err)
		}
		var out []version
		for _, e := range m.Archive.Versions(c.Authority(), p) {
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatalf("%s on %s: v%d: %v", p, id, e.Version, err)
			}
			out = append(out, version{int64(e.Version), snap.Bytes()})
			snap.Release()
		}
		return out
	}
	for i, p := range paths {
		set := c.ReplicaSet(p)
		if len(set) != 2 {
			t.Fatalf("%s: replica set %v, want owner plus one replica", p, set)
		}
		owner, replica := history(set[0], p), history(set[1], p)
		if len(owner) < 2 {
			t.Fatalf("%s: owner %s archived %d versions, want the link plus its commits", p, set[0], len(owner))
		}
		if !bytes.Equal(owner[len(owner)-1].data, shadow[i]) {
			t.Fatalf("%s: newest archived version on %s differs from the committed bytes", p, set[0])
		}
		if len(replica) != len(owner) {
			t.Fatalf("%s: owner %s holds %d versions, replica %s %d", p, set[0], len(owner), set[1], len(replica))
		}
		for j, v := range owner {
			if r := replica[j]; r.n != v.n || !bytes.Equal(r.data, v.data) {
				t.Fatalf("%s: v%d on owner %s differs from v%d on replica %s", p, v.n, set[0], r.n, set[1])
			}
		}
	}
}

// TestClusterUserTxnSpansMembers commits one user transaction over two paths
// the ring places on different members, through the same Session type a
// System hands out, and reads both back.
func TestClusterUserTxnSpansMembers(t *testing.T) {
	const uid = 100
	c, err := datalinks.OpenCluster(datalinks.ClusterConfig{Members: []datalinks.ServerConfig{
		{Name: "m1", OpenWait: time.Second}, {Name: "m2", OpenWait: time.Second}, {Name: "m3", OpenWait: time.Second},
	}})
	if err != nil {
		t.Fatalf("open cluster: %v", err)
	}
	closeAtEnd(t, c)
	c.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)

	// The first two candidate paths with different owners.
	var paths []string
	var owners []string
	for i := 0; len(paths) < 2 && i < 64; i++ {
		p := fmt.Sprintf("/u/f%02d", i)
		o, err := c.Owner(p)
		if err != nil {
			t.Fatalf("owner %s: %v", p, err)
		}
		if len(owners) == 0 || owners[0] != o {
			paths, owners = append(paths, p), append(owners, o)
		}
	}
	if len(paths) != 2 {
		t.Fatalf("no two paths on different members among 64 candidates")
	}
	for i, p := range paths {
		if err := c.SeedFile(p, []byte("v0"), uid); err != nil {
			t.Fatalf("seed %s: %v", p, err)
		}
		if _, err := c.Exec(`INSERT INTO docs VALUES (?, DLVALUE(?))`, i, c.URL(p)); err != nil {
			t.Fatalf("link %s: %v", p, err)
		}
	}

	var sess *datalinks.Session = c.Session(uid)
	u := sess.BeginUserTxn()
	want := []string{"first member's edit", "second"}
	for i := range paths {
		url, err := c.QueryString(`SELECT DLURLCOMPLETEWRITE(doc) FROM docs WHERE id = ?`, i)
		if err != nil {
			t.Fatalf("write url %d: %v", i, err)
		}
		f, err := u.OpenWrite(url)
		if err != nil {
			t.Fatalf("open %s on %s: %v", paths[i], owners[i], err)
		}
		if err := f.WriteAll([]byte(want[i])); err != nil {
			t.Fatalf("write %s: %v", paths[i], err)
		}
	}
	if err := u.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	for i, p := range paths {
		f, err := sess.OpenRead(c.URL(p))
		if err != nil {
			t.Fatalf("open read %s: %v", p, err)
		}
		size, err := f.Size()
		if err != nil || size != int64(len(want[i])) {
			t.Fatalf("%s: size = %d, %v; want %d", p, size, err, len(want[i]))
		}
		got, err := f.ReadAll()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil || string(got) != want[i] {
			t.Fatalf("%s on %s: read %q, %v; want %q", p, owners[i], got, err, want[i])
		}
	}
}
