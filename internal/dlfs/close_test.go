package dlfs_test

import (
	"sync"
	"testing"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/dlfm"
	"datalinks/internal/dlfs"
	"datalinks/internal/fs"
	"datalinks/internal/upcall"
	"datalinks/internal/vfs"
)

// recorder hands every upcall to the DLFM and keeps the close requests.
type recorder struct {
	dlfm   *dlfm.Server
	mu     sync.Mutex
	closes []upcall.Request
}

func (r *recorder) Upcall(req upcall.Request) (upcall.Response, error) {
	if req.Op == upcall.OpClose {
		r.mu.Lock()
		r.closes = append(r.closes, req)
		r.mu.Unlock()
	}
	return r.dlfm.Upcall(req)
}

// A close names its open by id alone: the request goes out without a path,
// and the DLFM still commits a write open's update and uncounts a read
// open's reader.
func TestCloseSendsNoPath(t *testing.T) {
	sys, err := core.NewSystem(core.Config{
		Servers:     []core.ServerConfig{{Name: "fs1", OpenWait: 300 * time.Millisecond}},
		LockTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	m, _ := sys.Server("fs1")
	const path, user = "/d/f.bin", fs.UID(100)
	if err := m.SeedFile(path, []byte("v0 content"), user); err != nil {
		t.Fatal(err)
	}
	sys.DB().MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	sys.DB().MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)

	rec := &recorder{dlfm: m.DLFM}
	lfs := vfs.NewLFS(dlfs.New(dlfs.Config{Phys: m.Phys, Upcall: upcall.NewInProc(rec, 0, nil), DLFMUid: m.DLFM.UID()}))
	open := func(fn string, mode fs.AccessMode) vfs.FD {
		t.Helper()
		row, err := sys.DB().QueryRow(`SELECT ` + fn + `(doc) FROM t WHERE id = 1`)
		if err != nil {
			t.Fatal(err)
		}
		_, name, err := core.SplitURL(row[0].S)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := lfs.Open(fs.Cred{UID: user}, name, mode)
		if err != nil {
			t.Fatalf("open %s: %v", fn, err)
		}
		return fd
	}
	lastClose := func() upcall.Request {
		t.Helper()
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if len(rec.closes) == 0 {
			t.Fatal("no close upcall")
		}
		return rec.closes[len(rec.closes)-1]
	}

	fd := open("DLURLCOMPLETE", fs.AccessRead)
	if readers, _ := m.DLFM.SyncEntries(path); readers != 1 {
		t.Fatalf("%d readers counted while the read is open, want 1", readers)
	}
	buf := make([]byte, 2)
	if _, err := lfs.ReadAt(fd, 0, buf); err != nil || string(buf) != "v0" {
		t.Fatalf("read %q, %v", buf, err)
	}
	if err := lfs.Close(fd); err != nil {
		t.Fatalf("read close: %v", err)
	}
	if req := lastClose(); req.Path != "" || req.OpenID == 0 {
		t.Fatalf("read close sent %+v, want an open id and no path", req)
	}
	if readers, _ := m.DLFM.SyncEntries(path); readers != 0 || m.DLFM.OpenCount() != 0 {
		t.Fatalf("after the read close: %d readers, %d opens", readers, m.DLFM.OpenCount())
	}

	_, before, _, err := m.DLFM.FileMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	fd = open("DLURLCOMPLETEWRITE", fs.ReadWrite)
	if _, err := lfs.WriteAt(fd, 0, []byte("v1")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := lfs.Close(fd); err != nil {
		t.Fatalf("write close: %v", err)
	}
	if req := lastClose(); req.Path != "" || req.OpenID == 0 {
		t.Fatalf("write close sent %+v, want an open id and no path", req)
	}
	if _, after, _, err := m.DLFM.FileMeta(path); err != nil || after != before+1 {
		t.Fatalf("version %d after the write close, %v; want %d", after, err, before+1)
	}
	if got, err := m.DLFM.ReadFileContent(path); err != nil || string(got) != "v1 content" {
		t.Fatalf("committed content %q, %v", got, err)
	}
	if m.DLFM.OpenCount() != 0 || len(m.DLFM.UpdatesInFlight()) != 0 {
		t.Fatalf("after the write close: %d opens, updates in flight %v", m.DLFM.OpenCount(), m.DLFM.UpdatesInFlight())
	}
}
