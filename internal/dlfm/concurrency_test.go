package dlfm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datalinks/internal/fs"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
)

// newWaitServer builds a server with a generous open-wait so serialization
// is observed as blocking, not rejection.
func newWaitServer(t *testing.T) (*Server, *fs.FS) {
	t.Helper()
	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	seedFile(t, phys, "/d/f.bin", "v0")
	srv := openServer(t, Config{
		Name:     "fs1",
		Phys:     phys,
		Archive:  newArchive(t),
		Host:     newFakeHost(),
		TokenKey: []byte("k"),
		OpenWait: 5 * time.Second,
	})
	return srv, phys
}

func TestConcurrentReadersShareRDBFile(t *testing.T) {
	srv, _ := newWaitServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rdb")
	var wg sync.WaitGroup
	var failures int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(uid int32) {
			defer wg.Done()
			tok := srv.Authority().Issue(token.Read, "/d/f.bin")
			resp, err := srv.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: "/d/f.bin", Token: tok, UID: uid})
			if err != nil || !resp.OK {
				atomic.AddInt64(&failures, 1)
				return
			}
			resp, err = srv.Upcall(upcall.Request{Op: upcall.OpReadOpen, Path: "/d/f.bin", UID: uid})
			if err != nil || !resp.OK {
				atomic.AddInt64(&failures, 1)
				return
			}
			time.Sleep(5 * time.Millisecond) // hold the open
			resp2, _ := srv.Upcall(upcall.Request{Op: upcall.OpClose, OpenID: resp.OpenID})
			if !resp2.OK {
				atomic.AddInt64(&failures, 1)
			}
		}(int32(100 + i))
	}
	wg.Wait()
	if failures != 0 {
		t.Fatalf("%d concurrent readers failed", failures)
	}
	if srv.OpenCount() != 0 {
		t.Fatalf("open leak: %d", srv.OpenCount())
	}
}

func TestWriterWaitsForReadersRDD(t *testing.T) {
	srv, phys := newWaitServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rdd")

	// A reader holds the file open.
	rtok := srv.Authority().Issue(token.Read, "/d/f.bin")
	srv.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: "/d/f.bin", Token: rtok, UID: 1})
	rresp, _ := srv.Upcall(upcall.Request{Op: upcall.OpReadOpen, Path: "/d/f.bin", UID: 1})
	if !rresp.OK {
		t.Fatalf("read open: %+v", rresp)
	}

	// The writer blocks until the reader closes.
	wtok := srv.Authority().Issue(token.Write, "/d/f.bin")
	srv.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: "/d/f.bin", Token: wtok, UID: 2})
	writerDone := make(chan upcall.Response, 1)
	go func() {
		resp, _ := srv.Upcall(upcall.Request{Op: upcall.OpWriteOpen, Path: "/d/f.bin", UID: 2, Write: true})
		writerDone <- resp
	}()
	select {
	case resp := <-writerDone:
		t.Fatalf("writer did not wait for the reader: %+v", resp)
	case <-time.After(30 * time.Millisecond):
	}
	// Reader closes; writer proceeds.
	srv.Upcall(upcall.Request{Op: upcall.OpClose, OpenID: rresp.OpenID})
	select {
	case resp := <-writerDone:
		if !resp.OK {
			t.Fatalf("writer open after reader close: %+v", resp)
		}
		closeFile(t, srv, phys, "/d/f.bin", resp.OpenID)
	case <-time.After(3 * time.Second):
		t.Fatal("writer never unblocked")
	}
}

func TestSequentialWritersSerializeViaWait(t *testing.T) {
	srv, phys := newWaitServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	const writers = 4
	var maxConcurrent, current, observedMax int64
	_ = maxConcurrent
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(uid int32) {
			defer wg.Done()
			tok := srv.Authority().Issue(token.Write, "/d/f.bin")
			srv.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: "/d/f.bin", Token: tok, UID: uid})
			resp, err := srv.Upcall(upcall.Request{Op: upcall.OpWriteOpen, Path: "/d/f.bin", UID: uid, Write: true})
			if err != nil || !resp.OK {
				t.Errorf("write open uid %d: %+v %v", uid, resp, err)
				return
			}
			c := atomic.AddInt64(&current, 1)
			for {
				old := atomic.LoadInt64(&observedMax)
				if c <= old || atomic.CompareAndSwapInt64(&observedMax, old, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt64(&current, -1)
			closeFile(t, srv, phys, "/d/f.bin", resp.OpenID)
		}(int32(200 + i))
	}
	wg.Wait()
	if observedMax != 1 {
		t.Fatalf("write-write serialization violated: %d writers concurrent", observedMax)
	}
}

func TestSyncEntriesReflectOpens(t *testing.T) {
	srv, phys := newWaitServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rdd")
	tok := srv.Authority().Issue(token.Read, "/d/f.bin")
	srv.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: "/d/f.bin", Token: tok, UID: 1})
	r1, _ := srv.Upcall(upcall.Request{Op: upcall.OpReadOpen, Path: "/d/f.bin", UID: 1})
	r2, _ := srv.Upcall(upcall.Request{Op: upcall.OpReadOpen, Path: "/d/f.bin", UID: 1})
	readers, writer := srv.SyncEntries("/d/f.bin")
	if readers != 2 || writer {
		t.Fatalf("sync = %d readers, writer=%v", readers, writer)
	}
	srv.Upcall(upcall.Request{Op: upcall.OpClose, OpenID: r1.OpenID})
	srv.Upcall(upcall.Request{Op: upcall.OpClose, OpenID: r2.OpenID})
	readers, writer = srv.SyncEntries("/d/f.bin")
	if readers != 0 || writer {
		t.Fatalf("sync after closes = %d, %v", readers, writer)
	}
	_ = phys
}

// A refused read open of a partial-control file creates no Sync entry: one
// per distinct path read that way would otherwise stay in the shard maps.
func TestRefusedPartialControlReadLeavesNoSyncEntry(t *testing.T) {
	srv, _, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	resp, err := srv.Upcall(upcall.Request{Op: upcall.OpReadOpen, Path: "/d/f.bin", UID: 1})
	if err != nil || resp.OK || resp.Code != upcall.CodePermission {
		t.Fatalf("non-strict rfd read_open = %+v, %v; want CodePermission", resp, err)
	}
	n := 0
	for i := range srv.openShards {
		sh := &srv.openShards[i]
		sh.mu.Lock()
		n += len(sh.syncs)
		sh.mu.Unlock()
	}
	if n != 0 || srv.OpenCount() != 0 {
		t.Fatalf("refused read left %d Sync entries and %d opens, want none", n, srv.OpenCount())
	}
}
