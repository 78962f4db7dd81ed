package dlfm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"datalinks/internal/extent"
	"datalinks/internal/fs"
	"datalinks/internal/metrics"
)

// randomContent is n bytes of seeded noise, so no two chunks dedup.
func randomContent(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestColdStartFirstReadLoadsOneChunk: a cold start installs a committed
// file without reading it, and a 16 KiB read loads the one chunk it falls
// in — not the file — while a read of the tail loads only the tail.
func TestColdStartFirstReadLoadsOneChunk(t *testing.T) {
	root := t.TempDir()
	repoDir, archDir := root+"/repo", root+"/archive"
	const path = "/d/big.bin"
	want := randomContent(17, 8*extent.ChunkSize+5000)

	phys1 := fs.New()
	phys1.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	cfg, arch1 := coldConfig(t, phys1, repoDir, archDir)
	srv, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedFile(t, phys1, path, "v0")
	linkCommitted(t, srv, path, "rfd")
	commitVersion(t, srv, phys1, path, want)
	srv.Kill()
	arch1.Close()

	phys2 := fs.New()
	cfg2, arch2 := coldConfig(t, phys2, repoDir, archDir)
	defer arch2.Close()
	srv2, _, err := Open(cfg2)
	if err != nil {
		t.Fatalf("cold open: %v", err)
	}
	defer srv2.Close()
	ino, err := phys2.Lookup(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16<<10)
	off := int64(3*extent.ChunkSize + 1000)
	if n, err := phys2.ReadAt(ino, off, buf); err != nil || n != len(buf) || !bytes.Equal(buf, want[off:off+int64(n)]) {
		t.Fatalf("first read: %d bytes, %v", n, err)
	}
	if n := phys2.Stats.DeferredLoads.Load(); n != 1 {
		t.Fatalf("the first 16 KiB read loaded %d chunks, want 1", n)
	}
	off = int64(len(want) - 100)
	if n, err := phys2.ReadAt(ino, off, buf); err != nil || n != 100 || !bytes.Equal(buf[:n], want[off:]) {
		t.Fatalf("tail read: %d bytes, %v", n, err)
	}
	if n := phys2.Stats.DeferredLoads.Load(); n != 2 {
		t.Fatalf("after a read of the tail %d loads, want 2", n)
	}
	if got := phys2.ResidentBytes(); got != extent.ChunkSize {
		t.Fatalf("resident bytes %d, want the one chunk", got)
	}
}

// TestReadersFaultInWhileACommitterPagesOut: under a budget of two chunks,
// readers of committed files fault their chunks back in while a committer's
// closes page them out again — each page-out try-locks the readers' inodes —
// and every read returns the committed bytes. Run it with -race.
func TestReadersFaultInWhileACommitterPagesOut(t *testing.T) {
	srv, phys, _ := newServer(t)
	reg := metrics.NewRegistry()
	phys.SetMemoryBudget(2*extent.ChunkSize, reg)
	const readers = 4
	contents := make([][]byte, readers)
	for i := range contents {
		p := fmt.Sprintf("/d/r%d.bin", i)
		contents[i] = randomContent(int64(i), 4*extent.ChunkSize+300)
		seedFile(t, phys, p, "seed")
		linkCommitted(t, srv, p, "rfd")
		commitVersion(t, srv, phys, p, contents[i])
	}
	seedFile(t, phys, "/d/w.bin", "seed")
	linkCommitted(t, srv, "/d/w.bin", "rfd")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ino, err := phys.Lookup(fmt.Sprintf("/d/r%d.bin", i))
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(int64(100 + i)))
			buf := make([]byte, 16<<10)
			for {
				select {
				case <-stop:
					return
				default:
				}
				off := rng.Int63n(int64(len(contents[i])))
				n, err := phys.ReadAt(ino, off, buf)
				if err != nil || !bytes.Equal(buf[:n], contents[i][off:off+int64(n)]) {
					t.Errorf("reader %d at %d: %d bytes, %v", i, off, n, err)
					return
				}
				reads.Add(1)
			}
		}(i)
	}
	for v := 0; v < 20; v++ {
		commitVersion(t, srv, phys, "/d/w.bin", randomContent(int64(1000+v), 3*extent.ChunkSize))
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 || reg.Counter("fs.pageouts").Value() == 0 || reg.Counter("fs.faultins").Value() == 0 {
		t.Fatalf("%d reads, %d page-outs, %d fault-ins: the test did not page", reads.Load(),
			reg.Counter("fs.pageouts").Value(), reg.Counter("fs.faultins").Value())
	}
}
