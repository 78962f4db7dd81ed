package fs

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datalinks/internal/extent"
)

// countingDeferred is deferred content that counts what the file system
// asks of it. Its first failLoads loads fail.
type countingDeferred struct {
	content   []byte
	failLoads atomic.Int32
	loads     atomic.Int32
	releases  atomic.Int32
}

func newCounting(n int) *countingDeferred {
	content := make([]byte, n)
	for i := range content {
		content[i] = byte(i*7 + i/251)
	}
	return &countingDeferred{content: content}
}

func (d *countingDeferred) Size() int64 { return int64(len(d.content)) }

func (d *countingDeferred) Load() (*extent.Snapshot, error) {
	d.loads.Add(1)
	if d.failLoads.Add(-1) >= 0 {
		return nil, errors.New("archive device unreachable")
	}
	return extent.FromBytes(d.content), nil
}

func (d *countingDeferred) Release() { d.releases.Add(1) }

// counts fails the test unless the content was loaded and released as often
// as wanted.
func (d *countingDeferred) counts(t *testing.T, loads, releases int32) {
	t.Helper()
	if l, r := d.loads.Load(), d.releases.Load(); l != loads || r != releases {
		t.Fatalf("loads=%d releases=%d, want %d and %d", l, r, loads, releases)
	}
}

// stepClock advances a second on every reading, so any write stamps a new
// mtime.
func stepClock() Clock {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Second)
		return now
	}
}

// deferredFile installs 100 KiB of counted deferred content at /data/f — one
// whole chunk and a tail.
func deferredFile(t *testing.T, f *FS) (*Inode, *countingDeferred) {
	t.Helper()
	if err := f.MkdirAll("/data", root, 0o777); err != nil {
		t.Fatal(err)
	}
	d := newCounting(100 << 10)
	if err := f.WriteFileDeferred("/data/f", d); err != nil {
		t.Fatal(err)
	}
	n, err := f.Lookup("/data/f")
	if err != nil {
		t.Fatal(err)
	}
	return n, d
}

func TestDeferredGetattrWithoutLoad(t *testing.T) {
	f := New()
	n, d := deferredFile(t, f)
	attr, err := f.Getattr(n)
	if err != nil || attr.Size != d.Size() {
		t.Fatalf("getattr = %+v, %v; want size %d", attr, err, d.Size())
	}
	var walked int64
	if err := f.Walk("/data", func(_ string, a Attr) { walked = a.Size }); err != nil || walked != d.Size() {
		t.Fatalf("walk size = %d, %v; want %d", walked, err, d.Size())
	}
	d.counts(t, 0, 0)
	if got := f.Stats.DeferredLoads.Load(); got != 0 {
		t.Fatalf("DeferredLoads = %d before any read", got)
	}
	got, err := f.ReadFile("/data/f")
	if err != nil || !bytes.Equal(got, d.content) {
		t.Fatalf("read = %d bytes, %v", len(got), err)
	}
	d.counts(t, 1, 1)
	if got := f.Stats.DeferredLoads.Load(); got != 1 {
		t.Fatalf("DeferredLoads = %d after one load", got)
	}
}

func TestDeferredConcurrentReadersLoadOnce(t *testing.T) {
	f := New()
	n, d := deferredFile(t, f)
	const readers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			off := int64(i) * 6000
			buf := make([]byte, 4096)
			c, err := f.ReadAt(n, off, buf)
			if err != nil || !bytes.Equal(buf[:c], d.content[off:off+int64(c)]) || c != len(buf) {
				t.Errorf("reader %d: %d bytes, %v", i, c, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	d.counts(t, 1, 1)
}

func TestDeferredWholeReplaceReleasesUnread(t *testing.T) {
	replace := map[string]func(f *FS, n *Inode) error{
		"WriteSnapshot": func(f *FS, n *Inode) error {
			snap := extent.FromBytes([]byte("new"))
			defer snap.Release()
			return f.WriteSnapshot(n, snap)
		},
		"Truncate0": func(f *FS, n *Inode) error { return f.Truncate(n, 0) },
		"WriteFile": func(f *FS, _ *Inode) error { return f.WriteFile("/data/f", []byte("new")) },
		"WriteFileDeferred": func(f *FS, _ *Inode) error {
			return f.WriteFileDeferred("/data/f", &countingDeferred{content: []byte("new")})
		},
	}
	for name, fn := range replace {
		t.Run(name, func(t *testing.T) {
			f := New()
			n, d := deferredFile(t, f)
			if err := fn(f, n); err != nil {
				t.Fatal(err)
			}
			d.counts(t, 0, 1)
			got, err := f.ReadFile("/data/f")
			want := "new"
			if name == "Truncate0" {
				want = ""
			}
			if err != nil || string(got) != want {
				t.Fatalf("after replace read %q, %v; want %q", got, err, want)
			}
			d.counts(t, 0, 1)
		})
	}
}

func TestDeferredFailedLoadStaysPending(t *testing.T) {
	f := New()
	n, d := deferredFile(t, f)
	d.failLoads.Store(1)
	buf := make([]byte, 16)
	if _, err := f.ReadAt(n, 0, buf); !errors.Is(err, ErrIO) {
		t.Fatalf("read over a failing load = %v, want ErrIO", err)
	}
	d.counts(t, 1, 0)
	if attr, _ := f.Getattr(n); attr.Size != d.Size() {
		t.Fatalf("size after a failed load = %d, want %d", attr.Size, d.Size())
	}
	// A write must not land on empty bytes either.
	d.failLoads.Store(1)
	if _, err := f.WriteAt(n, 0, []byte("x")); !errors.Is(err, ErrIO) {
		t.Fatalf("write over a failing load = %v, want ErrIO", err)
	}
	d.counts(t, 2, 0)
	// The next access retries and sees the content.
	c, err := f.ReadAt(n, 0, buf)
	if err != nil || !bytes.Equal(buf[:c], d.content[:16]) {
		t.Fatalf("retried read = %q, %v", buf[:c], err)
	}
	d.counts(t, 3, 1)
}

func TestDeferredContentAccessesLoad(t *testing.T) {
	access := map[string]func(f *FS, n *Inode) error{
		"WriteAt": func(f *FS, n *Inode) error { _, err := f.WriteAt(n, 10, []byte("xyz")); return err },
		"Truncate": func(f *FS, n *Inode) error {
			return f.Truncate(n, 70<<10)
		},
		"Snapshot": func(f *FS, n *Inode) error {
			snap, err := f.Snapshot(n)
			if err == nil {
				snap.Release()
			}
			return err
		},
		"CaptureFile": func(f *FS, _ *Inode) error {
			snap, err := f.CaptureFile("/data/f")
			if err == nil {
				snap.Release()
			}
			return err
		},
	}
	for name, fn := range access {
		t.Run(name, func(t *testing.T) {
			f := New()
			n, d := deferredFile(t, f)
			if err := fn(f, n); err != nil {
				t.Fatal(err)
			}
			d.counts(t, 1, 1)
			want := append([]byte(nil), d.content...)
			switch name {
			case "WriteAt":
				copy(want[10:], "xyz")
			case "Truncate":
				want = want[:70<<10]
			}
			if got, err := f.ReadFile("/data/f"); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("content after %s diverged (%d bytes, %v)", name, len(got), err)
			}
		})
	}
}

func TestDeferredRemoveLoadsFirst(t *testing.T) {
	f := New()
	n, d := deferredFile(t, f)
	if err := f.Remove("/data/f", root); err != nil {
		t.Fatal(err)
	}
	d.counts(t, 1, 1)
	// An open handle reads the unlinked file's bytes.
	buf := make([]byte, len(d.content))
	if c, err := f.ReadAt(n, 0, buf); err != nil || c != len(buf) || !bytes.Equal(buf, d.content) {
		t.Fatalf("read through the handle after remove: %d bytes, %v", c, err)
	}

	// A failing load refuses the remove: the name stays.
	n, d = deferredFile(t, f)
	d.failLoads.Store(1)
	if err := f.Remove("/data/f", root); !errors.Is(err, ErrIO) {
		t.Fatalf("remove over a failing load = %v, want ErrIO", err)
	}
	if got, err := f.Lookup("/data/f"); err != nil || got != n {
		t.Fatalf("remove that failed unlinked the file (%v)", err)
	}
}

func TestDeferredLoadKeepsMtime(t *testing.T) {
	f := NewWithClock(stepClock())
	n, _ := deferredFile(t, f)
	before, _ := f.Getattr(n)
	if _, err := f.ReadFile("/data/f"); err != nil {
		t.Fatal(err)
	}
	after, _ := f.Getattr(n)
	if !after.Mtime.Equal(before.Mtime) {
		t.Fatalf("loading moved mtime %v -> %v", before.Mtime, after.Mtime)
	}
	if f.Stats.DeferredLoads.Load() != 1 {
		t.Fatal("the read did not load")
	}
}
