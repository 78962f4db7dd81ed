package fs

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datalinks/internal/extent"
	"datalinks/internal/metrics"
)

// countingSource is a chunk source that counts what the file system asks of
// it. Its first failLoads loads fail.
type countingSource struct {
	content      []byte
	failLoads    atomic.Int32
	slotLoads    atomic.Int32
	tailLoads    atomic.Int32
	refs         atomic.Int32
	released     atomic.Int32 // last releases seen
	overReleased atomic.Int32
}

func newCounting(n int) *countingSource {
	content := make([]byte, n)
	for i := range content {
		content[i] = byte(i*7 + i/251)
	}
	return newSource(content)
}

func newSource(content []byte) *countingSource {
	d := &countingSource{content: content}
	d.refs.Store(1)
	return d
}

func (d *countingSource) Size() int64 { return int64(len(d.content)) }

func (d *countingSource) fail() error {
	if d.failLoads.Add(-1) >= 0 {
		return errors.New("archive device unreachable")
	}
	return nil
}

func (d *countingSource) ReadSlot(i int, dst []byte) error {
	d.slotLoads.Add(1)
	if err := d.fail(); err != nil {
		return err
	}
	copy(dst, d.content[i*extent.ChunkSize:])
	return nil
}

func (d *countingSource) ReadTail(dst []byte) error {
	d.tailLoads.Add(1)
	if err := d.fail(); err != nil {
		return err
	}
	copy(dst, d.content[len(d.content)-len(dst):])
	return nil
}

func (d *countingSource) Retain() { d.refs.Add(1) }

func (d *countingSource) Release() {
	switch n := d.refs.Add(-1); {
	case n == 0:
		d.released.Add(1)
	case n < 0:
		d.overReleased.Add(1)
	}
}

// counts fails the test unless the source loaded slots and its tail as often
// as wanted, and was given up by its last sharer (released) or not.
func (d *countingSource) counts(t *testing.T, slots, tails int32, released bool) {
	t.Helper()
	s, tl := d.slotLoads.Load(), d.tailLoads.Load()
	gone := d.released.Load() == 1
	if s != slots || tl != tails || gone != released || d.overReleased.Load() != 0 || d.released.Load() > 1 {
		t.Fatalf("slot loads=%d tail loads=%d released=%v (over-released %d); want %d, %d and %v",
			s, tl, gone, d.overReleased.Load(), slots, tails, released)
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

// deferredFile installs 100 KiB of counted content at /data/f — one whole
// chunk and a tail.
func deferredFile(t *testing.T, f *FS) (*Inode, *countingSource) {
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
	d.counts(t, 0, 0, false)
	if got := f.Stats.DeferredLoads.Load(); got != 0 {
		t.Fatalf("DeferredLoads = %d before any read", got)
	}
	got, err := f.ReadFile("/data/f")
	if err != nil || !bytes.Equal(got, d.content) {
		t.Fatalf("read = %d bytes, %v", len(got), err)
	}
	// The chunk and the tail, once each; the file keeps its source.
	d.counts(t, 1, 1, false)
	if got := f.Stats.DeferredLoads.Load(); got != 2 {
		t.Fatalf("DeferredLoads = %d after loading a chunk and a tail", got)
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
	// 16 readers over the chunk and the tail load each once.
	d.counts(t, 1, 1, false)
}

func TestDeferredWholeReplaceReleasesUnread(t *testing.T) {
	replace := map[string]func(f *FS, n *Inode) error{
		"Truncate0": func(f *FS, n *Inode) error { return f.Truncate(n, 0) },
		"WriteFile": func(f *FS, _ *Inode) error { return f.WriteFile("/data/f", []byte("new")) },
		"WriteFileDeferred": func(f *FS, _ *Inode) error {
			return f.WriteFileDeferred("/data/f", newSource([]byte("new")))
		},
	}
	for name, fn := range replace {
		t.Run(name, func(t *testing.T) {
			f := New()
			n, d := deferredFile(t, f)
			if err := fn(f, n); err != nil {
				t.Fatal(err)
			}
			d.counts(t, 0, 0, true)
			got, err := f.ReadFile("/data/f")
			want := "new"
			if name == "Truncate0" {
				want = ""
			}
			if err != nil || string(got) != want {
				t.Fatalf("after replace read %q, %v; want %q", got, err, want)
			}
			d.counts(t, 0, 0, true)
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
	d.counts(t, 1, 0, false)
	if attr, _ := f.Getattr(n); attr.Size != d.Size() {
		t.Fatalf("size after a failed load = %d, want %d", attr.Size, d.Size())
	}
	// A write must not land on empty bytes either.
	d.failLoads.Store(1)
	if _, err := f.WriteAt(n, 0, []byte("x")); !errors.Is(err, ErrIO) {
		t.Fatalf("write over a failing load = %v, want ErrIO", err)
	}
	d.counts(t, 2, 0, false)
	// The next access retries and sees the content.
	c, err := f.ReadAt(n, 0, buf)
	if err != nil || !bytes.Equal(buf[:c], d.content[:16]) {
		t.Fatalf("retried read = %q, %v", buf[:c], err)
	}
	d.counts(t, 3, 0, false)
}

// TestDeferredContentAccessesLoad: each access loads what it needs and no
// more — a write the chunk it covers in part, a truncate the tail it cuts, a
// capture only the tail, leaving the chunk absent behind the source the
// capture shares, and a move of the content to another file nothing.
func TestDeferredContentAccessesLoad(t *testing.T) {
	access := map[string]func(f *FS, n *Inode) error{
		"WriteAt": func(f *FS, n *Inode) error { _, err := f.WriteAt(n, 10, []byte("xyz")); return err },
		"Truncate": func(f *FS, n *Inode) error {
			return f.Truncate(n, 70<<10)
		},
		"MoveContent": func(f *FS, _ *Inode) error { return f.MoveContent("/data/f", "/data/moved") },
		"CaptureFile": func(f *FS, _ *Inode) error {
			snap, err := f.CaptureFile("/data/f")
			if err == nil {
				if snap.Chunks()[0] != nil {
					t.Error("the capture loaded the absent chunk")
				}
				snap.Release()
			}
			return err
		},
	}
	loads := map[string][2]int32{"WriteAt": {1, 0}, "Truncate": {0, 1}, "MoveContent": {0, 0}, "CaptureFile": {0, 1}}
	for name, fn := range access {
		t.Run(name, func(t *testing.T) {
			f := New()
			n, d := deferredFile(t, f)
			if err := fn(f, n); err != nil {
				t.Fatal(err)
			}
			want := loads[name]
			d.counts(t, want[0], want[1], false)
			content, path := append([]byte(nil), d.content...), "/data/f"
			switch name {
			case "WriteAt":
				copy(content[10:], "xyz")
			case "Truncate":
				content = content[:70<<10]
			case "MoveContent":
				if got, err := f.ReadFile(path); err != nil || len(got) != 0 {
					t.Fatalf("the moved-from file reads %d bytes, %v; want none", len(got), err)
				}
				path = "/data/moved"
			}
			if got, err := f.ReadFile(path); err != nil || !bytes.Equal(got, content) {
				t.Fatalf("content after %s diverged (%d bytes, %v)", name, len(got), err)
			}
		})
	}
}

// TestDeferredRemoveLoadsNothing: unlinking an installed file reads none of
// it; a handle still open on it loads from the source it keeps, and a load
// that fails there is an ErrIO the next read retries.
func TestDeferredRemoveLoadsNothing(t *testing.T) {
	f := New()
	n, d := deferredFile(t, f)
	if err := f.Remove("/data/f", root); err != nil {
		t.Fatal(err)
	}
	d.counts(t, 0, 0, false)
	if f.ResidentBytes() != 0 {
		t.Fatalf("resident bytes %d after the unlink", f.ResidentBytes())
	}
	buf := make([]byte, len(d.content))
	d.failLoads.Store(1)
	if _, err := f.ReadAt(n, 0, buf); !errors.Is(err, ErrIO) {
		t.Fatalf("read through the handle over a failing load = %v, want ErrIO", err)
	}
	if c, err := f.ReadAt(n, 0, buf); err != nil || c != len(buf) || !bytes.Equal(buf, d.content) {
		t.Fatalf("read through the handle after remove: %d bytes, %v", c, err)
	}
	d.counts(t, 2, 1, false)
	// What a handle loads is not counted against the budget: the unlinked
	// file left the count with its name.
	if f.ResidentBytes() != 0 {
		t.Fatalf("resident bytes %d after reading the unlinked file", f.ResidentBytes())
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
	if f.Stats.DeferredLoads.Load() != 2 {
		t.Fatal("the read did not load the chunk and the tail")
	}
}

// TestDetachedFileReadWhileAnotherPagesOut: an unlinked file still open for
// reading shares chunks with a capture held of it, and loads its absent
// chunks from its source. Readers of it race the live file's whole-chunk
// writes, commits and page-outs, which hand chunk bytes back to extent's free
// list and take them again for the next write or fault-in, and the release of
// the capture, which drops the last reference on the chunks the unlinked file
// still reads: every read returns the bytes the file held when it was
// unlinked. Run it with -race.
func TestDetachedFileReadWhileAnotherPagesOut(t *testing.T) {
	const chunks = 6
	f := New()
	reg := metrics.NewRegistry()
	f.SetMemoryBudget(2*extent.ChunkSize, reg)
	content := newCounting(chunks*extent.ChunkSize + 300).content
	commit := func(p string) *extent.Snapshot {
		snap, err := f.CaptureFile(p)
		if err != nil {
			t.Fatal(err)
		}
		id, _ := snap.Captured()
		if err := f.SetSource(p, id, newSource(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	for _, p := range []string{"/live", "/copy"} {
		if err := f.WriteFile(p, content); err != nil {
			t.Fatal(err)
		}
	}
	live, err := f.Lookup("/live")
	if err != nil {
		t.Fatal(err)
	}
	commit("/live").Release()
	held := commit("/copy") // both files page out to the budget
	cp, err := f.Lookup("/copy")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Remove("/copy", root); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, 24<<10)
			for off := int64(r * 7000); ; off = (off + 40000) % int64(len(content)) {
				select {
				case <-stop:
					return
				default:
				}
				n, err := f.ReadAt(cp, off, buf)
				if err != nil || !bytes.Equal(buf[:n], content[off:off+int64(n)]) {
					t.Errorf("reader %d at %d: %d bytes, %v", r, off, n, err)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	buf := make([]byte, 4096)
	for v := 0; v < 40; v++ {
		if v == 5 {
			held.Release()
		}
		at := int64(v%chunks) * extent.ChunkSize
		if _, err := f.WriteAt(live, at, bytes.Repeat([]byte{byte(v)}, extent.ChunkSize)); err != nil {
			t.Fatal(err)
		}
		commit("/live").Release()
		if _, err := f.ReadAt(live, (at+3*extent.ChunkSize)%int64(len(content)), buf); err != nil {
			t.Fatal(err) // a fault-in of the live file
		}
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 || reg.Counter("fs.pageouts").Value() == 0 || reg.Counter("fs.faultins").Value() == 0 {
		t.Fatalf("%d reads, %d page-outs, %d fault-ins: the test did not page", reads.Load(),
			reg.Counter("fs.pageouts").Value(), reg.Counter("fs.faultins").Value())
	}
}

// TestMoveContentWhileReadAndPagedOut: moving a paged-out file's content to
// a new file, as a rollback quarantines it, reads nothing and retains no
// chunk, while readers of both files and the pager run. The moved file reads
// back the bytes the original held, dirty chunk included, and pages its clean
// chunks out like any file; the original, installed from another version
// into the same inode, reads that version. Run it with -race.
func TestMoveContentWhileReadAndPagedOut(t *testing.T) {
	const chunks = 8
	f := New()
	reg := metrics.NewRegistry()
	f.SetMemoryBudget(2*extent.ChunkSize, reg)
	baseC, _ := extent.Live()
	committed := newCounting(chunks*extent.ChunkSize + 300).content
	restored := bytes.Repeat([]byte{0x5a}, 3*extent.ChunkSize+7)
	if err := f.WriteFile("/f", committed); err != nil {
		t.Fatal(err)
	}
	snap, err := f.CaptureFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	id, _ := snap.Captured()
	src := newSource(snap.Bytes())
	snap.Release()
	if err := f.SetSource("/f", id, src); err != nil {
		t.Fatal(err)
	}
	n, err := f.Lookup("/f")
	if err != nil {
		t.Fatal(err)
	}
	inflight := append([]byte(nil), committed...)
	edit := bytes.Repeat([]byte{0xee}, 100)
	copy(inflight[2*extent.ChunkSize+10:], edit)
	if _, err := f.WriteAt(n, 2*extent.ChunkSize+10, edit); err != nil {
		t.Fatal(err)
	}

	// Readers of the original see the in-flight bytes, an empty file or the
	// installed version, whole; readers of the moved file, once it exists,
	// the in-flight bytes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(read func() ([]byte, error), wants ...[]byte) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := read()
			if errors.Is(err, ErrNotExist) {
				continue
			}
			ok := err == nil && slices.ContainsFunc(wants, func(w []byte) bool { return bytes.Equal(got, w) })
			if !ok {
				t.Errorf("read %d bytes (%v), not one of the contents the file may hold", len(got), err)
				return
			}
		}
	}
	wg.Add(2)
	go reader(func() ([]byte, error) { return f.ReadFile("/f") }, inflight, nil, restored)
	go reader(func() ([]byte, error) { return f.ReadFile("/q") }, inflight)

	if err := f.MoveContent("/f", "/q"); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFileDeferred("/f", newSource(restored)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := f.ReadFile("/q"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if got, err := f.ReadFile("/q"); err != nil || !bytes.Equal(got, inflight) {
		t.Fatalf("the moved file reads %d bytes (%v), not the in-flight content", len(got), err)
	}
	if got, err := f.ReadFile("/f"); err != nil || !bytes.Equal(got, restored) {
		t.Fatalf("the original reads %d bytes (%v), not the installed version", len(got), err)
	}
	if m, _ := f.Lookup("/f"); m != n {
		t.Fatal("the install made a new inode")
	}
	// Only the dirty chunk stays resident past the budget.
	if r := f.ResidentBytes(); r > 2*extent.ChunkSize+extent.ChunkSize {
		t.Fatalf("%d resident bytes after reading the moved file back, over the budget and its dirty chunk", r)
	}
	if reg.Counter("fs.pageouts").Value() == 0 {
		t.Fatal("nothing paged out")
	}
	// A chunk the move retained would outlive both files.
	for _, p := range []string{"/f", "/q"} {
		if err := f.Remove(p, root); err != nil {
			t.Fatal(err)
		}
	}
	if endC, _ := extent.Live(); endC != baseC {
		t.Fatalf("%d chunks outlive both files", endC-baseC)
	}
}
