package fs

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var alice = Cred{UID: 100}
var bob = Cred{UID: 101}
var root = Cred{UID: Root}

func newFS(t *testing.T) *FS {
	t.Helper()
	f := New()
	if err := f.MkdirAll("/data", root, 0o777); err != nil {
		t.Fatalf("mkdir /data: %v", err)
	}
	return f
}

func TestCreateLookupReadWrite(t *testing.T) {
	f := newFS(t)
	n, err := f.Create("/data/a.txt", alice, 0o644)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := f.WriteAt(n, 0, []byte("hello world")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := f.Lookup("/data/a.txt")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if got.Ino() != n.Ino() {
		t.Fatalf("lookup found different inode")
	}
	buf := make([]byte, 64)
	c, err := f.ReadAt(got, 0, buf)
	if err != nil || string(buf[:c]) != "hello world" {
		t.Fatalf("read = %q, %v", buf[:c], err)
	}
}

func TestReadAtOffsets(t *testing.T) {
	f := newFS(t)
	n, _ := f.Create("/data/a", alice, 0o644)
	f.WriteAt(n, 0, []byte("0123456789"))
	buf := make([]byte, 4)
	c, err := f.ReadAt(n, 3, buf)
	if err != nil || string(buf[:c]) != "3456" {
		t.Fatalf("offset read = %q, %v", buf[:c], err)
	}
	c, err = f.ReadAt(n, 10, buf)
	if err != nil || c != 0 {
		t.Fatalf("read at EOF = %d, %v; want 0, nil", c, err)
	}
	if _, err := f.ReadAt(n, -1, buf); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative offset: %v", err)
	}
}

func TestSparseWriteExtends(t *testing.T) {
	f := newFS(t)
	n, _ := f.Create("/data/a", alice, 0o644)
	f.WriteAt(n, 5, []byte("xy"))
	attr, _ := f.Getattr(n)
	if attr.Size != 7 {
		t.Fatalf("size = %d, want 7", attr.Size)
	}
	data, _ := f.ReadFile("/data/a")
	if string(data[:5]) != "\x00\x00\x00\x00\x00" || string(data[5:]) != "xy" {
		t.Fatalf("sparse content wrong: %q", data)
	}
}

func TestTruncate(t *testing.T) {
	f := newFS(t)
	n, _ := f.Create("/data/a", alice, 0o644)
	f.WriteAt(n, 0, []byte("0123456789"))
	if err := f.Truncate(n, 4); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	data, _ := f.ReadFile("/data/a")
	if string(data) != "0123" {
		t.Fatalf("after shrink: %q", data)
	}
	if err := f.Truncate(n, 6); err != nil {
		t.Fatalf("grow: %v", err)
	}
	data, _ = f.ReadFile("/data/a")
	if string(data) != "0123\x00\x00" {
		t.Fatalf("after grow: %q", data)
	}
	if err := f.Truncate(n, -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative truncate: %v", err)
	}
}

func TestPermissionChecks(t *testing.T) {
	f := newFS(t)
	n, _ := f.Create("/data/secret", alice, 0o600)

	if err := f.OpenCheck(n, alice, ReadWrite); err != nil {
		t.Fatalf("owner open: %v", err)
	}
	if err := f.OpenCheck(n, bob, AccessRead); !errors.Is(err, ErrPermission) {
		t.Fatalf("other read of 0600 = %v, want ErrPermission", err)
	}
	if err := f.OpenCheck(n, root, ReadWrite); err != nil {
		t.Fatalf("root bypass: %v", err)
	}

	// 0444: everyone reads, nobody writes (the rfb/rfd link state).
	f.Chmod(n, alice, 0o444)
	if err := f.OpenCheck(n, bob, AccessRead); err != nil {
		t.Fatalf("other read of 0444: %v", err)
	}
	if err := f.OpenCheck(n, alice, AccessWrite); !errors.Is(err, ErrPermission) {
		t.Fatalf("owner write of 0444 = %v, want ErrPermission", err)
	}
}

func TestChownTakeover(t *testing.T) {
	f := newFS(t)
	n, _ := f.Create("/data/f", alice, 0o644)
	// Non-owner cannot chown.
	if err := f.Chown(n, bob, bob.UID); !errors.Is(err, ErrPermission) {
		t.Fatalf("bob chown = %v", err)
	}
	// Root takes over (the DLFM takeover in §4).
	if err := f.Chown(n, root, 900); err != nil {
		t.Fatalf("root chown: %v", err)
	}
	if err := f.Chmod(n, Cred{UID: 900}, 0o400); err != nil {
		t.Fatalf("new owner chmod: %v", err)
	}
	attr, _ := f.Getattr(n)
	if attr.UID != 900 || attr.Mode != 0o400 {
		t.Fatalf("attr after takeover = %+v", attr)
	}
	// Previous owner can no longer read (0400, not owner).
	if err := f.OpenCheck(n, alice, AccessRead); !errors.Is(err, ErrPermission) {
		t.Fatalf("alice read after takeover = %v", err)
	}
}

func TestRemoveAndRename(t *testing.T) {
	f := newFS(t)
	f.Create("/data/a", alice, 0o644)
	if err := f.Rename("/data/a", "/data/b", alice); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if _, err := f.Lookup("/data/a"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("old name still resolves: %v", err)
	}
	if _, err := f.Lookup("/data/b"); err != nil {
		t.Fatalf("new name missing: %v", err)
	}
	if err := f.Remove("/data/b", alice); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := f.Remove("/data/b", alice); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double remove = %v", err)
	}
}

func TestRenameReplacesTarget(t *testing.T) {
	f := newFS(t)
	f.WriteFile("/data/src", []byte("new"))
	f.WriteFile("/data/dst", []byte("old"))
	if err := f.Rename("/data/src", "/data/dst", root); err != nil {
		t.Fatalf("rename-over: %v", err)
	}
	data, _ := f.ReadFile("/data/dst")
	if string(data) != "new" {
		t.Fatalf("dst = %q, want new", data)
	}
}

func TestDirectoryOps(t *testing.T) {
	f := newFS(t)
	if err := f.MkdirAll("/a/b/c", root, 0o755); err != nil {
		t.Fatalf("mkdirall: %v", err)
	}
	f.WriteFile("/a/b/c/one", []byte("1"))
	f.WriteFile("/a/b/c/two", []byte("2"))
	names, err := f.ReadDir("/a/b/c")
	if err != nil || len(names) != 2 || names[0] != "one" || names[1] != "two" {
		t.Fatalf("readdir = %v, %v", names, err)
	}
	if err := f.Rmdir("/a/b/c", root); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rmdir non-empty = %v", err)
	}
	f.Remove("/a/b/c/one", root)
	f.Remove("/a/b/c/two", root)
	if err := f.Rmdir("/a/b/c", root); err != nil {
		t.Fatalf("rmdir: %v", err)
	}
}

func TestMtimeAdvancesOnWrite(t *testing.T) {
	now := time.Unix(1000, 0)
	f := NewWithClock(func() time.Time {
		now = now.Add(time.Second)
		return now
	})
	f.MkdirAll("/d", root, 0o777)
	n, _ := f.Create("/d/f", alice, 0o644)
	a1, _ := f.Getattr(n)
	f.WriteAt(n, 0, []byte("x"))
	a2, _ := f.Getattr(n)
	if !a2.Mtime.After(a1.Mtime) {
		t.Fatalf("mtime did not advance: %v -> %v", a1.Mtime, a2.Mtime)
	}
}

func TestLockctlSharedExclusive(t *testing.T) {
	f := newFS(t)
	n, _ := f.Create("/data/f", alice, 0o644)

	if err := f.TryLockctl(n, "r1", LockShared); err != nil {
		t.Fatalf("r1 shared: %v", err)
	}
	if err := f.TryLockctl(n, "r2", LockShared); err != nil {
		t.Fatalf("r2 shared: %v", err)
	}
	if err := f.TryLockctl(n, "w1", LockExclusive); !errors.Is(err, ErrLocked) {
		t.Fatalf("exclusive over shared = %v", err)
	}
	f.TryLockctl(n, "r1", LockUnlock)
	f.TryLockctl(n, "r2", LockUnlock)
	if err := f.TryLockctl(n, "w1", LockExclusive); err != nil {
		t.Fatalf("exclusive after unlocks: %v", err)
	}
	if err := f.TryLockctl(n, "r3", LockShared); !errors.Is(err, ErrLocked) {
		t.Fatalf("shared over exclusive = %v", err)
	}
	writer, readers := f.LockState(n)
	if writer != "w1" || len(readers) != 0 {
		t.Fatalf("lock state = %q, %v", writer, readers)
	}
}

func TestLockctlBlockingHandoff(t *testing.T) {
	f := newFS(t)
	n, _ := f.Create("/data/f", alice, 0o644)
	f.TryLockctl(n, "w1", LockExclusive)

	acquired := make(chan struct{})
	go func() {
		f.Lockctl(n, "w2", LockExclusive) // blocks until w1 unlocks
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("w2 acquired while w1 held the lock")
	case <-time.After(20 * time.Millisecond):
	}
	f.TryLockctl(n, "w1", LockUnlock)
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("w2 never acquired after unlock")
	}
}

func TestClearAllLocksWakesWaiters(t *testing.T) {
	f := newFS(t)
	n, _ := f.Create("/data/f", alice, 0o644)
	f.TryLockctl(n, "dead-process", LockExclusive)

	acquired := make(chan error, 1)
	go func() {
		acquired <- f.Lockctl(n, "survivor", LockExclusive)
	}()
	select {
	case <-acquired:
		t.Fatal("acquired while dead-process held the lock")
	case <-time.After(20 * time.Millisecond):
	}
	// The reboot clears kernel lock state.
	f.ClearAllLocks()
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("survivor acquire: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not woken by ClearAllLocks")
	}
	writer, readers := f.LockState(n)
	if writer != "survivor" || len(readers) != 0 {
		t.Fatalf("state = %q %v", writer, readers)
	}
}

func TestConcurrentWritersDistinctFiles(t *testing.T) {
	f := newFS(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := "/data/file" + string(rune('a'+i))
			n, err := f.Create(p, alice, 0o644)
			if err != nil {
				t.Errorf("create %s: %v", p, err)
				return
			}
			for j := 0; j < 50; j++ {
				if _, err := f.WriteAt(n, int64(j), []byte{byte(j)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestWalk(t *testing.T) {
	f := newFS(t)
	f.MkdirAll("/data/sub", root, 0o777)
	f.WriteFile("/data/a", []byte("1"))
	f.WriteFile("/data/sub/b", []byte("22"))
	var paths []string
	f.Walk("/", func(p string, a Attr) { paths = append(paths, p) })
	if len(paths) != 2 || paths[0] != "/data/a" || paths[1] != "/data/sub/b" {
		t.Fatalf("walk = %v", paths)
	}
}

// Property: WriteAt then ReadAt round-trips arbitrary content at arbitrary
// (small) offsets.
func TestWriteReadRoundTripProperty(t *testing.T) {
	f := newFS(t)
	n, _ := f.Create("/data/prop", alice, 0o644)
	prop := func(off uint16, data []byte) bool {
		o := int64(off % 4096)
		if _, err := f.WriteAt(n, o, data); err != nil {
			return false
		}
		buf := make([]byte, len(data))
		c, err := f.ReadAt(n, o, buf)
		if err != nil {
			return false
		}
		return c == len(data) && string(buf[:c]) == string(data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPathCleaning(t *testing.T) {
	f := newFS(t)
	f.WriteFile("/data/x", []byte("1"))
	for _, p := range []string{"/data/x", "data/x", "/data//x", "/data/./x", "/data/sub/../x"} {
		if _, err := f.Lookup(p); err != nil {
			t.Errorf("lookup %q: %v", p, err)
		}
	}
	if _, err := f.Lookup(""); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty path: %v", err)
	}
}

// mkdirEachPrefix is how MkdirAll worked before it resolved the existing
// part of a path: a Mkdir of every prefix in turn, ErrExist ignored. It is
// the oracle for what MkdirAll returns and makes.
func mkdirEachPrefix(f *FS, p string, cred Cred, mode FileMode) error {
	p, err := clean(p)
	if err != nil || p == "/" {
		return err
	}
	cur := ""
	for _, part := range strings.Split(p[1:], "/") {
		cur += "/" + part
		if _, err := f.Mkdir(cur, cred, mode); err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// TestMkdirAllReturnsWhatEachMkdirWould: over a tree with a file, a
// directory anyone may write and one only root may, MkdirAll gives
// every path and caller the error, and leaves the tree, that a Mkdir of each
// prefix gives — an existing path included, which it resolves rather than
// makes.
func TestMkdirAllReturnsWhatEachMkdirWould(t *testing.T) {
	build := func() *FS {
		f := New()
		for _, d := range []string{"/pub", "/locked/in"} {
			if err := f.MkdirAll(d, root, 0o777); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.Create("/pub/file", root, 0o644); err != nil {
			t.Fatal(err)
		}
		locked, _ := f.Lookup("/locked")
		if err := f.Chmod(locked, root, 0o755); err != nil {
			t.Fatal(err)
		}
		return f
	}
	paths := []string{"/", "pub", "/pub", "/pub/", "/pub/a/b", "/pub/./a/../c", "/pub/file", "/pub/file/x",
		"/locked", "/locked/in", "/locked/in/x", "/locked/new", "/new/deep/er", ""}
	for _, cred := range []Cred{root, alice, bob} {
		for _, p := range paths {
			got, want := build(), build()
			gotErr, wantErr := got.MkdirAll(p, cred, 0o755), mkdirEachPrefix(want, p, cred, 0o755)
			if gotErr != wantErr {
				t.Errorf("uid %d, MkdirAll(%q) = %v, a Mkdir of each prefix %v", cred.UID, p, gotErr, wantErr)
			}
			for _, q := range []string{"/pub/a/b", "/pub/c", "/locked/in/x", "/locked/new", "/new/deep/er"} {
				_, gerr := got.Lookup(q)
				_, werr := want.Lookup(q)
				if gerr != werr {
					t.Errorf("uid %d, after MkdirAll(%q): %s is %v, %v after a Mkdir of each prefix", cred.UID, p, q, gerr, werr)
				}
			}
		}
	}
}
