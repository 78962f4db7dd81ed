package vfs

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"datalinks/internal/fs"
)

var alice = fs.Cred{UID: 100}
var bob = fs.Cred{UID: 101}

func newLFS(t *testing.T) (*LFS, *fs.FS) {
	t.Helper()
	phys := fs.New()
	if err := phys.MkdirAll("/data", fs.Cred{UID: fs.Root}, 0o777); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	return NewLFS(NewPassthrough(phys)), phys
}

func TestOpenReadClose(t *testing.T) {
	lfs, phys := newLFS(t)
	phys.WriteFile("/data/f", []byte("hello"))

	fd, err := lfs.Open(alice, "/data/f", fs.AccessRead)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	buf := make([]byte, 3)
	n, err := lfs.Read(fd, buf)
	if err != nil || string(buf[:n]) != "hel" {
		t.Fatalf("read 1 = %q, %v", buf[:n], err)
	}
	n, err = lfs.Read(fd, buf)
	if err != nil || string(buf[:n]) != "lo" {
		t.Fatalf("read 2 = %q, %v", buf[:n], err)
	}
	n, err = lfs.Read(fd, buf)
	if err != nil || n != 0 {
		t.Fatalf("read at EOF = %d, %v", n, err)
	}
	if err := lfs.Close(fd); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := lfs.Close(fd); !errors.Is(err, ErrBadFD) {
		t.Fatalf("double close = %v", err)
	}
	if lfs.OpenCount() != 0 {
		t.Fatalf("descriptor leak: %d", lfs.OpenCount())
	}
}

func TestWriteViaDescriptor(t *testing.T) {
	lfs, phys := newLFS(t)
	fd, err := lfs.Create(alice, "/data/new", 0o644)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := lfs.Write(fd, []byte("abc")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := lfs.Write(fd, []byte("def")); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	lfs.Close(fd)
	data, _ := phys.ReadFile("/data/new")
	if string(data) != "abcdef" {
		t.Fatalf("file content = %q", data)
	}
}

func TestModeEnforcementAtDescriptor(t *testing.T) {
	lfs, phys := newLFS(t)
	phys.WriteFile("/data/f", []byte("x"))
	fd, err := lfs.Open(alice, "/data/f", fs.AccessRead)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := lfs.Write(fd, []byte("y")); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("write on read fd = %v", err)
	}
	lfs.Close(fd)
}

func TestOpenFailureReleasesFD(t *testing.T) {
	lfs, phys := newLFS(t)
	n, _ := phys.Create("/data/private", bob, 0o600)
	_ = n
	if _, err := lfs.Open(alice, "/data/private", fs.AccessRead); err == nil {
		t.Fatal("open of other's 0600 file should fail")
	}
	if lfs.OpenCount() != 0 {
		t.Fatalf("failed open leaked a descriptor: %d", lfs.OpenCount())
	}
}

func TestOpenMissingFile(t *testing.T) {
	lfs, _ := newLFS(t)
	if _, err := lfs.Open(alice, "/data/nope", fs.AccessRead); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open missing = %v", err)
	}
}

func TestReadAllAndSeek(t *testing.T) {
	lfs, phys := newLFS(t)
	content := make([]byte, 200_000)
	for i := range content {
		content[i] = byte(i % 251)
	}
	phys.WriteFile("/data/big", content)
	fd, _ := lfs.Open(alice, "/data/big", fs.AccessRead)
	got, err := lfs.ReadAll(fd)
	if err != nil || len(got) != len(content) {
		t.Fatalf("readall = %d bytes, %v", len(got), err)
	}
	for i := range got {
		if got[i] != content[i] {
			t.Fatalf("content mismatch at %d", i)
		}
	}
	if err := lfs.Seek(fd, 10); err != nil {
		t.Fatalf("seek: %v", err)
	}
	buf := make([]byte, 1)
	lfs.Read(fd, buf)
	if buf[0] != content[10] {
		t.Fatalf("post-seek read = %d, want %d", buf[0], content[10])
	}
	lfs.Close(fd)
}

func TestStatRemoveRenameForwarding(t *testing.T) {
	lfs, phys := newLFS(t)
	phys.WriteFile("/data/f", []byte("12345"))
	fd, _ := lfs.Open(alice, "/data/f", fs.AccessRead)
	attr, err := lfs.Stat(fd)
	if err != nil || attr.Size != 5 {
		t.Fatalf("stat = %+v, %v", attr, err)
	}
	lfs.Close(fd)

	if err := lfs.Rename(fs.Cred{UID: fs.Root}, "/data/f", "/data/g"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	names, err := lfs.Readdir(alice, "/data")
	if err != nil || len(names) != 1 || names[0] != "g" {
		t.Fatalf("readdir = %v, %v", names, err)
	}
	if err := lfs.Remove(fs.Cred{UID: fs.Root}, "/data/g"); err != nil {
		t.Fatalf("remove: %v", err)
	}
}

func TestLockctlThroughVFS(t *testing.T) {
	lfs, phys := newLFS(t)
	phys.WriteFile("/data/f", []byte("x"))
	node, err := lfs.Mounted().FsLookup(context.Background(), alice, "/data/f")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if err := lfs.Mounted().FsLockctl(node, "o1", fs.LockExclusive, false); err != nil {
		t.Fatalf("lock: %v", err)
	}
	if err := lfs.Mounted().FsLockctl(node, "o2", fs.LockExclusive, false); !errors.Is(err, fs.ErrLocked) {
		t.Fatalf("second lock = %v", err)
	}
	if err := lfs.Mounted().FsLockctl(node, "o1", fs.LockUnlock, false); err != nil {
		t.Fatalf("unlock: %v", err)
	}
}

// growingFS grows /data/big by extra bytes right after its first stat, so a
// ReadAll sized from that stat finds more than it allocated for.
type growingFS struct {
	*Passthrough
	phys  *fs.FS
	extra []byte
	grew  bool
}

func (g *growingFS) FsGetattr(node Node) (fs.Attr, error) {
	attr, err := g.Passthrough.FsGetattr(node)
	if !g.grew {
		g.grew = true
		n, _ := g.phys.Lookup("/data/big")
		g.phys.WriteAt(n, attr.Size, g.extra)
	}
	return attr, err
}

// TestReadAllFollowsAGrowingFile: a file that grows between the stat that
// sizes ReadAll's buffer and the read is read whole, to its new end.
func TestReadAllFollowsAGrowingFile(t *testing.T) {
	phys := fs.New()
	if err := phys.MkdirAll("/data", fs.Cred{UID: fs.Root}, 0o777); err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 256<<10)
	for i := range content {
		content[i] = byte(i % 251)
	}
	extra := []byte("appended after the stat")
	if err := phys.WriteFile("/data/big", content); err != nil {
		t.Fatal(err)
	}
	lfs := NewLFS(&growingFS{Passthrough: NewPassthrough(phys), phys: phys, extra: extra})
	fd, err := lfs.Open(alice, "/data/big", fs.AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	defer lfs.Close(fd)
	got, err := lfs.ReadAll(fd)
	if want := append(content, extra...); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("readall = %d bytes, %v; want the %d the file grew to", len(got), err, len(want))
	}
}
