package dlfs

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"datalinks/internal/fs"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
	"datalinks/internal/vfs"
)

const dlfmUID fs.UID = 777
const user fs.UID = 100

// scriptedDLFM is a minimal upcall service with scripted behaviour so DLFS
// logic is tested in isolation from the real DLFM.
type scriptedDLFM struct {
	mu         sync.Mutex
	calls      []upcall.Request
	linked     map[string]bool // paths considered linked
	writable   map[string]bool // paths where write-open is approved
	readable   map[string]bool // full-control paths where read-open is approved
	failToken  bool
	failClose  error // when set, every close upcall fails with it
	noTakeOver bool  // approve read opens without asking for system credentials
	nextOpen   uint64
}

func newScripted() *scriptedDLFM {
	return &scriptedDLFM{
		linked:   make(map[string]bool),
		writable: make(map[string]bool),
		readable: make(map[string]bool),
	}
}

func (s *scriptedDLFM) Upcall(req upcall.Request) (upcall.Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, req)
	if req.Token != "" && s.failToken {
		return upcall.Response{Code: upcall.CodeBadToken, Err: "bad token"}, nil
	}
	switch req.Op {
	case upcall.OpValidateToken:
		return upcall.Response{OK: true}, nil
	case upcall.OpReadOpen:
		if req.Strict && !s.linked[req.Path] {
			s.nextOpen++
			return upcall.Response{OK: true, OpenID: s.nextOpen}, nil
		}
		if s.readable[req.Path] {
			s.nextOpen++
			return upcall.Response{OK: true, OpenID: s.nextOpen, TakeOver: !s.noTakeOver}, nil
		}
		if !s.linked[req.Path] {
			return upcall.Response{Code: upcall.CodeNotLinked, Err: "not linked"}, nil
		}
		return upcall.Response{Code: upcall.CodePermission, Err: "no read"}, nil
	case upcall.OpWriteOpen:
		if !s.linked[req.Path] {
			return upcall.Response{Code: upcall.CodeNotLinked, Err: "not linked"}, nil
		}
		if s.writable[req.Path] {
			s.nextOpen++
			return upcall.Response{OK: true, OpenID: s.nextOpen, TakeOver: true}, nil
		}
		return upcall.Response{Code: upcall.CodePermission, Err: "writes blocked"}, nil
	case upcall.OpClose:
		return upcall.Response{OK: true}, s.failClose
	case upcall.OpCheckRemove, upcall.OpCheckRename:
		if s.linked[req.Path] || s.linked[req.NewPath] {
			return upcall.Response{Code: upcall.CodeIntegrity, Err: "linked"}, nil
		}
		return upcall.Response{OK: true}, nil
	}
	return upcall.Response{Code: upcall.CodeInternal}, nil
}

func (s *scriptedDLFM) callsFor(op upcall.Op) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.calls {
		if c.Op == op {
			n++
		}
	}
	return n
}

func setup(t *testing.T, strict bool) (*vfs.LFS, *fs.FS, *scriptedDLFM) {
	t.Helper()
	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	svc := newScripted()
	mount := New(Config{
		Phys:    phys,
		Upcall:  upcall.NewInProc(svc, 0, nil),
		DLFMUid: dlfmUID,
		Strict:  strict,
	})
	return vfs.NewLFS(mount), phys, svc
}

func seed(t *testing.T, phys *fs.FS, path string, mode fs.FileMode, uid fs.UID) {
	t.Helper()
	if err := phys.WriteFile(path, []byte("data")); err != nil {
		t.Fatal(err)
	}
	ino, _ := phys.Lookup(path)
	phys.Chown(ino, fs.Cred{UID: fs.Root}, uid)
	phys.Chmod(ino, fs.Cred{UID: uid}, mode)
}

func TestReadOfUnmanagedFileMakesNoUpcalls(t *testing.T) {
	lfs, phys, svc := setup(t, false)
	seed(t, phys, "/d/plain", 0o644, user)
	fd, err := lfs.Open(fs.Cred{UID: user}, "/d/plain", fs.AccessRead)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	lfs.Close(fd)
	if len(svc.calls) != 0 {
		t.Fatalf("read path made %d upcalls: %+v", len(svc.calls), svc.calls)
	}
}

// A token in the name makes no upcall at lookup. It is presented at open: on
// the open upcall itself when the open goes to DLFM, and with one
// validate_token when the file system admits the open on its own.
func TestTokenPresentedAtOpenNotLookup(t *testing.T) {
	lfs, phys, svc := setup(t, false)
	seed(t, phys, "/d/f", 0o644, user)
	seed(t, phys, "/d/fc", 0o400, dlfmUID)
	svc.linked["/d/fc"] = true
	svc.readable["/d/fc"] = true
	reg := lfs.Mounted().(*DLFS).Metrics()
	alice := fs.Cred{UID: user}

	if _, err := lfs.Mounted().FsLookup(context.Background(), alice, token.Embed("/d/fc", "r:123:mac")); err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if len(svc.calls) != 0 {
		t.Fatalf("lookup made %d upcalls: %+v", len(svc.calls), svc.calls)
	}

	// Native open: the token is validated on its own, once.
	fd, err := lfs.Open(alice, token.Embed("/d/f", "r:123:mac"), fs.AccessRead)
	if err != nil {
		t.Fatalf("native open with token: %v", err)
	}
	lfs.Close(fd)
	if n := svc.callsFor(upcall.OpValidateToken); n != 1 || len(svc.calls) != 1 {
		t.Fatalf("native token open: %d validate_token of %d upcalls, want 1 of 1", n, len(svc.calls))
	}

	// Managed open: the token rides the open request; no validate_token.
	fd, err = lfs.Open(alice, token.Embed("/d/fc", "r:123:mac"), fs.AccessRead)
	if err != nil {
		t.Fatalf("managed open with token: %v", err)
	}
	lfs.Close(fd)
	if n := svc.callsFor(upcall.OpValidateToken); n != 1 {
		t.Fatalf("managed token open sent validate_token (%d total)", n)
	}
	if open := svc.calls[1]; open.Op != upcall.OpReadOpen || open.Token != "r:123:mac" || open.Path != "/d/fc" {
		t.Fatalf("open request = %+v, want read_open carrying the token", open)
	}
	if v, r := reg.Counter("dlfs.token.validated").Value(), reg.Counter("dlfs.token.rejected").Value(); v != 2 || r != 0 {
		t.Fatalf("validated=%d rejected=%d, want 2 and 0", v, r)
	}

	// An invalid token fails the open on both paths, counted once each.
	svc.failToken = true
	for _, name := range []string{"/d/f", "/d/fc"} {
		if _, err := lfs.Open(alice, token.Embed(name, "r:123:mac"), fs.AccessRead); !errors.Is(err, fs.ErrPermission) {
			t.Fatalf("bad token open of %s = %v", name, err)
		}
	}
	if v, r := reg.Counter("dlfs.token.validated").Value(), reg.Counter("dlfs.token.rejected").Value(); v != 2 || r != 2 {
		t.Fatalf("validated=%d rejected=%d, want 2 and 2", v, r)
	}
	if lfs.OpenCount() != 0 {
		t.Fatalf("%d descriptors leaked", lfs.OpenCount())
	}
}

// An approved open whose physical open then fails is abandoned with a close
// upcall. When that close fails too, the caller still sees the error that
// abandoned the open, and the leaked DLFM-side open is counted.
func TestFailedAbandonIsCountedAndKeepsTheOpenError(t *testing.T) {
	lfs, phys, svc := setup(t, false)
	// DLFM approves the read without a takeover, and the file system then
	// refuses the user: mode 0o400 gives a non-owner nothing.
	seed(t, phys, "/d/fc", 0o400, dlfmUID)
	svc.linked["/d/fc"] = true
	svc.readable["/d/fc"] = true
	svc.noTakeOver = true
	reg := lfs.Mounted().(*DLFS).Metrics()
	abandonFailed := reg.Counter("dlfs.open.abandon_failed")

	open := func() {
		t.Helper()
		_, err := lfs.Open(fs.Cred{UID: user}, "/d/fc", fs.AccessRead)
		if !errors.Is(err, fs.ErrPermission) || strings.Contains(err.Error(), "daemon gone") {
			t.Fatalf("open = %v, want the file system's permission error and nothing else", err)
		}
	}
	open()
	if n := abandonFailed.Value(); n != 0 {
		t.Fatalf("abandon_failed = %d after a close that succeeded", n)
	}
	svc.failClose = errors.New("daemon gone")
	open()
	if n := abandonFailed.Value(); n != 1 {
		t.Fatalf("abandon_failed = %d, want 1", n)
	}
	if n := svc.callsFor(upcall.OpClose); n != 2 {
		t.Fatalf("%d close upcalls, want one per abandoned open", n)
	}
}

func TestLazyWritePathOnlyUpcallsAfterEACCES(t *testing.T) {
	lfs, phys, svc := setup(t, false)
	// A writable file: native open succeeds, no upcall.
	seed(t, phys, "/d/rw", 0o644, user)
	fd, err := lfs.Open(fs.Cred{UID: user}, "/d/rw", fs.AccessWrite)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	lfs.Close(fd)
	if svc.callsFor(upcall.OpWriteOpen) != 0 {
		t.Fatal("writable file triggered an upcall")
	}
	// A read-only linked rfd file: EACCES -> upcall -> approved -> takeover.
	seed(t, phys, "/d/linked", 0o444, user)
	svc.linked["/d/linked"] = true
	svc.writable["/d/linked"] = true
	fd, err = lfs.Open(fs.Cred{UID: user}, "/d/linked", fs.AccessWrite)
	if err != nil {
		t.Fatalf("rfd write open: %v", err)
	}
	if svc.callsFor(upcall.OpWriteOpen) != 1 {
		t.Fatal("rfd write did not take the lazy upcall path")
	}
	if _, err := lfs.Write(fd, []byte("new")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := lfs.Close(fd); err != nil {
		t.Fatalf("close: %v", err)
	}
	if svc.callsFor(upcall.OpClose) == 0 {
		t.Fatal("managed close skipped the upcall")
	}
}

func TestReadOnlyUnlinkedFileKeepsNativeError(t *testing.T) {
	lfs, phys, svc := setup(t, false)
	seed(t, phys, "/d/ro", 0o444, user) // read-only but NOT linked
	_, err := lfs.Open(fs.Cred{UID: user}, "/d/ro", fs.AccessWrite)
	if !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("write to read-only unlinked = %v", err)
	}
	// DLFM was consulted once (it said not linked), and the original
	// permission error surfaced.
	if svc.callsFor(upcall.OpWriteOpen) != 1 {
		t.Fatalf("upcalls = %d", svc.callsFor(upcall.OpWriteOpen))
	}
}

func TestFullControlOpenGoesThroughDLFM(t *testing.T) {
	lfs, phys, svc := setup(t, false)
	seed(t, phys, "/d/fc", 0o400, dlfmUID) // dlfm-owned: full control
	svc.linked["/d/fc"] = true
	svc.readable["/d/fc"] = true
	fd, err := lfs.Open(fs.Cred{UID: user}, "/d/fc", fs.AccessRead)
	if err != nil {
		t.Fatalf("managed read open: %v", err)
	}
	buf := make([]byte, 4)
	if n, _ := lfs.Read(fd, buf); n != 4 {
		t.Fatalf("read %d bytes", n)
	}
	lfs.Close(fd)
	if svc.callsFor(upcall.OpReadOpen) != 1 || svc.callsFor(upcall.OpClose) != 1 {
		t.Fatalf("upcall counts: open=%d close=%d", svc.callsFor(upcall.OpReadOpen), svc.callsFor(upcall.OpClose))
	}
	// Rejected when DLFM says no.
	svc.readable["/d/fc"] = false
	if _, err := lfs.Open(fs.Cred{UID: user}, "/d/fc", fs.AccessRead); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("denied read = %v", err)
	}
}

func TestRemoveRenameConsultDLFM(t *testing.T) {
	lfs, phys, svc := setup(t, false)
	seed(t, phys, "/d/linked", 0o644, user)
	seed(t, phys, "/d/free", 0o644, user)
	svc.linked["/d/linked"] = true
	if err := lfs.Remove(fs.Cred{UID: user}, "/d/linked"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("remove linked = %v", err)
	}
	if err := lfs.Remove(fs.Cred{UID: user}, "/d/free"); err != nil {
		t.Fatalf("remove free: %v", err)
	}
	seed(t, phys, "/d/free2", 0o644, user)
	if err := lfs.Rename(fs.Cred{UID: user}, "/d/free2", "/d/linked"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("rename onto linked = %v", err)
	}
	if err := lfs.Rename(fs.Cred{UID: user}, "/d/free2", "/d/elsewhere"); err != nil {
		t.Fatalf("rename free: %v", err)
	}
}

func TestWriteLockHeldDuringUpdate(t *testing.T) {
	lfs, phys, svc := setup(t, false)
	seed(t, phys, "/d/f", 0o444, user)
	svc.linked["/d/f"] = true
	svc.writable["/d/f"] = true
	fd, err := lfs.Open(fs.Cred{UID: user}, "/d/f", fs.AccessWrite)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ino, _ := phys.Lookup("/d/f")
	writer, _ := phys.LockState(ino)
	if writer == "" {
		t.Fatal("no fs_lockctl exclusive lock held during the update")
	}
	lfs.Close(fd)
	writer, _ = phys.LockState(ino)
	if writer != "" {
		t.Fatal("lock not released at close")
	}
}

func TestStrictModeUpcallsOnPlainReads(t *testing.T) {
	lfs, phys, svc := setup(t, true)
	seed(t, phys, "/d/plain", 0o644, user)
	fd, err := lfs.Open(fs.Cred{UID: user}, "/d/plain", fs.AccessRead)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	lfs.Close(fd)
	if svc.callsFor(upcall.OpReadOpen) != 1 {
		t.Fatalf("strict read upcalls = %d, want 1", svc.callsFor(upcall.OpReadOpen))
	}
	if svc.callsFor(upcall.OpClose) != 1 {
		t.Fatal("strict open's close not reported")
	}
}

func TestDirectoryOpsPassThrough(t *testing.T) {
	lfs, phys, svc := setup(t, false)
	seed(t, phys, "/d/a", 0o644, user)
	names, err := lfs.Readdir(fs.Cred{UID: user}, "/d")
	if err != nil || len(names) != 1 {
		t.Fatalf("readdir = %v, %v", names, err)
	}
	if len(svc.calls) != 0 {
		t.Fatal("readdir made upcalls")
	}
}

func TestCreateUnlinkedFile(t *testing.T) {
	lfs, phys, svc := setup(t, false)
	fd, err := lfs.Create(fs.Cred{UID: user}, "/d/new.txt", 0o644)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := lfs.Write(fd, []byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	lfs.Close(fd)
	data, _ := phys.ReadFile("/d/new.txt")
	if string(data) != "hello" {
		t.Fatalf("content = %q", data)
	}
	_ = svc
}
