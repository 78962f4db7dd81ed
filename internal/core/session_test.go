package core

import (
	"errors"
	"testing"

	"datalinks/internal/fs"
	"datalinks/internal/obs"
)

// Additional File/Session surface tests: positional IO, truncation, abort
// edge cases.

func TestFilePositionalIO(t *testing.T) {
	sys, srv := newSys(t, "rfd")
	_ = srv
	sess := sys.NewSession(alice)
	wurl := urlFor(t, sys, "DLURLCOMPLETEWRITE")
	f, err := sess.OpenWrite(wurl)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Sequential writes move the offset; WriteAt does not.
	if _, err := f.Write([]byte("AAAA")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := f.WriteAt(1, []byte("B")); err != nil {
		t.Fatalf("writeat: %v", err)
	}
	if _, err := f.Write([]byte("CC")); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	if err := f.SeekTo(0); err != nil {
		t.Fatalf("seek: %v", err)
	}
	buf := make([]byte, 6)
	n, err := f.Read(buf)
	if err != nil || string(buf[:n]) != "ABAACC" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestFileTruncateShrinks(t *testing.T) {
	sys, srv := newSys(t, "rfd")
	sess := sys.NewSession(alice)
	f, err := sess.OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := f.WriteAll([]byte("tiny")); err != nil { // shrinks from "v0 content"
		t.Fatalf("writeall: %v", err)
	}
	attr, _ := f.Stat()
	if attr.Size != 4 {
		t.Fatalf("size = %d", attr.Size)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, _ := srv.Phys.ReadFile("/movies/clip1.mpg")
	if string(data) != "tiny" {
		t.Fatalf("content = %q", data)
	}
}

func TestTruncateOnReadHandleDenied(t *testing.T) {
	sys, _ := newSys(t, "rfd")
	sess := sys.NewSession(alice)
	f, err := sess.OpenRead("dlfs://fs1/movies/clip1.mpg")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	if err := f.Truncate(1); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("truncate on read handle = %v", err)
	}
}

func TestAbortEdgeCases(t *testing.T) {
	sys, _ := newSys(t, "rfd")
	sess := sys.NewSession(alice)
	// Abort on a read handle is an error.
	rf, err := sess.OpenRead("dlfs://fs1/movies/clip1.mpg")
	if err != nil {
		t.Fatalf("open read: %v", err)
	}
	if err := rf.Abort(); err == nil {
		t.Fatal("abort of read open accepted")
	}
	rf.Close()
	// Double abort is an error; close after abort is clean.
	wf, err := sess.OpenWrite(urlFor(t, sys, "DLURLCOMPLETEWRITE"))
	if err != nil {
		t.Fatalf("open write: %v", err)
	}
	wf.WriteAll([]byte("x"))
	if err := wf.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if err := wf.Abort(); err == nil {
		t.Fatal("double abort accepted")
	}
	if err := wf.Close(); err != nil {
		t.Fatalf("close after abort should be clean: %v", err)
	}
}

func TestSessionCredAndServerNames(t *testing.T) {
	sys, _ := newSys(t, "rff")
	sess := sys.NewSession(alice)
	if sess.Cred().UID != alice {
		t.Fatalf("cred = %+v", sess.Cred())
	}
	names := sys.ServerNames()
	if len(names) != 1 || names[0] != "fs1" {
		t.Fatalf("servers = %v", names)
	}
	if _, err := sys.Server("missing"); err == nil {
		t.Fatal("unknown server accepted")
	}
	if _, err := sys.CrashAndRecoverServer("missing"); err == nil {
		t.Fatal("crash of unknown server accepted")
	}
}

func TestOpenBadURL(t *testing.T) {
	sys, _ := newSys(t, "rff")
	sess := sys.NewSession(alice)
	if _, err := sess.OpenRead("http://wrong/scheme"); err == nil {
		t.Fatal("bad scheme accepted")
	}
	if _, err := sess.OpenRead("dlfs://unknown-server/p"); err == nil {
		t.Fatal("unknown server accepted")
	}
	if _, err := sess.OpenRead("dlfs://fs1/does/not/exist"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("missing file should be ErrNotExist")
	}
}

func TestUserTxnAfterFinish(t *testing.T) {
	sys, _ := newSys(t, "rfd")
	u := sys.NewSession(alice).BeginUserTxn()
	if err := u.Commit(); err != nil {
		t.Fatalf("empty commit: %v", err)
	}
	if _, err := u.OpenWrite("dlfs://fs1/movies/clip1.mpg"); err == nil {
		t.Fatal("open on finished user txn accepted")
	}
	if err := u.Commit(); err == nil {
		t.Fatal("double commit accepted")
	}
	if err := u.Abort(); err == nil {
		t.Fatal("abort after commit accepted")
	}
}

func TestMetricsAggregation(t *testing.T) {
	sys, _ := newSys(t, "rdd")
	m := sys.Metrics()
	for _, key := range []string{"engine", "dlfm:fs1", "dlfs:fs1", "upcall:fs1"} {
		if _, ok := m[key]; !ok {
			t.Errorf("missing metrics registry %q", key)
		}
	}
}

// scriptedResolver hands out its members in order, repeating the last one.
type scriptedResolver struct {
	picks []*FileServer
	calls int
}

func (r *scriptedResolver) resolve(_, _ string) (*FileServer, error) {
	m := r.picks[min(r.calls, len(r.picks)-1)]
	r.calls++
	return m, nil
}

// newTracedPair builds a traced two-server system with /d/f.txt linked (rfd)
// on fs2 only.
func newTracedPair(t *testing.T) (sys *System, fs1, fs2 *FileServer) {
	t.Helper()
	sys, err := NewSystem(Config{Servers: []ServerConfig{{Name: "fs1", Trace: true}, {Name: "fs2", Trace: true}}})
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	closeAtEnd(t, sys)
	fs1, _ = sys.Server("fs1")
	fs2, _ = sys.Server("fs2")
	if err := fs2.SeedFile("/d/f.txt", []byte("moved"), alice); err != nil {
		t.Fatalf("seed: %v", err)
	}
	sys.DB().MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	sys.DB().MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs2/d/f.txt'))`)
	return sys, fs1, fs2
}

// openTraces returns the tracer's completed open traces.
func openTraces(m *FileServer) []*obs.Trace {
	var out []*obs.Trace
	for _, tr := range m.Obs.Recent(0) {
		if tr.Op() == "open" {
			out = append(out, tr)
		}
	}
	return out
}

// A first resolution that names a member the path is not on, then the member
// it is on — a migration racing the open — opens on the second, and that
// attempt's trace says it followed the ring forward.
func TestOpenRetriesOnceOnMovedOwner(t *testing.T) {
	_, fs1, fs2 := newTracedPair(t)
	res := &scriptedResolver{picks: []*FileServer{fs1, fs2}}
	sess := &Session{r: res, cred: fs.Cred{UID: alice}}
	f, err := sess.OpenRead("dlfs://fs2/d/f.txt")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	data, err := f.ReadAll()
	if err != nil || string(data) != "moved" {
		t.Fatalf("read = %q, %v", data, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if res.calls != 2 {
		t.Fatalf("resolver calls = %d, want 2", res.calls)
	}
	missed := openTraces(fs1)
	if len(missed) != 1 {
		t.Fatalf("fs1 open traces = %d, want 1", len(missed))
	}
	if _, ok := missed[0].Root().Attr("error"); !ok {
		t.Fatal("fs1's open trace carries no error")
	}
	if _, ok := missed[0].Root().Attr("ring_forwarded"); ok {
		t.Fatal("first attempt tagged ring_forwarded")
	}
	hit := openTraces(fs2)
	if len(hit) != 1 {
		t.Fatalf("fs2 open traces = %d, want 1", len(hit))
	}
	if v, _ := hit[0].Root().Attr("ring_forwarded"); v != true {
		t.Fatalf("fs2's open trace ring_forwarded = %v, want true", v)
	}
	if v, _ := hit[0].Root().Attr("server"); v != "fs2" {
		t.Fatalf("fs2's open trace server = %v", v)
	}
}

// When the second resolution names the same member, the open is not tried
// again: the first error was real.
func TestOpenNoRetryOnSameOwner(t *testing.T) {
	_, fs1, _ := newTracedPair(t)
	res := &scriptedResolver{picks: []*FileServer{fs1}}
	sess := &Session{r: res, cred: fs.Cred{UID: alice}}
	_, err := sess.OpenRead("dlfs://fs2/d/f.txt")
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open = %v, want ErrNotExist", err)
	}
	if res.calls != 2 {
		t.Fatalf("resolver calls = %d, want 2", res.calls)
	}
	trs := openTraces(fs1)
	if len(trs) != 1 {
		t.Fatalf("fs1 open traces = %d, want 1", len(trs))
	}
	if v, _ := trs[0].Root().Attr("error"); v != err.Error() {
		t.Fatalf("trace error = %v, returned %v", v, err)
	}
}
