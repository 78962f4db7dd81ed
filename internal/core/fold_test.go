package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"datalinks/internal/fs"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
)

// The open is the one exchange that admits a session: the token rides the
// open request, DLFM admits it and takes the open under the same call. These
// tests pin that as counts (so a second exchange cannot creep back), and pin
// what a refused open leaves behind: nothing.

const (
	clipPath  = "/movies/clip1.mpg"
	clipURL   = "dlfs://fs1" + clipPath
	otherPath = "/movies/clip2.mpg"
)

// foldSys is newSys under a clock the test moves, with a second linked clip
// whose tokens are valid — for another path.
func foldSys(t *testing.T, mode string) (*System, *FileServer, *time.Time) {
	t.Helper()
	now := time.Unix(1_700_000_000, 0)
	sys, err := NewSystem(Config{
		Servers:     []ServerConfig{{Name: "fs1", OpenWait: 300 * time.Millisecond}},
		LockTimeout: 500 * time.Millisecond,
		Clock:       func() time.Time { return now },
		TokenTTL:    time.Minute,
	})
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	closeAtEnd(t, sys)
	srv, _ := sys.Server("fs1")
	if err := srv.Phys.MkdirAll("/movies", fs.Cred{UID: fs.Root}, 0o777); err != nil {
		t.Fatal(err)
	}
	sys.DB().MustExec(`CREATE TABLE movies (id INT PRIMARY KEY, clip DATALINK MODE ` + strings.ToUpper(mode) + ` RECOVERY YES)`)
	for i, p := range []string{clipPath, otherPath} {
		if err := srv.Phys.WriteFile(p, []byte("v0 content")); err != nil {
			t.Fatal(err)
		}
		ino, _ := srv.Phys.Lookup(p)
		srv.Phys.Chown(ino, fs.Cred{UID: fs.Root}, alice)
		srv.Phys.Chmod(ino, fs.Cred{UID: alice}, 0o644)
		sys.DB().MustExec(fmt.Sprintf(`INSERT INTO movies VALUES (%d, DLVALUE('dlfs://fs1%s'))`, i+1, p))
	}
	return sys, srv, &now
}

// clipToken returns the bare token DLURLCOMPLETE / DLURLCOMPLETEWRITE issues
// for movie id ("" when the mode hands out none for that access).
func clipToken(t *testing.T, sys *System, fn string, id int) string {
	t.Helper()
	row, err := sys.DB().QueryRow(fmt.Sprintf(`SELECT %s(clip) FROM movies WHERE id = %d`, fn, id))
	if err != nil {
		t.Fatalf("select %s: %v", fn, err)
	}
	_, tok, _ := token.Extract(row[0].S)
	return tok
}

// upcallsDuring runs fn and returns the upcalls the daemon served meanwhile,
// by op name.
func upcallsDuring(srv *FileServer, fn func()) map[string]int64 {
	served := func(op upcall.Op) int64 {
		return srv.DLFM.Metrics().Counter("dlfm.upcall." + op.String()).Value()
	}
	before := make(map[upcall.Op]int64)
	for _, op := range upcall.Ops() {
		before[op] = served(op)
	}
	fn()
	out := make(map[string]int64)
	for _, op := range upcall.Ops() {
		if n := served(op) - before[op]; n != 0 {
			out[op.String()] = n
		}
	}
	return out
}

func TestTokenOpenIsOneUpcallPlusClose(t *testing.T) {
	for _, mode := range []string{"rdd", "rfd"} {
		t.Run(mode, func(t *testing.T) {
			sys, srv, _ := foldSys(t, mode)
			sess := sys.NewSession(alice)
			readTok := clipToken(t, sys, "DLURLCOMPLETE", 1)
			if mode == "rfd" {
				// rfd reads are the file system's business: DLURLCOMPLETE hands
				// out no token. A caller that presents one anyway (here, a
				// write token) still has it checked, by the one call left.
				readTok = clipToken(t, sys, "DLURLCOMPLETEWRITE", 1)
			}
			check := func(what string, want map[string]int64, fn func()) {
				t.Helper()
				if got := upcallsDuring(srv, fn); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: upcalls %v, want exactly %v", what, got, want)
				}
			}
			read := func(url string) func() {
				return func() {
					f, err := sess.OpenRead(url)
					if err != nil {
						t.Fatalf("open %s: %v", url, err)
					}
					if got, err := f.ReadAll(); err != nil || len(got) == 0 {
						t.Fatalf("read: %q, %v", got, err)
					}
					if err := f.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
				}
			}
			if mode == "rdd" {
				check("token read", map[string]int64{"read_open": 1, "close": 1}, read(token.Embed(clipURL, readTok)))
			} else {
				check("native read with a token", map[string]int64{"validate_token": 1}, read(token.Embed(clipURL, readTok)))
				check("native read without one", map[string]int64{}, read(clipURL))
			}
			check("update", map[string]int64{"write_open": 1, "close": 1}, func() {
				f, err := sess.OpenWrite(token.Embed(clipURL, clipToken(t, sys, "DLURLCOMPLETEWRITE", 1)))
				if err != nil {
					t.Fatalf("open for update: %v", err)
				}
				if err := f.WriteAll([]byte("v1 content")); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatalf("commit: %v", err)
				}
			})
			// One count per presented token: the read's and the update's.
			reg := srv.DLFS.Metrics()
			if v, r := reg.Counter("dlfs.token.validated").Value(), reg.Counter("dlfs.token.rejected").Value(); v != 2 || r != 0 {
				t.Errorf("dlfs.token.validated=%d rejected=%d, want 2 and 0", v, r)
			}
		})
	}
}

func TestRefusedTokenOpenLeavesNothingBehind(t *testing.T) {
	type refusal struct {
		name  string
		write bool
		// tok builds the token to present; it may move the clock.
		tok func(t *testing.T, sys *System, now *time.Time) string
	}
	forge := func(tok string) string {
		last := tok[len(tok)-1]
		if last == '0' {
			return tok[:len(tok)-1] + "1"
		}
		return tok[:len(tok)-1] + "0"
	}
	issue := func(write bool) string {
		if write {
			return "DLURLCOMPLETEWRITE"
		}
		return "DLURLCOMPLETE"
	}
	var refusals []refusal
	for _, write := range []bool{false, true} {
		access := map[bool]string{false: "read", true: "write"}[write]
		refusals = append(refusals,
			refusal{"bad MAC/" + access, write, func(t *testing.T, sys *System, _ *time.Time) string {
				return forge(clipToken(t, sys, issue(write), 1))
			}},
			refusal{"expired/" + access, write, func(t *testing.T, sys *System, now *time.Time) string {
				tok := clipToken(t, sys, issue(write), 1)
				*now = now.Add(2 * time.Minute)
				return tok
			}},
			refusal{"token for another path/" + access, write, func(t *testing.T, sys *System, _ *time.Time) string {
				return clipToken(t, sys, issue(write), 2)
			}},
		)
	}
	const readTokenOnWrite = "read token on a write open"
	refusals = append(refusals, refusal{readTokenOnWrite, true, func(t *testing.T, sys *System, _ *time.Time) string {
		return clipToken(t, sys, "DLURLCOMPLETE", 1)
	}})

	// rdd sends every open to DLFM. rfd issues write tokens only, and its
	// update open reaches DLFM the lazy way, after the native EACCES.
	for _, r := range refusals {
		t.Run("rdd/"+r.name, func(t *testing.T) { refused(t, "rdd", r.write, r.tok) })
		if r.write && r.name != readTokenOnWrite {
			t.Run("rfd/"+r.name, func(t *testing.T) { refused(t, "rfd", r.write, r.tok) })
		}
	}
}

// refused presents tok on an open of the clip and checks that the open fails
// as a permission error having left nothing behind.
func refused(t *testing.T, mode string, write bool, tok func(*testing.T, *System, *time.Time) string) {
	sys, srv, now := foldSys(t, mode)
	ino, _ := srv.Phys.Lookup(clipPath)
	before, _ := srv.Phys.Getattr(ino)
	rejected := srv.DLFS.Metrics().Counter("dlfs.token.rejected")
	validated := srv.DLFS.Metrics().Counter("dlfs.token.validated")

	url := token.Embed(clipURL, tok(t, sys, now))
	sess := sys.NewSession(alice)
	var err error
	if write {
		_, err = sess.OpenWrite(url)
	} else {
		_, err = sess.OpenRead(url)
	}
	if !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("open = %v, want a permission error", err)
	}
	if n := srv.DLFM.OpenCount(); n != 0 {
		t.Errorf("%d opens left at DLFM", n)
	}
	if readers, writer := srv.DLFM.SyncEntries(clipPath); readers != 0 || writer {
		t.Errorf("sync entry left: readers=%d writer=%v", readers, writer)
	}
	if rows := srv.DLFM.UpdatesInFlight(); len(rows) != 0 {
		t.Errorf("dlfm_updates rows left: %v", rows)
	}
	if after, _ := srv.Phys.Getattr(ino); after.UID != before.UID || after.Mode != before.Mode {
		t.Errorf("file went from uid %d mode %o to uid %d mode %o", before.UID, before.Mode, after.UID, after.Mode)
	}
	if rejected.Value() != 1 || validated.Value() != 0 {
		t.Errorf("dlfs.token.rejected=%d validated=%d, want 1 and 0", rejected.Value(), validated.Value())
	}
	if n := srv.LFS.OpenCount(); n != 0 {
		t.Errorf("%d descriptors leaked", n)
	}
}

func TestFoldedOpenLeavesTheTokenEntry(t *testing.T) {
	sys, srv, _ := foldSys(t, "rdd")
	// A write token covers a read open.
	f, err := sys.NewSession(alice).OpenRead(token.Embed(clipURL, clipToken(t, sys, "DLURLCOMPLETEWRITE", 1)))
	if err != nil {
		t.Fatalf("read open with a write token: %v", err)
	}
	f.Close()
	// The open recorded alice's entry, as the lookup-time validation used to:
	// her uid now opens tokenless — for write too, the entry keeps the
	// strongest grant — and bob, who presented nothing, is refused (§4.1).
	twin := sys.NewSession(alice)
	if f, err = twin.OpenRead(clipURL); err != nil {
		t.Fatalf("same-uid tokenless read: %v", err)
	}
	f.Close()
	if f, err = twin.OpenWrite(clipURL); err != nil {
		t.Fatalf("same-uid tokenless update: %v", err)
	}
	f.Close()
	if _, err := sys.NewSession(bob).OpenRead(clipURL); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("bob tokenless open = %v, want a permission error", err)
	}
	if n := srv.DLFM.OpenCount(); n != 0 {
		t.Fatalf("%d opens left at DLFM", n)
	}
}

// rdd serialises readers against the writer (§4.2). The reader entry is now
// taken by the same call that admits the token; the writer must still get in
// only once every reader is out, and a reader must never see a torn version.
func TestFoldedReadersSerialiseAgainstTheWriter(t *testing.T) {
	sys, err := NewSystem(Config{
		Servers:     []ServerConfig{{Name: "fs1", OpenWait: 10 * time.Second}},
		LockTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv, _ := sys.Server("fs1")
	srv.Phys.MkdirAll("/movies", fs.Cred{UID: fs.Root}, 0o777)
	version := func(k int) []byte { return bytes.Repeat([]byte{byte('a' + k)}, 4096) }
	if err := srv.Phys.WriteFile(clipPath, version(0)); err != nil {
		t.Fatal(err)
	}
	sys.DB().MustExec(`CREATE TABLE movies (id INT PRIMARY KEY, clip DATALINK MODE RDD RECOVERY YES)`)
	sys.DB().MustExec(`INSERT INTO movies VALUES (1, DLVALUE('` + clipURL + `'))`)
	readURL := token.Embed(clipURL, clipToken(t, sys, "DLURLCOMPLETE", 1))
	writeURL := token.Embed(clipURL, clipToken(t, sys, "DLURLCOMPLETEWRITE", 1))

	const readers, versions = 8, 12
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(uid fs.UID) {
			defer wg.Done()
			sess := sys.NewSession(uid)
			for {
				select {
				case <-stop:
					return
				default:
				}
				f, err := sess.OpenRead(readURL)
				if err != nil {
					t.Errorf("reader %d open: %v", uid, err)
					return
				}
				got, err := f.ReadAll()
				f.Close()
				if err != nil || len(got) != 4096 || !bytes.Equal(got, bytes.Repeat(got[:1], 4096)) {
					t.Errorf("reader %d saw a torn version (%d bytes, %v)", uid, len(got), err)
					return
				}
			}
		}(fs.UID(200 + r))
	}
	sess := sys.NewSession(alice)
	for k := 1; k <= versions; k++ {
		f, err := sess.OpenWrite(writeURL)
		if err != nil {
			t.Fatalf("writer open %d: %v", k, err)
		}
		if n, writer := srv.DLFM.SyncEntries(clipPath); n != 0 || !writer {
			t.Errorf("update %d admitted with %d readers in (writer=%v)", k, n, writer)
		}
		// Two halves, so a reader let in mid-update would see both letters.
		next := version(k)
		if _, err := f.WriteAt(0, next[:2048]); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(2048, next[2048:]); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("commit %d: %v", k, err)
		}
	}
	close(stop)
	wg.Wait()
	if n := srv.DLFM.OpenCount(); n != 0 {
		t.Fatalf("%d opens left at DLFM", n)
	}
	if n, writer := srv.DLFM.SyncEntries(clipPath); n != 0 || writer {
		t.Fatalf("sync entry left: readers=%d writer=%v", n, writer)
	}
}
