package harness

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/extent"
	"datalinks/internal/workload"
)

// TestGenHistoryIsDeterministic: E16 and E18 run twice on one directory —
// two processes — and the second run verifies what the first one committed
// against a history it derives itself. Two calls must agree byte for byte,
// and the pinned digest holds a later process (or toolchain) to the same
// bytes.
func TestGenHistoryIsDeterministic(t *testing.T) {
	const files, fileSize, editSize, versions = 3, 4096, 256, 5
	a := genHistory(9000, files, fileSize, editSize, versions)
	b := genHistory(9000, files, fileSize, editSize, versions)
	h := sha256.New()
	for i := range a {
		if len(a[i]) != versions+1 {
			t.Fatalf("file %d has %d versions, want %d", i, len(a[i]), versions+1)
		}
		for v := range a[i] {
			if !bytes.Equal(a[i][v], b[i][v]) {
				t.Fatalf("file %d v%d differs between two calls", i, v)
			}
			h.Write(a[i][v])
		}
	}
	const pinned = "5941bbc5135f404ae8ba7406489a2b4b6522da15a87006fc476cf7193fd7ea28"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != pinned {
		t.Errorf("history digest = %s, want %s: a directory written by an earlier run no longer verifies", got, pinned)
	}
	if other := genHistory(18000, files, fileSize, editSize, versions); bytes.Equal(other[0][0], a[0][0]) {
		t.Error("two seeds produced the same file")
	}
}

// TestGenHistoryEditsExactlyTheEditedRange: version v is version v-1 with
// editSize bytes replaced at editOffset — the slice a churn writes — and
// nothing else touched.
func TestGenHistoryEditsExactlyTheEditedRange(t *testing.T) {
	const files, fileSize, editSize, versions = 2, 8192, 512, 8
	expected := genHistory(18000, files, fileSize, editSize, versions)
	for i := range expected {
		for v := 1; v <= versions; v++ {
			prev, cur := expected[i][v-1], expected[i][v]
			off := editOffset(i, v, fileSize, editSize)
			if off < 0 || off+editSize > fileSize {
				t.Fatalf("file %d v%d: edit [%d,%d) outside the file", i, v, off, off+editSize)
			}
			if !bytes.Equal(cur[:off], prev[:off]) || !bytes.Equal(cur[off+editSize:], prev[off+editSize:]) {
				t.Errorf("file %d v%d changed bytes outside [%d,%d)", i, v, off, off+editSize)
			}
			if bytes.Equal(cur[off:off+editSize], prev[off:off+editSize]) {
				t.Errorf("file %d v%d left the edited range unchanged", i, v)
			}
		}
	}
}

// experimentFlags registers every experiment's flags on one fresh set, the
// way cmd/dlbench does (a duplicate name panics there; here it fails).
func experimentFlags(t *testing.T) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("exp", "", "")
	fs.Bool("list", false, "")
	fs.Bool("markdown", false, "")
	fs.Bool("json", false, "")
	for _, e := range All() {
		if e.Flags == nil {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s registers a flag another experiment owns: %v", e.ID, r)
				}
			}()
			e.Flags(fs)
		}()
	}
	return fs
}

// TestExperimentFlags: flag names are unique across All(), every flag a CI
// step, README.md or cmd/dlbench's header names still parses, and a bad value
// is refused at parse time with the flag's name. Parsing writes the configs,
// so each case restores them.
func TestExperimentFlags(t *testing.T) {
	restore := func() func() {
		c13, c14, c15, c16, c18, c20, c21, c22, c23 := e13, e14, e15, e16, e18, e20, e21, e22, e23
		return func() { e13, e14, e15, e16, e18, e20, e21, e22, e23 = c13, c14, c15, c16, c18, c20, c21, c22, c23 }
	}
	accepted := [][]string{
		{"-exp", "E6"}, {"-list"}, {"-markdown"}, {"-json"},
		{"-exp", "E13", "-net"},
		{"-exp", "E13", "-sessions", "1,8,32", "-servers", "4", "-ops", "200", "-upcall-latency", "500us"},
		{"-upcall-latency", "0"},
		{"-exp", "E14", "-filesize", "64", "-edits", "16", "-editsize", "64"},
		{"-exp", "E15", "-e15-files", "3", "-e15-filesize", "8", "-e15-versions", "10", "-e15-budget", "4"},
		{"-exp", "E15", "-e15-dir", "/var/tmp/archive", "-e15-compress"},
		{"-exp", "E16", "-e16-dir", "/var/tmp/e16", "-e16-fsync", "group"},
		{"-exp", "E18", "-e18-dir", "/var/tmp/e18", "-e18-fsync", "group"},
		{"-exp", "E20", "-e20-drop", "0.1", "-e20-reset", "0", "-e20-delay", "1", "-e20-seed", "7"},
		{"-exp", "E21", "-e21-servers", "1,4,16"},
		{"-exp", "E22", "-e22-rounds", "5", "-e22-sessions", "8", "-e22-commits", "20"},
		{"-exp", "E23", "-e23-round", "5s", "-e23-writers", "32", "-e23-budget", "1s"},
	}
	for _, args := range accepted {
		undo := restore()
		if err := experimentFlags(t).Parse(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
		undo()
	}

	defer restore()()
	if err := experimentFlags(t).Parse([]string{"-sessions", "2,6", "-e21-servers", "3", "-e23-round", "750ms", "-e15-compress"}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(e13.Sessions) != "[2 6]" || fmt.Sprint(e21.Servers) != "[3]" || e23.Round.String() != "750ms" || !e15.Compress {
		t.Errorf("flags did not land in the configs: %v %v %v %v", e13.Sessions, e21.Servers, e23.Round, e15.Compress)
	}

	rejected := [][]string{
		{"-sessions", "1,x"}, {"-sessions", "0"}, {"-sessions", ""}, {"-e21-servers", "4,-1"},
		{"-servers", "0"}, {"-ops", "-3"}, {"-e15-files", "none"}, {"-e22-rounds", "0"},
		{"-e23-round", "0s"}, {"-e23-budget", "-1s"}, {"-e23-round", "soon"},
		{"-upcall-latency", "-1ms"}, {"-e20-drop", "1.5"}, {"-e20-delay", "-0.1"},
	}
	for _, args := range rejected {
		err := experimentFlags(t).Parse(args)
		if err == nil {
			t.Errorf("%v: accepted", args)
		} else if !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: error does not name the flag: %v", args, err)
		}
	}
}

// TestHistoryDigestFailsOnAMissingBlob: the digest E21 and E23 compare must
// not hash a version it cannot materialize as an empty one — it names the
// member, path and version instead.
func TestHistoryDigestFailsOnAMissingBlob(t *testing.T) {
	dir := t.TempDir()
	sys, srv, err := newSystem(core.ServerConfig{
		Name:                 "fs1",
		ArchiveDir:           dir,
		ArchiveMemoryBudget:  1,  // nothing stays resident
		ArchivePackThreshold: -1, // one file per blob
	}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.DB.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	if err := seedAndLink(sys, srv, "t", 1, "/d/f.bin", workload.Content(workload.RNG(1), 3*extent.ChunkSize)); err != nil {
		t.Fatal(err)
	}
	if err := commitEdit(sys.DB, sys.NewSession(expUID).OpenWrite, "t", 1, 0, []byte("edit")); err != nil {
		t.Fatal(err)
	}
	srv.DLFM.WaitArchives()
	whole, err := historyDigest(srv, "fs1", "/d/f.bin")
	if err != nil || whole == "" {
		t.Fatalf("digest of an intact history: %q, %v", whole, err)
	}

	blobDirs, err := filepath.Glob(filepath.Join(dir, "[0-9a-f][0-9a-f]"))
	if err != nil || len(blobDirs) == 0 {
		t.Fatalf("no loose blobs under %s (%v)", dir, err)
	}
	for _, d := range blobDirs {
		if err := os.RemoveAll(d); err != nil {
			t.Fatal(err)
		}
	}
	_, err = historyDigest(srv, "fs1", "/d/f.bin")
	if err == nil {
		t.Fatal("digest of a history whose blobs are gone succeeded")
	}
	for _, want := range []string{"fs1", "/d/f.bin", "v0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}
