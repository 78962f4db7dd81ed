package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"datalinks/internal/core"
)

// coldConfig is E18's knobs. With an explicit Dir, a second E18 run against
// the same directory pair skips the churn phase and verifies the durable
// state a previous run (a previous PROCESS) left behind — the CI cold-start
// smoke job runs exactly that.
type coldConfig struct {
	Files        int
	FileKB       int
	Versions     int
	EditKB       int
	CheckpointKB int    // small: force several checkpoints during churn
	Dir          string // "" = private temp dir, removed afterwards
	Fsync        string // repo + archive fsync policy ("", none, group, always)
}

var e18 = coldConfig{Files: 3, FileKB: 256, Versions: 6, EditKB: 32, CheckpointKB: 8}

func (c *coldConfig) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.Dir, "e18-dir", c.Dir, "E18: durable root holding repo/ and archive/; if it already holds E18 state, the run only cold-serves and verifies it (default: private temp dir)")
	fs.StringVar(&c.Fsync, "e18-fsync", c.Fsync, "E18: repo + archive fsync policy (none|group|always)")
}

func init() {
	Register(Experiment{
		ID:    "E18",
		Title: "Durable repository plane: kill -9 of the whole process loses nothing",
		Paper: "§4.2/§4.4 promise that a DLFM machine crash never loses a committed file version: the repository (WAL + checkpoints) and the archive are the durable truth. This experiment hard-kills the ENTIRE process state — repository database, archive store, and the physical file system — and cold-starts from the two on-disk directories alone. Every link, every version, and the in-flight rollback must come back byte-identical with zero re-archiving, and recovery must replay only the log tail after the last checkpoint, not the whole history.",
		Run:   e18.run,
		Flags: e18.flags,
	})
}

// coldPath returns the deterministic linked-file path for file i.
func coldPath(i int) string { return fmt.Sprintf("/cold/f%d.bin", i) }

// system opens the one server config both phases share over the two
// directories.
func (c *coldConfig) system(repoDir, archDir string) (*core.System, *core.FileServer, error) {
	return newSystem(core.ServerConfig{
		Name:                "fs1",
		OpenWait:            30 * time.Second,
		ArchiveDir:          archDir,
		ArchiveFsync:        c.Fsync,
		RepoDir:             repoDir,
		RepoFsync:           c.Fsync,
		RepoCheckpointBytes: int64(c.CheckpointKB) << 10,
	}, 30*time.Second)
}

// run commits a deterministic workload, hard-kills the whole process state
// (repository, archive, physical FS), cold-starts a brand-new system from the
// repo + archive directories, and FAILS unless every link, every version, and
// the in-flight rollback are byte-identical with zero re-archiving — and
// unless recovery scanned only the post-checkpoint tail.
func (c *coldConfig) run() ([]*Table, error) {
	fileSize := int64(c.FileKB) << 10
	editSize := min(int64(c.EditKB)<<10, fileSize)
	dir, cleanup, err := workDir(c.Dir, "dlrepo-e18-*")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	repoDir, archDir := dir+"/repo", dir+"/archive"
	expected := genHistory(18000, c.Files, fileSize, editSize, c.Versions)

	// Probe the repository directory: WAL segments or a snapshot mean a
	// previous run (process) left durable state — verify-only mode.
	coldServe := false
	if entries, err := os.ReadDir(repoDir); err == nil {
		for _, e := range entries {
			if e.Name() == "repo.snap" || strings.HasPrefix(e.Name(), "wal-") {
				coldServe = true
				break
			}
		}
	}

	var churnWall time.Duration
	if !coldServe {
		start := time.Now()
		if err := c.churn(repoDir, archDir, editSize, expected); err != nil {
			return nil, err
		}
		churnWall = time.Since(start)
	}

	// The cold start: a brand-new system over nothing but the two
	// directories. No object survives from the churn phase.
	start := time.Now()
	sys, srv, err := c.system(repoDir, archDir)
	if err != nil {
		return nil, fmt.Errorf("E18: cold start: %w", err)
	}
	coldWall := time.Since(start)
	defer sys.Close()
	rep := srv.Recovery
	if rep == nil || rep.Repo == nil {
		return nil, fmt.Errorf("E18: cold open of a used repository ran as a fresh boot")
	}
	if !rep.Repo.SnapshotUsed {
		return nil, fmt.Errorf("E18: recovery ignored the checkpoint snapshot: %+v", rep.Repo)
	}
	if len(rep.LostFiles) != 0 {
		return nil, fmt.Errorf("E18: cold start lost files: %v", rep.LostFiles)
	}

	// Anchored, not O(history): the analysis/redo scan must cover only the
	// tail after the last checkpoint. TailLSN counts every record ever
	// logged (LSNs survive head truncation), so the ratio is honest.
	total := int(srv.DLFM.Repo().Log().TailLSN())
	if rep.Repo.RecordsScanned*2 >= total {
		return nil, fmt.Errorf("E18: recovery scanned %d of %d records — checkpoint anchoring failed", rep.Repo.RecordsScanned, total)
	}

	// Every link survives with its mode.
	if linked := srv.DLFM.LinkedFiles(); len(linked) != c.Files {
		return nil, fmt.Errorf("E18: %d links after cold start, want %d (%v)", len(linked), c.Files, linked)
	}
	verified := 0
	for i := range expected {
		path := coldPath(i)
		if mode, ok := srv.DLFM.FileMode(path); !ok || mode.String() != "rfd" {
			return nil, fmt.Errorf("E18: %s lost its control mode after cold start", path)
		}
		// Every version byte-identical from the archive.
		n, err := verifyHistory(srv.Archive, "fs1", path, expected[i])
		if err != nil {
			return nil, fmt.Errorf("E18: after the kill: %w", err)
		}
		verified += n
		// The physical file is materialized back to the last committed
		// content — including file 0, whose in-flight junk must be gone.
		got, err := srv.Phys.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("E18: %s not materialized on the cold FS: %w", path, err)
		}
		if !bytes.Equal(got, expected[i][c.Versions]) {
			return nil, fmt.Errorf("E18: %s content diverged after cold start", path)
		}
	}
	if !coldServe {
		// The churn phase died with an update open on file 0: it must have
		// been rolled back, and no other file touched.
		if len(rep.RestoredFiles) != 1 || rep.RestoredFiles[0] != coldPath(0) {
			return nil, fmt.Errorf("E18: in-flight rollback = %v, want [%s]", rep.RestoredFiles, coldPath(0))
		}
	}
	// Zero re-archiving: the archive catalog already held everything.
	if len(rep.ArchivedVersions) != 0 {
		return nil, fmt.Errorf("E18: cold start re-archived %v", rep.ArchivedVersions)
	}
	if d := srv.Archive.Dedup(); d.NewBytes != 0 {
		return nil, fmt.Errorf("E18: cold start transferred %d new bytes to the archive", d.NewBytes)
	}

	// And the recovered system keeps serving updates on the restored state.
	// (The host database died with the process, so re-link through fresh SQL.)
	sys.DB.MustExec(`CREATE TABLE cold (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)

	t := &Table{
		Caption: "E18. Whole-process kill: cold start from repo + archive dirs loses nothing",
		Headers: []string{"metric", "value"},
	}
	mode := "churn + kill + cold start (fresh dirs)"
	if coldServe {
		mode = "verify-only cold serve (state found in -e18-dir)"
	}
	t.AddRow("run mode", mode)
	t.AddRow("files x versions", fmt.Sprintf("%d x %d (+v0 each)", c.Files, c.Versions))
	t.AddRow("linked file size / edit size", fmt.Sprintf("%s / %s", mib(fileSize), mib(editSize)))
	if !coldServe {
		t.AddRow("churn wall time", Dur(churnWall))
		t.AddRow("in-flight updates rolled back", fmt.Sprintf("%d (%s)", len(rep.RestoredFiles), strings.Join(rep.RestoredFiles, ",")))
	}
	t.AddRow("cold-start wall time (full recovery)", Dur(coldWall))
	t.AddRow("repo records scanned / total ever logged", fmt.Sprintf("%d / %d (anchor LSN %d)", rep.Repo.RecordsScanned, total, rep.Repo.AnchorLSN))
	t.AddRow("repo redo records applied", fmt.Sprintf("%d", rep.Repo.Redone))
	t.AddRow("files materialized from the archive", fmt.Sprintf("%d", len(rep.MaterializedFiles)))
	t.AddRow("version counters reconciled down", fmt.Sprintf("%d (%s)", len(rep.ReconciledVersions), strings.Join(rep.ReconciledVersions, ",")))
	t.AddRow("versions verified byte-identical", fmt.Sprintf("%d", verified))
	t.AddRow("bytes re-archived on cold start", fmt.Sprintf("%d", srv.Archive.Dedup().NewBytes))
	t.AddRow("repo checkpoint interval / fsync policy", fmt.Sprintf("%d KiB / %s", c.CheckpointKB, orNone(c.Fsync)))
	t.Note("the whole process dies: repository, archive store AND the physical file system — only the repo and archive directories survive")
	t.Note("byte-identity, zero re-archiving, and anchored (scanned « total) recovery are enforced, not just reported")
	return []*Table{t}, nil
}

func orNone(p string) string {
	if p == "" {
		return "none"
	}
	return p
}

// churn drives the deterministic workload through a full system stack over
// the durable directories, then kills the whole process state with an update
// still open — no checkpoint, no archive drain, no clean close.
func (c *coldConfig) churn(repoDir, archDir string, editSize int64, expected [][][]byte) error {
	sys, srv, err := c.system(repoDir, archDir)
	if err != nil {
		return err
	}
	sys.DB.MustExec(`CREATE TABLE cold (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	for i := range expected {
		if err := seedAndLink(sys, srv, "cold", i, coldPath(i), expected[i][0]); err != nil {
			return err
		}
	}
	sess := sys.NewSession(expUID)
	if err := churnHistory(sys.DB, sess.OpenWrite, "cold", editSize, expected); err != nil {
		return err
	}
	// Every committed version must reach the archive before the kill — the
	// experiment tests crash durability of COMMITTED state, not a race with
	// the asynchronous archiver.
	srv.DLFM.WaitArchives()

	// Die with an update transaction open on file 0, its in-flight junk
	// uncommitted on the (volatile) physical file system.
	url, err := writeURL(sys.DB, "cold", 0)
	if err != nil {
		return err
	}
	f, err := sess.OpenWrite(url)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(0, []byte("in-flight junk that must never survive the kill")); err != nil {
		return err
	}
	sys.Crash() // kill -9: no Close, no checkpoint, no drain
	return nil
}
