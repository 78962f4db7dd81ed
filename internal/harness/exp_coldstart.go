package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/sqlmini"
	"datalinks/internal/wal"
)

// coldConfig is E18's knobs. With an explicit Dir, a second E18 run against
// the same directory pair skips the churn phase and verifies the durable
// state a previous run (a previous PROCESS) left behind — the CI
// restart-recovery smoke job runs exactly that. The workload shape is fixed:
// both runs must derive the same expected history from it.
type coldConfig struct {
	Files    int
	FileKB   int
	Versions int
	EditKB   int
	Dir      string // "" = private temp dir, removed afterwards
	Fsync    string // repo + archive fsync policy ("", none, group, always)
}

var e18 = coldConfig{Files: 3, FileKB: 256, Versions: 6, EditKB: 32}

// coldBudget is the archive memory budget E18 runs under: one file's worth
// of its three, so the churn commits to files the pager has paged out, and
// the history the cold start serves was archived from them.
const coldBudget = 256 << 10

func (c *coldConfig) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.Dir, "e18-dir", c.Dir, "E18: durable root holding repo/ and archive/; if it already holds E18 state, the run only cold-serves and verifies it (default: private temp dir)")
	fs.StringVar(&c.Fsync, "e18-fsync", c.Fsync, "E18: repo + archive fsync policy (none|group|always)")
}

func init() {
	Register(Experiment{
		ID:    "E18",
		Title: "Durable repository plane: kill -9 of the whole process loses nothing",
		Paper: "§4.2/§4.4 promise that a DLFM machine crash never loses a committed file version: the repository (WAL + checkpoints) and the archive (packs + durable catalog) are the durable truth. This experiment hard-kills the ENTIRE process state — repository database, archive store, and the physical file system — and cold-starts from the two on-disk directories alone. Every link, every version, and the in-flight rollback must come back byte-identical with zero re-archiving, and repository recovery must start at the checkpoint the churn took, not at the head of the log.",
		Run:   e18.run,
		Flags: e18.flags,
	})
}

// coldPaths places E18's linked file i.
const coldPaths = "/cold/f%d.bin"

func coldPath(i int) string { return fmt.Sprintf(coldPaths, i) }

// historyCols is the table E18 links its files in.
const historyCols = "doc DATALINK MODE RFD RECOVERY YES"

// server is the one server config both phases share over the two
// directories.
func (c *coldConfig) server(repoDir, archDir string) core.ServerConfig {
	return core.ServerConfig{
		Name:                "fs1",
		OpenWait:            30 * time.Second,
		ArchiveDir:          archDir,
		ArchiveFsync:        c.Fsync,
		ArchiveMemoryBudget: coldBudget,
		RepoDir:             repoDir,
		RepoFsync:           c.Fsync,
	}
}

// churnResult is what the churn phase leaves for the gates.
type churnResult struct {
	ckptLSN  wal.LSN // the repository log's tail when the churn checkpointed
	pageOuts int64   // chunks the file system paged out meanwhile
}

// coldChurn is E18's first phase. On a one-server system built from sc it
// links expected's files as rows of table cold (file i at coldPath(i),
// holding expected[i][0]) and commits genHistory's versions 1..n of every
// file through the full stack, one round per version. After round (n+1)/2, while
// no transaction runs, it takes one repository checkpoint. Then the process
// dies: a kill -9 with an update open on file 0 and its uncommitted junk on
// the volatile file system — no drain, no Close, no further checkpoint.
func coldChurn(sc core.ServerConfig, editSize int64, expected [][][]byte) (churnResult, error) {
	var res churnResult
	sys, srv, err := newSystem(sc, 30*time.Second)
	if err != nil {
		return res, err
	}
	defer sys.Crash()
	s, err := systemSoak(sys, srv, "cold", historyCols, len(expected), coldPaths, func(i int, _ string) []byte { return expected[i][0] })
	if err != nil {
		return res, err
	}
	openWrite := s.newSession()
	for v := 1; v < len(expected[0]); v++ {
		for i := range expected {
			off := editOffset(i, v, int64(len(expected[i][v])), editSize)
			if err := commitEdit(s.db, openWrite, "cold", i, off, expected[i][v][off:off+editSize]); err != nil {
				return res, fmt.Errorf("file %d v%d: %w", i, v, err)
			}
		}
		if v == len(expected[0])/2 {
			repo := srv.DLFM.Repo()
			res.ckptLSN = repo.Log().TailLSN()
			if ok, err := repo.Checkpoint(); !ok || err != nil {
				return res, fmt.Errorf("repository checkpoint after round %d: taken %v, %v", v, ok, err)
			}
		}
	}
	res.pageOuts = srv.DLFM.Metrics().Counter("fs.pageouts").Value()
	url, err := writeURL(s.db, "cold", 0)
	if err != nil {
		return res, err
	}
	f, err := openWrite(url)
	if err != nil {
		return res, err
	}
	_, err = f.WriteAt(0, []byte("in-flight junk that must never survive the kill"))
	return res, err
}

// anchored checks that repository recovery started at a checkpoint, not at
// the head of the log: it used the snapshot, and the snapshot's anchor is
// past the log's start and at or past ckpt, the log's tail when the churn
// took its checkpoint (0 in a verify-only run).
func anchored(rep *sqlmini.RecoveryReport, ckpt wal.LSN) error {
	switch {
	case !rep.SnapshotUsed:
		return fmt.Errorf("recovery ignored the checkpoint snapshot: %+v", *rep)
	case rep.AnchorLSN == wal.NilLSN || rep.AnchorLSN < ckpt:
		return fmt.Errorf("recovery anchored at LSN %d, want past the log's start and at or past the churn's checkpoint at LSN %d", rep.AnchorLSN, ckpt)
	}
	return nil
}

// run commits a deterministic workload, hard-kills the whole process state
// (repository, archive, physical FS), cold-starts a brand-new system from the
// repo + archive directories, and FAILS unless every link, every version, and
// the in-flight rollback are byte-identical with zero re-archiving — and
// unless repository recovery started at the churn's checkpoint.
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

	var churn churnResult
	var churnWall time.Duration
	if !coldServe {
		start := time.Now()
		// No drain before the kill: a close returns only once its version is
		// in the archive, so every acknowledged version must survive it.
		if churn, err = coldChurn(c.server(repoDir, archDir), editSize, expected); err != nil {
			return nil, err
		}
		churnWall = time.Since(start)
		if churn.pageOuts == 0 {
			return nil, fmt.Errorf("E18: the churn paged nothing out under a %s budget", mib(coldBudget))
		}
	}

	// The cold start: a brand-new system over nothing but the two
	// directories. No object survives from the churn phase.
	start := time.Now()
	sys, srv, err := newSystem(c.server(repoDir, archDir), 30*time.Second)
	if err != nil {
		return nil, fmt.Errorf("E18: cold start: %w", err)
	}
	coldWall := time.Since(start)
	defer sys.Close()
	rep := srv.Recovery
	if rep == nil || rep.Repo == nil {
		return nil, fmt.Errorf("E18: cold open of a used repository ran as a fresh boot")
	}
	if err := anchored(rep.Repo, churn.ckptLSN); err != nil {
		return nil, fmt.Errorf("E18: %w", err)
	}
	if len(rep.LostFiles) != 0 {
		return nil, fmt.Errorf("E18: cold start lost files: %v", rep.LostFiles)
	}
	arch := srv.Archive.Recovery()

	// Every link survives with its mode.
	if linked := srv.DLFM.LinkedPaths(); len(linked) != c.Files {
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
	// Zero re-archiving: the archive catalog already held everything, so
	// serving all of that wrote no blob.
	if len(rep.ArchivedVersions) != 0 {
		return nil, fmt.Errorf("E18: cold start re-archived %v", rep.ArchivedVersions)
	}
	reArchived, tier := srv.Archive.Dedup().NewBytes, srv.Archive.Tier()
	if reArchived != 0 || tier.Spills != 0 {
		return nil, fmt.Errorf("E18: cold start transferred %d new bytes to the archive (%d spills)", reArchived, tier.Spills)
	}

	// And the recovered system keeps serving updates on the restored state.
	if err := coldCommit(sys, srv); err != nil {
		return nil, fmt.Errorf("E18: after the cold start: %w", err)
	}

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
	t.AddRow("linked file size / edit size / memory budget", fmt.Sprintf("%s / %s / %s", mib(fileSize), mib(editSize), mib(coldBudget)))
	if !coldServe {
		t.AddRow("churn wall time", Dur(churnWall))
		t.AddRow("chunks paged out during the churn", fmt.Sprintf("%d", churn.pageOuts))
		t.AddRow("in-flight updates rolled back", fmt.Sprintf("%d (%s)", len(rep.RestoredFiles), strings.Join(rep.RestoredFiles, ",")))
	}
	t.AddRow("cold-start wall time (full recovery)", Dur(coldWall))
	t.AddRow("repo anchor LSN / churn checkpoint LSN", fmt.Sprintf("%d / %d", rep.Repo.AnchorLSN, churn.ckptLSN))
	t.AddRow("repo records scanned / redone", fmt.Sprintf("%d / %d", rep.Repo.RecordsScanned, rep.Repo.Redone))
	t.AddRow("archive histories / versions replayed", fmt.Sprintf("%d / %d", arch.Files, arch.Versions))
	t.AddRow("catalog records (snapshot / log)", fmt.Sprintf("%d / %d", arch.SnapshotRecords, arch.LogRecords))
	t.AddRow("torn catalog-log bytes / versions dropped", fmt.Sprintf("%d / %d", arch.TornBytes, arch.DroppedVersions))
	t.AddRow("pack files / torn pack bytes", fmt.Sprintf("%d / %d", tier.PackFiles, tier.PackTornBytes))
	t.AddRow("files materialized from the archive", fmt.Sprintf("%d", len(rep.MaterializedFiles)))
	t.AddRow("version counters reconciled down", fmt.Sprintf("%d (%s)", len(rep.ReconciledVersions), strings.Join(rep.ReconciledVersions, ",")))
	t.AddRow("versions verified byte-identical", fmt.Sprintf("%d", verified))
	t.AddRow("bytes re-archived on cold start", fmt.Sprintf("%d (spills: %d)", reArchived, tier.Spills))
	t.AddRow("fresh link → commit → read back → unlink after cold start", "ok")
	t.AddRow("fsync policy", orNone(c.Fsync))
	t.Note("the whole process dies: repository, archive store AND the physical file system — only the repo and archive directories survive")
	t.Note("byte-identity, zero re-archiving, and recovery anchored at the churn's checkpoint are enforced, not just reported")
	return []*Table{t}, nil
}

// coldCommit links a fresh file on the cold-started server through SQL (the
// host database died with the process), commits one update to it, reads the
// update back and unlinks the file, so a second run over the same
// directories still finds exactly the churned links.
func coldCommit(sys *core.System, srv *core.FileServer) error {
	const path = "/cold/fresh.bin"
	sys.DB().MustExec(`CREATE TABLE cold (id INT PRIMARY KEY, ` + historyCols + `)`)
	if err := seedAndLink(sys, srv, "cold", 0, path, []byte("fresh v0")); err != nil {
		return fmt.Errorf("link %s: %w", path, err)
	}
	want := []byte("fresh v1")
	sess := sys.NewSession(expUID)
	if err := commitEdit(sys.DB(), sess.OpenWrite, "cold", 0, 0, want); err != nil {
		return fmt.Errorf("commit to %s: %w", path, err)
	}
	url, err := readURL(sys.DB(), "cold", 0)
	if err != nil {
		return err
	}
	f, err := sess.OpenRead(url)
	if err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	got, err := f.ReadAll()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s reads %q after its commit, want %q", path, got, want)
	}
	if _, err := sys.DB().Exec(`DELETE FROM cold WHERE id = 0`); err != nil {
		return fmt.Errorf("unlink %s: %w", path, err)
	}
	return nil
}

func orNone(p string) string {
	if p == "" {
		return "none"
	}
	return p
}
