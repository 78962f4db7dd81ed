package harness

import (
	"flag"
	"fmt"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/core"
	"datalinks/internal/fsyncer"
)

// restartConfig is E16's knobs. With an explicit Dir, a second E16 run
// against the same directory skips the churn phase entirely and verifies the
// history a previous run left behind — the CI restart-recovery smoke job runs
// exactly that: E16 twice, same -e16-dir, second run must serve with zero
// transfer. The workload shape is fixed: both runs must derive the same
// expected history from it.
type restartConfig struct {
	Files    int
	FileMB   int
	Versions int
	EditKB   int
	BudgetMB int
	Dir      string // "" = private temp dir, removed afterwards
	Fsync    string // fsync policy for the churn AND the reopen ("", none, group, always)
}

var e16 = restartConfig{Files: 2, FileMB: 4, Versions: 6, EditKB: 64, BudgetMB: 4}

func (c *restartConfig) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.Dir, "e16-dir", c.Dir, "E16: archive directory; if it already holds an E16 history, the run only cold-serves and verifies it (default: private temp dir)")
	fs.StringVar(&c.Fsync, "e16-fsync", c.Fsync, "E16: archive fsync policy (none|group|always)")
}

func init() {
	Register(Experiment{
		ID:    "E16",
		Title: "Crash-restartable archive: cold reopen serves full history with zero re-archiving",
		Paper: "§4.4's archive is the database-managed store of every committed version. If the version metadata lives only in process memory, a restart faces an uninterpretable chunk directory and must re-archive everything. With the durable catalog (manifest log + snapshot checkpoints), a cold-started store replays the full index, re-pins chunk refcounts, and serves point-in-time restores byte-identically with zero device transfer.",
		Run:   e16.run,
		Flags: e16.flags,
	})
}

// restartPaths places E16's linked file i.
const restartPaths = "/restart/f%d.bin"

// run commits a deterministic version history through the full system,
// hard-restarts the process state (the system is closed and a brand-new
// archive store opened over the directory), and proves every version —
// including point-in-time lookups — comes back byte-identical with zero
// bytes re-archived. Any divergence or re-archiving is an error, so the CI
// smoke job fails loudly.
func (c *restartConfig) run() ([]*Table, error) {
	fileSize := int64(c.FileMB) << 20
	editSize := min(int64(c.EditKB)<<10, fileSize)
	fsyncPolicy, err := fsyncer.ParsePolicy(c.Fsync)
	if err != nil {
		return nil, err
	}
	dir, cleanup, err := workDir(c.Dir, "dlarchive-e16-*")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	tier := archive.TierConfig{Dir: dir, Fsync: fsyncPolicy}
	expected := genHistory(9000, c.Files, fileSize, editSize, c.Versions)

	// Probe the directory: an existing history (a previous E16 run) means we
	// only verify; a fresh directory gets the churn phase first.
	probe, err := archive.NewTiered(0, nil, tier)
	if err != nil {
		return nil, err
	}
	coldStart := len(probe.Files("fs1")) > 0
	store := probe
	var churnWall, replayWall time.Duration
	if !coldStart {
		probe.Close()
		start := time.Now()
		sc := core.ServerConfig{
			Name:                "fs1",
			OpenWait:            30 * time.Second,
			ArchiveDir:          tier.Dir,
			ArchiveMemoryBudget: int64(c.BudgetMB) << 20,
			ArchiveFsync:        c.Fsync,
		}
		if err := durableChurn(sc, "restart", restartPaths, editSize, expected, false); err != nil {
			return nil, err
		}
		churnWall = time.Since(start)
		// The process restart: nothing survives but the directory.
		start = time.Now()
		store, err = archive.NewTiered(0, nil, tier)
		if err != nil {
			return nil, fmt.Errorf("cold reopen: %w", err)
		}
		replayWall = time.Since(start)
	}
	defer store.Close()
	diskAfterChurn := store.Tier().DiskBytes
	rec := store.Recovery()

	// Verification: every version of every file, byte for byte, plus
	// latest/point-in-time lookups, against a store that did not exist when
	// the versions were committed.
	verified := 0
	for i := range expected {
		n, err := verifyHistory(store, "fs1", fmt.Sprintf(restartPaths, i), expected[i])
		if err != nil {
			return nil, fmt.Errorf("E16: after restart: %w", err)
		}
		verified += n
	}

	// The acceptance bar: serving all of that re-archived NOTHING.
	reArchived := store.Dedup().NewBytes
	spills := store.Tier().Spills
	if reArchived != 0 || spills != 0 {
		return nil, fmt.Errorf("E16: reopen re-archived %d bytes (%d spills); the catalog failed its job", reArchived, spills)
	}
	final := store.Tier()

	t := &Table{
		Caption: "E16. Restart recovery: durable catalog serves history from a cold start",
		Headers: []string{"metric", "value"},
	}
	mode := "churn + restart (fresh dir)"
	if coldStart {
		mode = "verify-only (history found in -e16-dir)"
	}
	t.AddRow("run mode", mode)
	t.AddRow("files x versions", fmt.Sprintf("%d x %d (+v0 each)", c.Files, c.Versions))
	t.AddRow("linked file size / edit size", fmt.Sprintf("%s / %s", mib(fileSize), mib(editSize)))
	if !coldStart {
		t.AddRow("churn wall time", Dur(churnWall))
		t.AddRow("catalog replay wall time (cold open)", Dur(replayWall))
	}
	t.AddRow("histories / versions replayed", fmt.Sprintf("%d / %d", rec.Files, rec.Versions))
	t.AddRow("versions dropped (missing blobs)", fmt.Sprintf("%d", rec.DroppedVersions))
	t.AddRow("torn catalog-log bytes quarantined", fmt.Sprintf("%d", rec.TornBytes))
	t.AddRow("catalog records (snapshot / log)", fmt.Sprintf("%d / %d", rec.SnapshotRecords, rec.LogRecords))
	t.AddRow("versions verified byte-identical", fmt.Sprintf("%d (+%d point-in-time)", verified, c.Files))
	t.AddRow("bytes re-archived on reopen", fmt.Sprintf("%d (spills: %d)", reArchived, spills))
	t.AddRow("chunks paged in by verification", fmt.Sprintf("%d", final.PageIns))
	t.AddRow("on-disk bytes (physical)", mib(diskAfterChurn))
	t.AddRow("pack files / torn pack bytes", fmt.Sprintf("%d / %d", final.PackFiles, final.PackTornBytes))
	t.AddRow("fsync policy", fsyncPolicy.String())
	t.Note("the reopened store never existed while the versions were committed: the catalog (manifest log + snapshot) is the only index")
	t.Note("zero bytes re-archived is enforced, not just reported — a catalog regression fails the experiment (and the CI restart smoke job)")
	return []*Table{t}, nil
}
