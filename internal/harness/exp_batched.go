package harness

import (
	"fmt"
	"sync"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/workload"
)

// batchedConfig is E17's shape: Sessions concurrent sessions each commit
// Commits tiny in-place edits (EditBytes at rotating offsets) to their own
// FileKB linked file. Nothing sweeps it from the command line, so it has no
// flags; the sweep E17 exists for (the fsync policy) is in run.
type batchedConfig struct {
	Sessions  int
	Commits   int
	FileKB    int
	EditBytes int
}

var e17 = batchedConfig{
	Sessions:  8,
	Commits:   25,
	FileKB:    96, // one 64 KiB chunk + a 32 KiB tail
	EditBytes: 512,
}

func init() {
	Register(Experiment{
		ID:    "E17",
		Title: "Batched archive writes: packfiles + group-commit fsync under a small-edit commit storm",
		Paper: "§4.4's archive device must keep up with the update stream. Packfiles turn N small blobs into one sequential append stream — a file is created per pack, not per blob — and the group-commit fsync pipeline buys power-loss durability at a fraction of fsync-per-append's cost: concurrent committers coalesce behind shared fdatasyncs.",
		Run:   e17.run,
	})
}

// batchedResult is what one commit-storm round measured.
type batchedResult struct {
	wall         time.Duration
	commits      int
	files        int64 // files the archive tier created
	fsyncs       int64 // chunkdisk + catalog fdatasyncs
	packAppends  int64
	packDead     int64
	spills       int64
	archiveBytes int64
}

// maxFilesPerCommit is E17's gate: packfiles make file creation a per-pack
// cost, so a storm that creates more than one file per eight commits is
// writing blobs somewhere else.
const maxFilesPerCommit = 1.0 / 8

// run sweeps the fsync policies over the same commit storm and tabulates
// throughput against file-creation and fsync cost. It fails when any row
// creates more than maxFilesPerCommit files per commit — a count, so it gates
// under go test too.
func (c *batchedConfig) run() ([]*Table, error) {
	t := &Table{
		Caption: "E17. Small-edit commit storm: packfile batching and fsync policy",
		Headers: []string{"fsync", "wall", "commits/s", "files/commit", "fsyncs/commit", "pack appends", "pack dead space", "archive KB"},
	}
	var baseline, worstFiles float64
	for _, fsync := range []string{"none", "always", "group"} {
		r, err := c.round(fsync)
		if err != nil {
			return nil, fmt.Errorf("E17 fsync=%s: %w", fsync, err)
		}
		commitsPerSec := float64(r.commits) / r.wall.Seconds()
		if baseline == 0 {
			baseline = commitsPerSec
		}
		files := float64(r.files) / float64(r.commits)
		worstFiles = max(worstFiles, files)
		t.AddRow(
			fsync,
			Dur(r.wall),
			fmt.Sprintf("%.0f (%.2fx)", commitsPerSec, commitsPerSec/baseline),
			fmt.Sprintf("%.3f", files),
			fmt.Sprintf("%.2f", float64(r.fsyncs)/float64(r.commits)),
			fmt.Sprintf("%d", r.packAppends),
			fmt.Sprintf("%.1f KiB", float64(r.packDead)/1024),
			fmt.Sprintf("%.0f", float64(r.archiveBytes)/1024),
		)
	}
	t.Note("%d sessions x %d commits of %dB edits to private %dKB rfd files; every commit archives ~1 small blob + 1 catalog record", c.Sessions, c.Commits, c.EditBytes, c.FileKB)
	t.Note("every blob is appended to a shared packfile: files/commit is pack creation only, gated at most %.3f", maxFilesPerCommit)
	t.Note("fsync=always flushes per append; fsync=group coalesces concurrent committers behind shared fdatasyncs (fewer fsyncs/commit, higher commits/s at the same power-loss guarantee per commit barrier)")
	if worstFiles > maxFilesPerCommit {
		return []*Table{t}, fmt.Errorf("E17 FAILED: a storm created %.3f files per commit, above %.3f", worstFiles, maxFilesPerCommit)
	}
	return []*Table{t}, nil
}

// round drives one commit storm through the full stack and collects the
// write-path counters.
func (c *batchedConfig) round(fsync string) (batchedResult, error) {
	var r batchedResult
	fileSize := int64(c.FileKB) << 10
	editSize := min(int64(c.EditBytes), fileSize)

	dir, cleanup, err := workDir("", "dlarchive-e17-*")
	if err != nil {
		return r, err
	}
	defer cleanup()

	sys, srv, err := newSystem(core.ServerConfig{
		Name:         "fs1",
		OpenWait:     30 * time.Second,
		ArchiveDir:   dir,
		ArchiveFsync: fsync,
	}, 30*time.Second)
	if err != nil {
		return r, err
	}
	defer sys.Close()
	sys.DB().MustExec(`CREATE TABLE storm (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	for i := 0; i < c.Sessions; i++ {
		content := workload.Content(workload.RNG(int64(7000+i)), int(fileSize))
		if err := seedAndLink(sys, srv, "storm", i, fmt.Sprintf("/storm/f%d.bin", i), content); err != nil {
			return r, err
		}
	}

	// Baseline the counters after seeding/linking (v0 archives included the
	// whole file; the storm is what we measure).
	tier0 := srv.Archive.Tier()
	chunk0, cat0 := srv.Archive.Fsyncs()
	new0 := srv.Archive.Dedup().NewBytes

	var wg sync.WaitGroup
	var failed firstError
	start := time.Now()
	for w := 0; w < c.Sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := sys.NewSession(expUID)
			rng := workload.RNG(int64(7900 + w))
			for i := 0; i < c.Commits; i++ {
				edit := workload.Content(rng, int(editSize))
				off := (int64(i*13+w*7) * editSize) % (fileSize - editSize + 1)
				if err := commitEdit(sys.DB(), sess.OpenWrite, "storm", w, off, edit); err != nil {
					failed.set(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	r.wall = time.Since(start)
	if err := failed.get(); err != nil {
		return r, err
	}

	tier := srv.Archive.Tier()
	chunk, cat := srv.Archive.Fsyncs()
	r.commits = c.Sessions * c.Commits
	r.files = tier.FilesCreated - tier0.FilesCreated
	r.fsyncs = (chunk - chunk0) + (cat - cat0)
	r.packAppends = tier.PackAppends - tier0.PackAppends
	r.packDead = tier.PackDeadBytes - tier0.PackDeadBytes
	r.spills = tier.Spills - tier0.Spills
	r.archiveBytes = srv.Archive.Dedup().NewBytes - new0
	return r, nil
}
