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
// flags; the sweep E17 exists for (packs on/off x fsync policy) is in run.
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
		Paper: "§4.4's archive device must keep up with the update stream. After the O(delta) commit path, every small blob still cost its own create+write+rename file cycle and the catalog append had no durability policy. Packfiles turn N small blobs into one sequential append stream, and the group-commit fsync pipeline buys power-loss durability at a fraction of fsync-per-append's cost: concurrent committers coalesce behind shared fdatasyncs.",
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

// run sweeps the write-path configurations over the same commit storm and
// tabulates throughput against file-creation and fsync cost.
func (c *batchedConfig) run() ([]*Table, error) {
	configs := []struct {
		label string
		packs bool
		fsync string
	}{
		{"packs=off fsync=none", false, "none"},
		{"packs=on  fsync=none", true, "none"},
		{"packs=on  fsync=always", true, "always"},
		{"packs=on  fsync=group", true, "group"},
	}
	t := &Table{
		Caption: "E17. Small-edit commit storm: packfile batching and fsync policy",
		Headers: []string{"config", "wall", "commits/s", "files/commit", "fsyncs/commit", "pack appends", "pack dead space", "archive KB"},
	}
	var baseline float64
	for _, wp := range configs {
		r, err := c.round(wp.packs, wp.fsync)
		if err != nil {
			return nil, fmt.Errorf("E17 %s: %w", wp.label, err)
		}
		commitsPerSec := float64(r.commits) / r.wall.Seconds()
		if baseline == 0 {
			baseline = commitsPerSec
		}
		t.AddRow(
			wp.label,
			Dur(r.wall),
			fmt.Sprintf("%.0f (%.2fx)", commitsPerSec, commitsPerSec/baseline),
			fmt.Sprintf("%.3f", float64(r.files)/float64(r.commits)),
			fmt.Sprintf("%.2f", float64(r.fsyncs)/float64(r.commits)),
			fmt.Sprintf("%d", r.packAppends),
			fmt.Sprintf("%.1f KiB", float64(r.packDead)/1024),
			fmt.Sprintf("%.0f", float64(r.archiveBytes)/1024),
		)
	}
	t.Note("%d sessions x %d commits of %dB edits to private %dKB rfd files; every commit archives ~1 small blob + 1 catalog record", c.Sessions, c.Commits, c.EditBytes, c.FileKB)
	t.Note("packs=off costs ~1 created file per commit; packs=on appends to shared packfiles — files/commit collapses to pack creation only")
	t.Note("fsync=always flushes per append; fsync=group coalesces concurrent committers behind shared fdatasyncs (fewer fsyncs/commit, higher commits/s at the same power-loss guarantee per commit barrier)")
	return []*Table{t}, nil
}

// round drives one commit storm through the full stack and collects the
// write-path counters.
func (c *batchedConfig) round(packs bool, fsync string) (batchedResult, error) {
	var r batchedResult
	fileSize := int64(c.FileKB) << 10
	editSize := min(int64(c.EditBytes), fileSize)

	dir, cleanup, err := workDir("", "dlarchive-e17-*")
	if err != nil {
		return r, err
	}
	defer cleanup()

	packThreshold := int64(0) // chunkdisk default: packs on
	if !packs {
		packThreshold = -1
	}
	sys, srv, err := newSystem(core.ServerConfig{
		Name:                 "fs1",
		OpenWait:             30 * time.Second,
		ArchiveDir:           dir,
		ArchiveFsync:         fsync,
		ArchivePackThreshold: packThreshold,
	}, 30*time.Second)
	if err != nil {
		return r, err
	}
	defer sys.Close()
	sys.DB.MustExec(`CREATE TABLE storm (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	for i := 0; i < c.Sessions; i++ {
		content := workload.Content(workload.RNG(int64(7000+i)), int(fileSize))
		if err := seedAndLink(sys, srv, "storm", i, fmt.Sprintf("/storm/f%d.bin", i), content); err != nil {
			return r, err
		}
	}

	// Baseline the counters after seeding/linking (v0 archives included the
	// whole file; the storm is what we measure).
	srv.DLFM.WaitArchives()
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
				if err := commitEdit(sys.DB, sess.OpenWrite, "storm", w, off, edit); err != nil {
					failed.set(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	srv.DLFM.WaitArchives()
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
