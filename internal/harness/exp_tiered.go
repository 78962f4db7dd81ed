package harness

import (
	"flag"
	"fmt"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/workload"
)

// tieredConfig is E15's knobs.
type tieredConfig struct {
	Files    int
	FileMB   int
	Versions int
	EditKB   int
	BudgetMB int
	Dir      string // "" = private temp dir, removed afterwards
	Compress bool
}

var e15 = tieredConfig{Files: 3, FileMB: 8, Versions: 10, EditKB: 64, BudgetMB: 4}

func (c *tieredConfig) flags(fs *flag.FlagSet) {
	posInt(fs, &c.Files, "e15-files", "E15: linked files")
	posInt(fs, &c.FileMB, "e15-filesize", "E15: linked file size in MiB")
	posInt(fs, &c.Versions, "e15-versions", "E15: versions committed per file")
	posInt(fs, &c.BudgetMB, "e15-budget", "E15: archive LRU memory budget in MiB")
	fs.StringVar(&c.Dir, "e15-dir", c.Dir, "E15: on-disk chunk store directory (default: private temp dir)")
	fs.BoolVar(&c.Compress, "e15-compress", c.Compress, "E15: flate-compress spilled archive chunks")
}

func init() {
	Register(Experiment{
		ID:    "E15",
		Title: "Durable tiered archive: resident memory vs logical bytes, spill/page-in/GC",
		Paper: "§4.4 archives every committed version and §4.2 quarantines rolled-back content. A RAM-resident archive caps how many users/versions a server can hold; with the disk tier, resident memory is bounded by the LRU budget while versions accumulate on disk, restores page chunks back in, and GC reclaims unreferenced chunks and aged quarantine files.",
		Run:   e15.run,
		Flags: e15.flags,
	})
}

// run drives the tiered-archive workload: version churn under a bounded LRU,
// rollback restores that page from disk, quarantine TTL expiry, and a
// point-in-time restore whose truncated versions are reclaimed by GC.
func (c *tieredConfig) run() ([]*Table, error) {
	fileSize := int64(c.FileMB) << 20
	editSize := min(int64(c.EditKB)<<10, fileSize)
	budget := int64(c.BudgetMB) << 20

	dir, cleanup, err := workDir(c.Dir, "dlarchive-e15-*")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	const quarantineTTL = 50 * time.Millisecond

	sys, srv, err := newSystem(core.ServerConfig{
		Name:                "fs1",
		OpenWait:            30 * time.Second,
		ArchiveDir:          dir,
		ArchiveMemoryBudget: budget,
		ArchiveCompress:     c.Compress,
		QuarantineTTL:       quarantineTTL,
	}, 30*time.Second)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sys.DB.MustExec(`CREATE TABLE tiered (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)

	paths := make([]string, c.Files)
	committed := make([][]byte, c.Files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/tiered/f%d.bin", i)
		committed[i] = workload.Content(workload.RNG(int64(i)), int(fileSize))
		if err := seedAndLink(sys, srv, "tiered", i, paths[i], committed[i]); err != nil {
			return nil, err
		}
	}

	// Phase 1: version churn. Capture a mid-run state id for the later
	// point-in-time restore.
	sess := sys.NewSession(expUID)
	rng := workload.RNG(99)
	var midStateID uint64
	start := time.Now()
	for v := 0; v < c.Versions; v++ {
		for i := 0; i < c.Files; i++ {
			edit := workload.Content(rng, int(editSize))
			off := (int64(v*c.Files+i) * editSize * 13) % (fileSize - editSize + 1)
			if err := commitEdit(sys.DB, sess.OpenWrite, "tiered", i, off, edit); err != nil {
				return nil, err
			}
			copy(committed[i][off:], edit)
		}
		if v == c.Versions/2 {
			srv.DLFM.WaitArchives()
			midStateID = sys.Engine.StateID()
		}
	}
	srv.DLFM.WaitArchives()
	churnWall := time.Since(start)
	churn := srv.Archive.Tier()
	dedup := srv.Archive.Dedup()

	// Phase 2: rollbacks. The in-flight junk is quarantined and the last
	// committed version restored — paging its evicted chunks back in.
	for i := 0; i < c.Files; i++ {
		url, err := writeURL(sys.DB, "tiered", i)
		if err != nil {
			return nil, err
		}
		f, err := sess.OpenWrite(url)
		if err != nil {
			return nil, err
		}
		if _, err := f.WriteAt(0, []byte("in-flight junk that must be quarantined")); err != nil {
			return nil, err
		}
		if err := f.Abort(); err != nil {
			return nil, err
		}
	}
	restoredOK := 0
	for i := 0; i < c.Files; i++ {
		got, err := srv.Phys.ReadFile(paths[i])
		if err != nil {
			return nil, err
		}
		if string(got) == string(committed[i]) {
			restoredOK++
		}
	}
	afterRestore := srv.Archive.Tier()
	quarantined := len(srv.DLFM.QuarantinedFiles())

	// Phase 3: quarantine TTL expiry.
	time.Sleep(2 * quarantineTTL)
	expired := srv.DLFM.SweepQuarantine()

	// Phase 4: point-in-time restore to the mid-run state; the truncated
	// versions' chunks become unreferenced and GC reclaims their files.
	diskBefore := srv.Archive.Tier().DiskBlobs
	if err := srv.DLFM.RestoreAsOf(midStateID); err != nil {
		return nil, err
	}
	gcFreed := srv.Archive.GCNow()
	final := srv.Archive.Tier()

	t := &Table{
		Caption: "E15. Durable tiered archive (disk spill, bounded memory, GC)",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("files x versions", fmt.Sprintf("%d x %d (+v0 each)", c.Files, c.Versions))
	t.AddRow("linked file size / edit size", fmt.Sprintf("%s / %s", mib(fileSize), mib(editSize)))
	t.AddRow("churn wall time", Dur(churnWall))
	t.AddRow("logical archive bytes", mib(dedup.LogicalBytes))
	t.AddRow("on-disk archive bytes (physical)", mib(churn.DiskBytes))
	t.AddRow("on-disk archive bytes (logical)", fmt.Sprintf("%s (compress: %v)", mib(churn.DiskLogicalBytes), c.Compress))
	t.AddRow("LRU budget", mib(budget))
	t.AddRow("archive resident bytes", fmt.Sprintf("%s (bounded: %v)", mib(churn.ResidentBytes), churn.ResidentBytes <= budget))
	t.AddRow("chunks spilled to disk", fmt.Sprintf("%d", churn.Spills))
	t.AddRow("LRU evictions", fmt.Sprintf("%d", churn.Evictions))
	t.AddRow("pack appends / pack files", fmt.Sprintf("%d / %d", churn.PackAppends, churn.PackFiles))
	t.AddRow("pack dead space / compactions", fmt.Sprintf("%d B / %d", churn.PackDeadBytes, churn.PackCompactions))
	chunkFs, catFs := srv.Archive.Fsyncs()
	t.AddRow("fsyncs (chunkdisk / catalog)", fmt.Sprintf("%d / %d", chunkFs, catFs))
	t.AddRow("rollbacks restored from archive", fmt.Sprintf("%d/%d verified byte-identical", restoredOK, c.Files))
	t.AddRow("chunks paged in by restores", fmt.Sprintf("%d", afterRestore.PageIns-churn.PageIns))
	t.AddRow("files quarantined", fmt.Sprintf("%d", quarantined))
	t.AddRow("quarantine files expired by GC", fmt.Sprintf("%d", expired))
	t.AddRow("disk chunks before/after PIT restore + GC", fmt.Sprintf("%d / %d (GC freed %d)", diskBefore, final.DiskBlobs, gcFreed))
	t.Note("resident bytes stay under the LRU budget no matter how many versions accumulate; the full deduplicated history lives on disk")
	t.Note("restores and AsOf page evicted chunks back in on demand; GC unlinks chunk files no surviving version references and expires aged quarantine files")
	return []*Table{t}, nil
}
