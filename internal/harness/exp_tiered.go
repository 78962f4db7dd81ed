package harness

import (
	"bytes"
	"flag"
	"fmt"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/dlfm"
	"datalinks/internal/extent"
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
}

var e15 = tieredConfig{Files: 3, FileMB: 8, Versions: 10, EditKB: 64, BudgetMB: 4}

func (c *tieredConfig) flags(fs *flag.FlagSet) {
	posInt(fs, &c.Files, "e15-files", "E15: linked files")
	posInt(fs, &c.FileMB, "e15-filesize", "E15: linked file size in MiB")
	posInt(fs, &c.Versions, "e15-versions", "E15: versions committed per file")
	posInt(fs, &c.BudgetMB, "e15-budget", "E15: member memory budget in MiB (ArchiveMemoryBudget): the file system's resident chunks must stay within it")
	fs.StringVar(&c.Dir, "e15-dir", c.Dir, "E15: on-disk chunk store directory (default: private temp dir)")
}

func init() {
	Register(Experiment{
		ID:    "E15",
		Title: "Durable tiered archive: resident memory vs logical bytes, spill/page-out/GC",
		Paper: "§4.4 archives every committed version and §4.2 quarantines rolled-back content. A RAM-resident archive caps how many users/versions a server can hold; with the disk tier every version lives on disk, the linked files' committed chunks page out against the versions they were archived as so resident memory stays within the member's budget, restores read chunks back from disk, and GC reclaims unreferenced chunks and aged quarantine files.",
		Run:   e15.run,
		Flags: e15.flags,
	})
}

// run drives the tiered-archive workload: version churn under a memory
// budget, rollback restores that read from disk, quarantine TTL expiry, and a
// point-in-time restore whose truncated versions are reclaimed by GC. It fails
// when the file system's resident chunks pass the budget after a commit or
// after the rollbacks once every restored file is read back, or pass it by
// more than the chunks the aborted updates dirtied once their quarantine
// copies are made and again once every copy is read back.
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
		QuarantineTTL:       quarantineTTL,
	}, 30*time.Second)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sys.DB().MustExec(`CREATE TABLE tiered (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)

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
	withinBudget := func(when string, slack int64) error {
		if r := srv.Phys.ResidentBytes(); r > budget+slack {
			return fmt.Errorf("E15 FAILED: the file system holds %s of resident chunks %s, over the %s budget + %s", mib(r), when, mib(budget), mib(slack))
		}
		return nil
	}
	var maxResident int64
	sess := sys.NewSession(expUID)
	rng := workload.RNG(99)
	var midStateID uint64
	start := time.Now()
	for v := 0; v < c.Versions; v++ {
		for i := 0; i < c.Files; i++ {
			edit := workload.Content(rng, int(editSize))
			off := (int64(v*c.Files+i) * editSize * 13) % (fileSize - editSize + 1)
			if err := commitEdit(sys.DB(), sess.OpenWrite, "tiered", i, off, edit); err != nil {
				return nil, err
			}
			copy(committed[i][off:], edit)
			maxResident = max(maxResident, srv.Phys.ResidentBytes())
			if err := withinBudget(fmt.Sprintf("after commit %d of file %d", v, i), 0); err != nil {
				return nil, err
			}
		}
		if v == c.Versions/2 {
			midStateID = sys.Engine.StateID()
		}
	}
	churnWall := time.Since(start)
	churn := srv.Archive.Tier()
	dedup := srv.Archive.Dedup()

	// Phase 2: rollbacks. The in-flight content is moved to the quarantine
	// directory, chunks and chunk source as they are, and the last committed
	// version installed unread from the archive into the same file, so the
	// rollbacks add at most the chunk each in-flight write dirtied.
	junk := []byte("in-flight junk that must be quarantined")
	for i := 0; i < c.Files; i++ {
		url, err := writeURL(sys.DB(), "tiered", i)
		if err != nil {
			return nil, err
		}
		f, err := sess.OpenWrite(url)
		if err != nil {
			return nil, err
		}
		if _, err := f.WriteAt(0, junk); err != nil {
			return nil, err
		}
		if err := f.Abort(); err != nil {
			return nil, err
		}
	}
	quarantined := len(srv.DLFM.QuarantinedFiles())
	withQuarantine := srv.Phys.ResidentBytes()
	if err := withinBudget("with the quarantine copies", int64(c.Files)*extent.ChunkSize); err != nil {
		return nil, err
	}
	// A quarantine copy pages like any file: reading it back faults its clean
	// chunks in from the archive and pages them out again within the budget.
	quarantinedOK := 0
	for _, name := range srv.DLFM.QuarantinedFiles() {
		got, err := srv.Phys.ReadFile(dlfm.DefaultQuarantineDir + "/" + name)
		if err != nil {
			return nil, err
		}
		for i := range committed {
			if bytes.HasPrefix(got, junk) && bytes.Equal(got[len(junk):], committed[i][len(junk):]) {
				quarantinedOK++
				break
			}
		}
	}
	if err := withinBudget("after reading every quarantine copy back", int64(c.Files)*extent.ChunkSize); err != nil {
		return nil, err
	}

	// Phase 3: quarantine TTL expiry.
	time.Sleep(2 * quarantineTTL)
	expired := srv.DLFM.SweepQuarantine()

	// The restored files were installed unread: reading them back faults
	// their chunks in from disk within the budget.
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
	if err := withinBudget("after the rollbacks and reading every restored file back", 0); err != nil {
		return nil, err
	}
	afterRestore := srv.Archive.Tier()
	reg := srv.DLFM.Metrics()
	pageOuts, faultIns := reg.Counter("fs.pageouts").Value(), reg.Counter("fs.faultins").Value()

	// Phase 4: point-in-time restore to the mid-run state; the truncated
	// versions' chunks become unreferenced and GC reclaims their files.
	diskBefore := srv.Archive.Tier().DiskBlobs
	if err := sys.Engine.RestoreToState(midStateID); err != nil {
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
	t.AddRow("memory budget", mib(budget))
	t.AddRow("fs resident bytes (max after a commit)", mib(maxResident))
	t.AddRow("fs page-outs / fault-ins", fmt.Sprintf("%d / %d chunks", pageOuts, faultIns))
	t.AddRow("fs resident bytes with the quarantine copies", mib(withQuarantine))
	t.AddRow("chunks spilled to disk", fmt.Sprintf("%d", churn.Spills))
	t.AddRow("pack appends / pack files", fmt.Sprintf("%d / %d", churn.PackAppends, churn.PackFiles))
	t.AddRow("pack dead space / compactions", fmt.Sprintf("%d B / %d", churn.PackDeadBytes, churn.PackCompactions))
	chunkFs, catFs := srv.Archive.Fsyncs()
	t.AddRow("fsyncs (chunkdisk / catalog)", fmt.Sprintf("%d / %d", chunkFs, catFs))
	t.AddRow("rollbacks restored from archive", fmt.Sprintf("%d/%d verified byte-identical", restoredOK, c.Files))
	t.AddRow("chunks read from disk by restores", fmt.Sprintf("%d", afterRestore.PageIns-churn.PageIns))
	t.AddRow("files quarantined", fmt.Sprintf("%d (%d read back byte-identical)", quarantined, quarantinedOK))
	t.AddRow("quarantine files expired by GC", fmt.Sprintf("%d", expired))
	t.AddRow("disk chunks before/after PIT restore + GC", fmt.Sprintf("%d / %d (GC freed %d)", diskBefore, final.DiskBlobs, gcFreed))
	t.Note("the linked files' resident chunks stay within the memory budget no matter how many versions accumulate: a clean chunk pages out against the version it was archived as, and the full deduplicated history lives on disk")
	t.Note("a rollback moves the in-flight content to its quarantine file with its chunk source, so quarantining reads nothing and the copy pages like any file: the copies add at most the chunk each in-flight write dirtied, read back or not")
	t.Note("restores and AsOf read chunks from disk on first access; GC retires the pack records no surviving version references, compacting a pack once half of it is dead, and expires aged quarantine files")
	if restoredOK != c.Files || quarantined != c.Files || quarantinedOK != quarantined || expired != quarantined {
		return []*Table{t}, fmt.Errorf("E15 FAILED: of %d rollbacks, %d restored byte-identical, %d quarantined, %d quarantine copies read back and %d expired; want all",
			c.Files, restoredOK, quarantined, quarantinedOK, expired)
	}
	return []*Table{t}, nil
}
