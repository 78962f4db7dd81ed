package harness

import (
	"flag"
	"fmt"
	"sync"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/workload"
)

// largeFileConfig is E14's knobs: Sessions sessions each commit Edits small
// edits to their own large linked file, and the experiment reports how many
// bytes the archive device physically received per byte the applications
// wrote.
type largeFileConfig struct {
	Sessions int
	SizeMB   int
	Edits    int
	EditKB   int
}

var e14 = largeFileConfig{Sessions: 4, SizeMB: 16, Edits: 8, EditKB: 64}

func (c *largeFileConfig) flags(fs *flag.FlagSet) {
	posInt(fs, &c.SizeMB, "filesize", "E14: linked file size in MiB")
	posInt(fs, &c.Edits, "edits", "E14: edits committed per session")
	posInt(fs, &c.EditKB, "editsize", "E14: edit size in KiB")
}

func init() {
	Register(Experiment{
		ID:    "E14",
		Title: "Large-file update workload: bytes archived vs bytes written",
		Paper: "§4.4 archives the last committed version on every file-update transaction, making archive cost THE per-commit constant. With flat copies a 64 KiB edit to a 64 MiB linked file pays O(64 MiB) twice (read + archive); with extent manifests and chunk dedup it pays O(changed chunks).",
		Run:   e14.run,
		Flags: e14.flags,
	})
}

// run drives the large-file update workload and reports the data-plane cost
// ratios of the extent store.
func (c *largeFileConfig) run() ([]*Table, error) {
	fileSize := int64(c.SizeMB) << 20
	editSize := min(int64(c.EditKB)<<10, fileSize)

	sys, srv, err := newSystem(core.ServerConfig{Name: "fs1", OpenWait: 30 * time.Second}, 30*time.Second)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sys.DB.MustExec(`CREATE TABLE big (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	for i := 0; i < c.Sessions; i++ {
		content := workload.Content(workload.RNG(int64(i)), int(fileSize))
		if err := seedAndLink(sys, srv, "big", i, fmt.Sprintf("/big/f%d.bin", i), content); err != nil {
			return nil, err
		}
	}
	// Linking archived version 0 of every file (the whole content, once).
	// The edit phase below is what must cost O(delta); measure from here.
	base := srv.Archive.Dedup()

	var wg sync.WaitGroup
	var failed firstError
	start := time.Now()
	for i := 0; i < c.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := sys.NewSession(expUID)
			rng := workload.RNG(int64(1000 + i))
			for k := 0; k < c.Edits; k++ {
				// Fresh random content per edit: the ratio then measures the
				// O(delta) property, not dedup luck on repeated payloads.
				edit := workload.Content(rng, int(editSize))
				off := (int64(i*c.Edits+k) * editSize * 7) % (fileSize - editSize + 1)
				if err := commitEdit(sys.DB, sess.OpenWrite, "big", i, off, edit); err != nil {
					failed.set(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := failed.get(); err != nil {
		return nil, err
	}
	srv.DLFM.WaitArchives()
	wall := time.Since(start)
	d := srv.Archive.Dedup()

	commits := int64(c.Sessions * c.Edits)
	bytesWritten := commits * editSize
	newBytes := d.NewBytes - base.NewBytes
	logical := d.LogicalBytes - base.LogicalBytes
	residentGrowth := d.ResidentBytes - base.ResidentBytes

	t := &Table{
		Caption: "E14. Large-file update workload (per-commit archive cost)",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("sessions x edits", fmt.Sprintf("%d x %d (%d commits)", c.Sessions, c.Edits, commits))
	t.AddRow("linked file size", mib(fileSize))
	t.AddRow("edit size", mib(editSize))
	t.AddRow("wall time", Dur(wall))
	t.AddRow("bytes written by apps", mib(bytesWritten))
	t.AddRow("bytes archived (physical)", mib(newBytes))
	t.AddRow("bytes archived (flat-copy equivalent)", mib(logical))
	t.AddRow("archived/written ratio", fmt.Sprintf("%.2f", float64(newBytes)/float64(bytesWritten)))
	t.AddRow("flat-copy ratio (old cost)", fmt.Sprintf("%.0f", float64(logical)/float64(bytesWritten)))
	t.AddRow("chunks deduplicated", fmt.Sprintf("%d (%s saved)", d.SharedChunks-base.SharedChunks, mib(d.DedupedBytes-base.DedupedBytes)))
	t.AddRow("archive resident bytes", fmt.Sprintf("%s (+%s for %d versions of %s logical)",
		mib(d.ResidentBytes), mib(residentGrowth), commits, mib(logical)))
	t.Note("archived/written near 1 means commits cost O(changed bytes); the flat-copy ratio is what the same workload cost before extent manifests (filesize/delta)")
	t.Note("resident growth is sub-linear in versions: unchanged chunks are shared by content hash across all versions of all files")
	return []*Table{t}, nil
}
