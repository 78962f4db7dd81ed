package harness

import (
	"flag"
	"fmt"
	"sync"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/extent"
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

// subChunkEditKB is the edit size of E14's second pass: a 4 KiB edit touches
// a sixteenth of a chunk, so it is archived as a patch, not a chunk.
const subChunkEditKB = 4

// largeFilePass is what one pass of the workload measured.
type largeFilePass struct {
	editSize, written, newBytes, logical, shared, deduped int64
	wall                                                  time.Duration
}

// run drives the large-file update workload twice — with the configured edit
// size, and with 4 KiB edits — and reports the data-plane cost ratios of the
// extent store. The 4 KiB pass is gated: without sub-chunk versions every
// such edit archives its whole 64 KiB chunk (ratio 16), so its archived/
// written ratio must stay below a third of that.
func (c *largeFileConfig) run() ([]*Table, error) {
	p, err := c.pass(int64(c.EditKB) << 10)
	if err != nil {
		return nil, err
	}
	small, err := c.pass(subChunkEditKB << 10)
	if err != nil {
		return nil, err
	}
	commits := int64(c.Sessions * c.Edits)
	t := &Table{
		Caption: "E14. Large-file update workload (per-commit archive cost)",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("sessions x edits", fmt.Sprintf("%d x %d (%d commits)", c.Sessions, c.Edits, commits))
	t.AddRow("linked file size", mib(int64(c.SizeMB)<<20))
	t.AddRow("edit size", mib(p.editSize))
	t.AddRow("wall time", Dur(p.wall))
	t.AddRow("bytes written by apps", mib(p.written))
	t.AddRow("bytes archived (physical)", mib(p.newBytes))
	t.AddRow("bytes archived (flat-copy equivalent)", mib(p.logical))
	t.AddRow("archived/written ratio", fmt.Sprintf("%.2f", p.ratio()))
	t.AddRow("flat-copy ratio (old cost)", fmt.Sprintf("%.0f", float64(p.logical)/float64(p.written)))
	t.AddRow("chunks deduplicated", fmt.Sprintf("%d (%s saved)", p.shared, mib(p.deduped)))
	wholeChunk := float64(extent.ChunkSize) / float64(small.editSize)
	t.AddRow(fmt.Sprintf("%d KiB edits: bytes archived (physical)", subChunkEditKB), fmt.Sprintf("%s of %s written", mib(small.newBytes), mib(small.written)))
	t.AddRow(fmt.Sprintf("%d KiB edits: archived/written ratio", subChunkEditKB), fmt.Sprintf("%.2f (a chunk per edit: %.0f)", small.ratio(), wholeChunk))
	t.Note("archived/written near 1 means commits cost O(changed bytes); the flat-copy ratio is what the same workload cost before extent manifests (filesize/delta)")
	t.Note("%d KiB edits are archived as patches over the chunk an earlier version stored; the first commit to a chunk after link, and the one that would outgrow its bounded patch chain, store the chunk", subChunkEditKB)
	if small.ratio() >= wholeChunk/3 {
		return []*Table{t}, fmt.Errorf("E14 FAILED: %d KiB edits archive %.2f bytes per byte written, not below a third of a chunk per edit (%.2f)", subChunkEditKB, small.ratio(), wholeChunk/3)
	}
	return []*Table{t}, nil
}

func (p largeFilePass) ratio() float64 { return float64(p.newBytes) / float64(p.written) }

// pass runs the workload once on a fresh system, with edits of editSize.
func (c *largeFileConfig) pass(editSize int64) (largeFilePass, error) {
	fileSize := int64(c.SizeMB) << 20
	editSize = min(editSize, fileSize)

	sys, srv, err := newSystem(core.ServerConfig{Name: "fs1", OpenWait: 30 * time.Second}, 30*time.Second)
	if err != nil {
		return largeFilePass{}, err
	}
	defer sys.Close()
	sys.DB().MustExec(`CREATE TABLE big (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	for i := 0; i < c.Sessions; i++ {
		content := workload.Content(workload.RNG(int64(i)), int(fileSize))
		if err := seedAndLink(sys, srv, "big", i, fmt.Sprintf("/big/f%d.bin", i), content); err != nil {
			return largeFilePass{}, err
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
				if err := commitEdit(sys.DB(), sess.OpenWrite, "big", i, off, edit); err != nil {
					failed.set(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := failed.get(); err != nil {
		return largeFilePass{}, err
	}
	d := srv.Archive.Dedup()
	return largeFilePass{
		editSize: editSize,
		wall:     time.Since(start),
		written:  int64(c.Sessions*c.Edits) * editSize,
		newBytes: d.NewBytes - base.NewBytes,
		logical:  d.LogicalBytes - base.LogicalBytes,
		shared:   d.SharedChunks - base.SharedChunks,
		deduped:  d.DedupedBytes - base.DedupedBytes,
	}, nil
}
