package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"datalinks"
)

// Closed-loop load: every client sends its next operation only when the
// previous one returned, so a slower system receives less load. Two clients,
// because the sandbox has two CPUs; contention between them is not what the
// workloads measure, except on mixed_coexist.
const numClients = 2

const (
	commitBytes  = 4 << 10  // small_commit / mixed_coexist write size
	rangeBytes   = 16 << 10 // hot_read read size
	ingestBytes  = 1 << 20  // large_ingest append per commit
	ingestRoll   = 32 << 20 // large_ingest file size at which a client moves on
	popFiles     = 64
	popFileBytes = 256 << 10
	ingestBudget = 32 << 20 // ArchiveMemoryBudget on large_ingest
)

// options is what one pass over one workload needs to know.
type options struct {
	seed   int64
	window time.Duration
	dir    string // parent of the per-pass run directories
	traced bool
	setups int // how many times to set the stack up (the last one is used)

	// Sizes the smoke test shrinks; main uses the defaults of defaultOptions.
	ingestTotal   int64 // large_ingest: user bytes to bring in, warm-up included
	restartFiles  int
	restartRounds int
	minReopens    int
}

func defaultOptions() options {
	return options{
		seed:          1,
		window:        20 * time.Second,
		setups:        1,
		ingestTotal:   512 << 20,
		restartFiles:  128,
		restartRounds: 40,
		minReopens:    5,
	}
}

// warmup is the untimed lead-in of a window: 3 s before the reference 20 s,
// proportionally less before shorter ones.
func (o options) warmup() time.Duration {
	if w := o.window / 4; w < 3*time.Second {
		return w
	}
	return 3 * time.Second
}

// check is one output verification; a failed one fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// passResult is everything one pass (untraced or traced) over one workload
// measured, before it is turned into named metrics.
type passResult struct {
	setups []time.Duration

	commitLat, readLat, coldLat []time.Duration
	// loadElapsed is the span over which commitLat/readLat were collected,
	// opEnds when in it each of those operations ended.
	loadElapsed time.Duration
	opEnds      []time.Duration
	userBytes   int64
	diskGrowth  int64

	// ops, opsElapsed and use describe the window the resource metrics and
	// ops_per_s cover: the load window, or restart's reopen loop.
	ops        int
	opsElapsed time.Duration
	use        usage

	attempted, failed int
	peakRSS           float64

	// Counter deltas over the load window (layerWindow.end), and how many
	// operations they cover.
	ctr                    counters
	catalogBytes, walBytes int64
	closeP50, closeP99     float64
	shipP50, shipP99       float64
	layerOps               int
	checks                 []check
	trace                  *traceReport
	benchOps               []opTimes // traced pass: the benchmark's own spans
}

// addCheck records a check. Repeated under one name (large_ingest verifies
// every epoch) it holds only if every repetition did, and keeps the first
// failure's detail.
func (r *passResult) addCheck(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	for i := range r.checks {
		if r.checks[i].Name == name {
			if r.checks[i].OK {
				r.checks[i] = c
			}
			return
		}
	}
	r.checks = append(r.checks, c)
}

// population is the linked file set of a clustered workload and the
// benchmark's own record of what it must contain.
type population struct {
	fileSize int
	shadow   [][]byte // expected content per file (nil on large_ingest)

	// large_ingest: the operation numbers appended to each file, in order,
	// from which the expected stream is rebuilt for the sha256 comparison.
	ingestOps  [][]uint64
	ingestBase [numClients][]byte
	budget     atomic.Int64 // user bytes still to ingest in this phase
}

type opKind int

const (
	opCommit4K opKind = iota
	opRead16K
	opReadAll
	opIngest
)

// opTimes are the instants around the four calls of one traced operation:
// start, after the token SELECT, after open, after the read or write, after
// close. The benchmark's own spans are the gaps between them.
type opTimes struct {
	Client int      `json:"client"`
	Commit bool     `json:"commit"`
	File   int      `json:"file"`
	T      [5]int64 `json:"t_unix_ns"`
}

type client struct {
	id     int
	kind   opKind
	t      *target
	sess   opener
	gen    *opGen
	pop    *population
	traced bool
	buf    []byte

	// large_ingest position
	files   []int
	fileIdx int
	fileLen int64
	opSeq   uint64

	phaseStart         time.Time
	commitLat, readLat []time.Duration
	ends               []time.Duration // when each completed operation ended, since phaseStart
	attempted, failed  int
	userBytes          int64
	firstErr           error
	ops                []opTimes
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// transact runs one operation: token SELECT, open, io, close. It reports
// whether the operation completed; a failed one counts against every
// latency figure by being absent from them.
func (c *client) transact(id int, write bool, io func(f *datalinks.File) error) bool {
	c.attempted++
	fn := "DLURLCOMPLETE"
	if write {
		fn = "DLURLCOMPLETEWRITE"
	}
	var ts [5]time.Time
	ts[0] = time.Now()
	url, err := c.t.queryString(`SELECT `+fn+`(doc) FROM files WHERE id = ?`, id)
	if err != nil {
		c.fail(fmt.Errorf("select token for file %d: %w", id, err))
		return false
	}
	if c.traced {
		ts[1] = time.Now()
	}
	var f *datalinks.File
	if write {
		f, err = c.sess.OpenWrite(url)
	} else {
		f, err = c.sess.OpenRead(url)
	}
	if err != nil {
		c.fail(fmt.Errorf("open file %d: %w", id, err))
		return false
	}
	if c.traced {
		ts[2] = time.Now()
	}
	if err := io(f); err != nil {
		if write {
			_ = f.Abort() // best effort: the operation already counts as failed
		} else {
			_ = f.Close()
		}
		c.fail(fmt.Errorf("io on file %d: %w", id, err))
		return false
	}
	if c.traced {
		ts[3] = time.Now()
	}
	if err := f.Close(); err != nil {
		c.fail(fmt.Errorf("close file %d: %w", id, err))
		return false
	}
	ts[4] = time.Now()
	lat := ts[4].Sub(ts[0])
	c.ends = append(c.ends, ts[4].Sub(c.phaseStart))
	if write {
		c.commitLat = append(c.commitLat, lat)
	} else {
		c.readLat = append(c.readLat, lat)
	}
	if c.traced {
		op := opTimes{Client: c.id, Commit: write, File: id}
		for i, t := range ts {
			op.T[i] = t.UnixNano()
		}
		c.ops = append(c.ops, op)
	}
	return true
}

// step runs the client's next operation; false means it has no more to do.
func (c *client) step() bool {
	switch c.kind {
	case opCommit4K:
		id := c.gen.nextFile()
		off := c.gen.nextOffset(c.pop.fileSize, commitBytes)
		c.gen.fill(c.buf)
		if c.transact(id, true, func(f *datalinks.File) error {
			_, err := f.WriteAt(off, c.buf)
			return err
		}) {
			copy(c.pop.shadow[id][off:], c.buf)
			c.userBytes += commitBytes
		}
	case opRead16K:
		id := c.gen.nextFile()
		off := c.gen.nextOffset(c.pop.fileSize, rangeBytes)
		c.transact(id, false, func(f *datalinks.File) error {
			n, err := f.ReadAt(off, c.buf)
			if err != nil {
				return err
			}
			if n != rangeBytes || !bytes.Equal(c.buf, c.pop.shadow[id][off:off+rangeBytes]) {
				return fmt.Errorf("range [%d,+%d) differs from the seed content", off, rangeBytes)
			}
			return nil
		})
	case opReadAll:
		id := c.gen.nextFile()
		blk := int(c.gen.nextOffset(c.pop.fileSize, blockSize))
		c.transact(id, false, func(f *datalinks.File) error {
			b, err := f.ReadAll()
			if err != nil {
				return err
			}
			// The committer races this read, so there is no shadow to
			// compare with; length and one sealed block must still hold.
			if len(b) != c.pop.fileSize || !blockOK(b[blk:blk+blockSize]) {
				return fmt.Errorf("whole-file read returned %d bytes or a broken block at %d", len(b), blk)
			}
			return nil
		})
	case opIngest:
		if c.pop.budget.Add(-ingestBytes) < 0 {
			return false
		}
		if c.fileLen >= ingestRoll {
			c.fileIdx++
			c.fileLen = 0
		}
		if c.fileIdx >= len(c.files) {
			c.fail(errors.New("ran out of pre-linked ingest files"))
			return false
		}
		id, off := c.files[c.fileIdx], c.fileLen
		c.opSeq++
		seq := uint64(c.id)<<56 | c.opSeq
		stampIngest(c.buf, seq)
		if c.transact(id, true, func(f *datalinks.File) error {
			_, err := f.WriteAt(off, c.buf)
			return err
		}) {
			c.pop.ingestOps[id] = append(c.pop.ingestOps[id], seq)
			c.fileLen += ingestBytes
			c.userBytes += ingestBytes
		}
	}
	return true
}

// phaseResult is the merged outcome of one closed-loop phase.
type phaseResult struct {
	elapsed            time.Duration
	commitLat, readLat []time.Duration
	ends               []time.Duration
	attempted, failed  int
	userBytes          int64
	firstErr           error
	ops                []opTimes
}

// runPhase drives all clients for d (or until each has nothing left to do),
// waits for them, and returns what they recorded.
func runPhase(clients []*client, d time.Duration) phaseResult {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		c.phaseStart = start
		c.commitLat, c.readLat, c.ends, c.ops = nil, nil, nil, nil
		c.attempted, c.failed, c.userBytes, c.firstErr = 0, 0, 0, nil
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) && c.step() {
			}
		}(c)
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start)}
	for _, c := range clients {
		res.commitLat = append(res.commitLat, c.commitLat...)
		res.readLat = append(res.readLat, c.readLat...)
		res.ends = append(res.ends, c.ends...)
		res.ops = append(res.ops, c.ops...)
		res.attempted += c.attempted
		res.failed += c.failed
		res.userBytes += c.userBytes
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
	}
	return res
}

// clusteredSpec is what distinguishes the four workloads that run on ref3.
type clusteredSpec struct {
	kinds         [numClients]opKind
	ownFiles      bool // client w picks only ids = w mod 2
	zipfian       [numClients]bool
	archiveBudget int64
}

var clusteredSpecs = map[string]clusteredSpec{
	wSmallCommit:  {kinds: [numClients]opKind{opCommit4K, opCommit4K}, ownFiles: true},
	wHotRead:      {kinds: [numClients]opKind{opRead16K, opRead16K}, zipfian: [numClients]bool{true, true}},
	wLargeIngest:  {kinds: [numClients]opKind{opIngest, opIngest}, ownFiles: true, archiveBudget: ingestBudget},
	wMixedCoexist: {kinds: [numClients]opKind{opReadAll, opCommit4K}, zipfian: [numClients]bool{true, false}},
}

// requireFree fails loudly when the run dir cannot hold what a workload is
// about to write: shrinking silently would change what is measured.
func requireFree(dir string, need int64, workload string) error {
	free, err := freeBytes(dir)
	if err != nil {
		return nil // cannot tell: let the workload find out
	}
	if free < need {
		return fmt.Errorf("%s needs about %d MiB free in %s, found %d MiB; pass -dir", workload, need>>20, dir, free>>20)
	}
	return nil
}

// epoch is one set-up of ref3 with its population and clients. Every workload
// measures one epoch, except large_ingest, which at this sandbox's ingest rate
// would fill gigabytes of memory in a ten-second window: it measures epoch
// after epoch, each a fresh stack that takes in o.ingestTotal bytes, until
// the window is used up, so its footprint stays that of one epoch.
type epoch struct {
	w       workloadDef
	o       options
	t       *target
	pop     *population
	clients []*client
	setup   time.Duration
}

// newEpoch generates the inputs (not part of the system's set-up time), then
// opens the stack, seeds and links the population.
func newEpoch(w workloadDef, o options) (*epoch, error) {
	spec := clusteredSpecs[w.Name]
	e := &epoch{w: w, o: o, pop: &population{fileSize: popFileBytes}}
	var contents [][]byte
	if w.Name == wLargeIngest {
		perClient := (o.ingestTotal/numClients + ingestRoll - 1) / ingestRoll
		contents = make([][]byte, int(perClient+1)*numClients)
		for i := range contents {
			contents[i] = []byte{}
		}
		e.pop.ingestOps = make([][]uint64, len(contents))
		for c := range e.pop.ingestBase {
			e.pop.ingestBase[c] = make([]byte, ingestBytes)
			newOpGen(o.seed, w.Name+"/base", c, nil, false).rng.Read(e.pop.ingestBase[c])
		}
	} else {
		contents = make([][]byte, popFiles)
		e.pop.shadow = make([][]byte, popFiles)
		for id := range contents {
			contents[id] = fileContent(o.seed, id, popFileBytes)
			e.pop.shadow[id] = append([]byte(nil), contents[id]...)
		}
	}

	var err error
	e.t, e.setup, err = setUp(o, w.Name, func(dir string) (*target, error) {
		return openRef3(dir, o.traced, spec.archiveBudget)
	}, contents)
	if err != nil {
		return nil, err
	}

	e.clients = make([]*client, numClients)
	for c := range e.clients {
		var ids []int
		for id := range contents {
			if !spec.ownFiles || id%numClients == c {
				ids = append(ids, id)
			}
		}
		cl := &client{id: c, kind: spec.kinds[c], t: e.t, sess: e.t.session(), pop: e.pop, traced: o.traced,
			gen: newOpGen(o.seed, w.Name, c, ids, spec.zipfian[c])}
		switch cl.kind {
		case opCommit4K:
			cl.buf = make([]byte, commitBytes)
		case opRead16K:
			cl.buf = make([]byte, rangeBytes)
		case opIngest:
			cl.buf, cl.files = e.pop.ingestBase[c], ids
		}
		e.clients[c] = cl
	}
	return e, nil
}

// measure runs warm-up and one window of at most d on the epoch, adds what
// it measured to res, and verifies the epoch's output.
func (e *epoch) measure(res *passResult, d time.Duration) error {
	t, o := e.t, e.o
	// Warm-up, then quiesce so the window starts from settled counters and
	// directory sizes. On large_ingest the warm-up takes an eighth of the
	// epoch's bytes and the window the rest.
	e.pop.budget.Store(o.ingestTotal / 8)
	if warm := runPhase(e.clients, o.warmup()); warm.firstErr != nil {
		return fmt.Errorf("%s: warm-up: %w", e.w.Name, warm.firstErr)
	}
	t.waitArchives()
	e.pop.budget.Store(o.ingestTotal - o.ingestTotal/8)
	layers := t.beginLayerWindow()
	useBefore := readUsage()

	ph := runPhase(e.clients, d)

	t.waitArchives()
	res.use = res.use.add(readUsage().sub(useBefore))
	ops := len(ph.commitLat) + len(ph.readLat)
	layers.end(res, ops)
	res.commitLat = append(res.commitLat, ph.commitLat...)
	res.readLat = append(res.readLat, ph.readLat...)
	res.benchOps = append(res.benchOps, ph.ops...)
	for _, end := range ph.ends {
		res.opEnds = append(res.opEnds, res.loadElapsed+end)
	}
	res.loadElapsed += ph.elapsed
	res.ops += ops
	res.userBytes += ph.userBytes
	res.attempted += ph.attempted
	res.failed += ph.failed
	res.addCheck("no failed operations", ph.failed == 0, "%d of %d failed, first: %v", ph.failed, ph.attempted, ph.firstErr)

	if o.traced {
		res.trace.join(t, ph.ops) // before the read-back pushes the window out of the trace rings
	}
	if e.w.Name == wLargeIngest {
		verifyIngest(t, e.pop, res)
	} else {
		verifyShadow(t.session(), e.pop.shadow, res, selectReadURL(t))
	}
	return nil
}

// runClustered makes one pass over one of the ref3 workloads.
func runClustered(w workloadDef, o options) (*passResult, error) {
	ingest := w.Name == wLargeIngest
	if ingest {
		// Owner and replica each store the bytes once, plus manifests.
		if err := requireFree(o.dir, o.ingestTotal*23/10, w.Name); err != nil {
			return nil, err
		}
	}
	res := &passResult{trace: newTraceReport()}
	resetPeakRSS()
	// Set-ups that are thrown away exist only to make setup_s a median.
	for i := 1; i < o.setups; i++ {
		e, err := newEpoch(w, o)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, e.setup)
		e.t.discard()
	}
	for first := true; ; first = false {
		e, err := newEpoch(w, o)
		if err != nil {
			return nil, err
		}
		if first {
			// Later epochs set up right after a gigabyte was torn down; only
			// the first is like the throw-away set-ups.
			res.setups = append(res.setups, e.setup)
		}
		err = e.measure(res, o.window-res.loadElapsed)
		e.t.discard()
		if err != nil {
			return nil, err
		}
		// A last epoch shorter than a twentieth of the window adds nothing.
		if !ingest || o.window-res.loadElapsed < o.window/20 {
			break
		}
	}
	res.opsElapsed = res.loadElapsed
	if w.Name == wHotRead {
		checkBypass(res)
	}
	res.peakRSS = peakRSSMiB()
	return res, nil
}

// bypassCounters must not move while hot_read runs: the archive, catalog,
// chunk store, fsync rounds and replication have no part in a read.
var bypassCounters = []string{
	"dlfm.archive.jobs", "dlfm.archive.bytes_new", "dlfm.versions.committed",
	"catalog.fsyncs", "chunkdisk.fsyncs", "chunkdisk.pack.appends",
	"tier.spills", "tier.files_created", "wal.syncs",
	"dlfm.repl.applied", "repl.ships", "engine.meta_updates",
}

func checkBypass(res *passResult) {
	var moved []string
	for _, name := range bypassCounters {
		if res.ctr[name] != 0 {
			moved = append(moved, fmt.Sprintf("%s=%g", name, res.ctr[name]))
		}
	}
	res.addCheck("commit-path counters did not move", len(moved) == 0, "%v", moved)
	res.addCheck("durable dirs did not grow", res.diskGrowth == 0 && res.catalogBytes == 0, "grew %d B (catalog.log %d B)", res.diskGrowth, res.catalogBytes)
}

// selectReadURL asks the host database for a read-token URL.
func selectReadURL(t *target) func(id int) (string, error) {
	return func(id int) (string, error) {
		return t.queryString(`SELECT DLURLCOMPLETE(doc) FROM files WHERE id = ?`, id)
	}
}

// verifyShadow ends a workload: every file, read back through a session,
// must equal the benchmark's shadow copy.
func verifyShadow(sess opener, shadow [][]byte, res *passResult, urlFor func(id int) (string, error)) {
	bad, detail := 0, ""
	for id, want := range shadow {
		url, err := urlFor(id)
		var got []byte
		if err == nil {
			got, err = readURL(sess, url)
		}
		if err != nil || !bytes.Equal(got, want) {
			if bad++; detail == "" {
				detail = fmt.Sprintf("file %d: err=%v, %d bytes read, %d expected", id, err, len(got), len(want))
			}
		}
	}
	res.addCheck("read-back equals shadow copy", bad == 0, "%d of %d files differ; %s", bad, len(shadow), detail)
}

// verifyIngest streams every ingested file back and compares its sha256
// with the digest of the stream the generator says went in.
func verifyIngest(t *target, pop *population, res *passResult) {
	sess, urlFor := t.session(), selectReadURL(t)
	bad, detail := 0, ""
	buf := make([]byte, ingestBytes)
	for id, ops := range pop.ingestOps {
		want := sha256.New()
		for _, seq := range ops {
			base := pop.ingestBase[seq>>56]
			stampIngest(base, seq)
			want.Write(base)
		}
		got := sha256.New()
		n, err := streamBack(sess, urlFor, id, buf, got)
		if err != nil || n != int64(len(ops))*ingestBytes || !bytes.Equal(got.Sum(nil), want.Sum(nil)) {
			if bad++; detail == "" {
				detail = fmt.Sprintf("file %d: err=%v, %d bytes read, %d expected", id, err, n, int64(len(ops))*ingestBytes)
			}
		}
	}
	res.addCheck("read-back sha256 equals ingested stream", bad == 0, "%d files differ; %s", bad, detail)
}

// streamBack copies file id, read through a token and a session, into w.
func streamBack(sess opener, urlFor func(id int) (string, error), id int, buf []byte, w io.Writer) (int64, error) {
	url, err := urlFor(id)
	if err != nil {
		return 0, err
	}
	f, err := sess.OpenRead(url)
	if err != nil {
		return 0, err
	}
	var total int64
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			total += int64(n)
			_, _ = w.Write(buf[:n]) // the writer is a hash: Write never fails
		}
		if rerr != nil {
			err = rerr
			break
		}
		if n == 0 {
			break
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return total, err
}

// runDirFor picks the parent of all run directories: -dir if given, else
// /dev/shm when it is there, else a directory next to the benchmark.
func runDirFor(flagDir string) string {
	if flagDir != "" {
		return flagDir
	}
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		if d, err := os.MkdirTemp("/dev/shm", "datalinks-bench-"); err == nil {
			return d
		}
	}
	return filepath.Join(outDir(), fmt.Sprintf("run-%d", os.Getpid()))
}
