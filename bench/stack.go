package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"datalinks"
	"datalinks/internal/core"
	"datalinks/internal/metrics"
	"datalinks/internal/upcall"
)

// The reference stack "ref3" and its single-server sibling, built only from
// configuration values of the public datalinks API.

const (
	appUID   = 100
	tableDDL = `CREATE TABLE files (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`
	// traceCapacity is each member's ring of completed traces in a traced
	// pass. The join works on the operations still in the rings when the
	// window ends — the last three to four thousand, not all of them: a ring
	// large enough for a whole window is tens of MiB of live heap and slows
	// the traced pass down through the garbage collector.
	traceCapacity = 4096
)

// memberConfig is the one per-server configuration every workload uses: TCP
// upcalls through a pool of at most 2 connections, durable repo + archive
// with group fsync, default pack threshold.
func memberConfig(name, dir string, traced bool, archiveBudget int64) datalinks.ServerConfig {
	sc := datalinks.ServerConfig{
		Name:                name,
		TCPUpcalls:          true,
		UpcallNet:           &upcall.NetConfig{Client: upcall.ClientConfig{PoolSize: 2}},
		OpenWait:            10 * time.Second,
		RepoDir:             filepath.Join(dir, name, "repo"),
		RepoFsync:           "group",
		ArchiveDir:          filepath.Join(dir, name, "archive"),
		ArchiveFsync:        "group",
		ArchiveMemoryBudget: archiveBudget,
	}
	if traced {
		sc.Trace = true
		sc.TraceCapacity = traceCapacity
	}
	return sc
}

// opener is what a client needs from a session of either deployment.
type opener interface {
	OpenRead(url string) (*datalinks.File, error)
	OpenWrite(url string) (*datalinks.File, error)
}

// target is the system under test: the 3-member replicated cluster, or the
// single server of the restart workload.
type target struct {
	cluster *datalinks.Cluster
	sys     *datalinks.System
	dir     string
}

const singleName = "fs1"

func openRef3(dir string, traced bool, archiveBudget int64) (*target, error) {
	members := make([]datalinks.ServerConfig, 3)
	for i := range members {
		members[i] = memberConfig(fmt.Sprintf("m%d", i+1), dir, traced, archiveBudget)
	}
	c, err := datalinks.OpenCluster(datalinks.ClusterConfig{Members: members, Replicas: 2, WriteQuorum: 2})
	if err != nil {
		return nil, fmt.Errorf("open ref3: %w", err)
	}
	return &target{cluster: c, dir: dir}, nil
}

func openSingle(dir string, traced bool) (*target, error) {
	s, err := datalinks.Open(datalinks.Config{Servers: []datalinks.ServerConfig{memberConfig(singleName, dir, traced, 0)}})
	if err != nil {
		return nil, fmt.Errorf("open single: %w", err)
	}
	return &target{sys: s, dir: dir}, nil
}

func (t *target) exec(sql string, args ...any) error {
	var err error
	if t.cluster != nil {
		_, err = t.cluster.Exec(sql, args...)
	} else {
		_, err = t.sys.Exec(sql, args...)
	}
	return err
}

func (t *target) queryString(sql string, args ...any) (string, error) {
	if t.cluster != nil {
		return t.cluster.QueryString(sql, args...)
	}
	return t.sys.QueryString(sql, args...)
}

func (t *target) session() opener {
	if t.cluster != nil {
		return t.cluster.Session(appUID)
	}
	return t.sys.Session(appUID)
}

func (t *target) url(path string) string {
	if t.cluster != nil {
		return t.cluster.URL(path)
	}
	return datalinks.Link{Server: singleName, Path: path}.URL()
}

func (t *target) seedFile(path string, content []byte) error {
	if t.cluster != nil {
		return t.cluster.SeedFile(path, content, appUID)
	}
	srv, err := t.sys.FileServer(singleName)
	if err != nil {
		return err
	}
	return srv.SeedFile(path, content, appUID)
}

func (t *target) members() []*core.FileServer {
	if t.cluster != nil {
		var out []*core.FileServer
		for _, id := range t.cluster.Members() {
			if m, err := t.cluster.Internal().Member(id); err == nil {
				out = append(out, m)
			}
		}
		return out
	}
	srv, err := t.sys.FileServer(singleName)
	if err != nil {
		return nil
	}
	return []*core.FileServer{srv.Internal()}
}

func (t *target) registries() map[string]*metrics.Registry {
	if t.cluster != nil {
		return t.cluster.Internal().Metrics()
	}
	return t.sys.Internal().Metrics()
}

func (t *target) waitArchives() {
	for _, m := range t.members() {
		m.DLFM.WaitArchives()
	}
}

func (t *target) close() {
	if t.cluster != nil {
		t.cluster.Close()
	} else {
		t.sys.Close()
	}
}

// setUp opens a stack in a fresh run dir under o.dir, seeds and links
// contents, and reports how long the system took to do it.
func setUp(o options, workload string, open func(dir string) (*target, error), contents [][]byte) (*target, time.Duration, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(o.dir, workload+"-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	t, err := open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	if err := t.populate(contents); err != nil {
		t.discard()
		return nil, 0, fmt.Errorf("%s: populate: %w", workload, err)
	}
	return t, time.Since(start), nil
}

// discard closes the stack and removes its run dir.
func (t *target) discard() {
	t.close()
	os.RemoveAll(t.dir)
}

func filePath(id int) string { return fmt.Sprintf("/data/f%04d.bin", id) }

// populate seeds and links the given contents as files 0..n-1.
func (t *target) populate(contents [][]byte) error {
	if err := t.exec(tableDDL); err != nil {
		return err
	}
	for id, c := range contents {
		p := filePath(id)
		if err := t.seedFile(p, c); err != nil {
			return fmt.Errorf("seed %s: %w", p, err)
		}
		if err := t.exec(`INSERT INTO files VALUES (?, DLVALUE(?), NULL)`, id, t.url(p)); err != nil {
			return fmt.Errorf("link %s: %w", p, err)
		}
	}
	t.waitArchives()
	return nil
}

// counters is a flat snapshot of every count the program exports, summed
// over members: the registries of Cluster.Metrics(), plus the accessors that
// have no registry mirror.
type counters map[string]float64

func (t *target) counters() counters {
	out := counters{}
	for _, reg := range t.registries() {
		for _, nv := range reg.Snapshot() {
			out[nv.Name] += float64(nv.Value)
		}
	}
	for _, m := range t.members() {
		tier := m.Archive.Tier()
		out["tier.spills"] += float64(tier.Spills)
		out["tier.pageins"] += float64(tier.PageIns)
		out["tier.evictions"] += float64(tier.Evictions)
		out["tier.files_created"] += float64(tier.FilesCreated)
		if lg := m.DLFM.Repo().Log(); lg != nil {
			out["wal.syncs"] += float64(lg.SyncCount())
			out["wal.records"] += float64(lg.TailLSN())
		}
		out["repl.ships"] += float64(m.DLFM.Metrics().Histogram("repl.ship").Count())
	}
	return out
}

// histQuantileUS merges one histogram across members the only way the
// registry allows without buckets: the count-weighted mean of each member's
// quantile, in microseconds.
func (t *target) histQuantileUS(reg func(*core.FileServer) *metrics.Registry, name string, q float64) float64 {
	var sum, n float64
	for _, m := range t.members() {
		h := reg(m).Histogram(name)
		c := float64(h.Count())
		sum += c * float64(h.Quantile(q)) / 1e3
		n += c
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// dirBytes sums the sizes of all regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // files may vanish under the walk (compaction, truncation)
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// growthSampler accumulates the append volume of the log files it watches
// (catalog.log, wal-*.log) by polling their sizes. A log that was truncated
// or replaced counts from zero again; a segment deleted between two polls
// loses at most one poll interval of growth.
type growthSampler struct {
	dirs    []string
	match   func(name string) bool
	last    map[string]int64
	total   int64
	stop    chan struct{}
	stopped sync.WaitGroup
}

const samplerInterval = 200 * time.Millisecond

func startGrowthSampler(dirs []string, match func(string) bool) *growthSampler {
	s := &growthSampler{dirs: dirs, match: match, last: map[string]int64{}, stop: make(chan struct{})}
	s.poll(false)
	s.stopped.Add(1)
	go func() {
		defer s.stopped.Done()
		tick := time.NewTicker(samplerInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.poll(true)
			}
		}
	}()
	return s
}

func (s *growthSampler) poll(count bool) {
	for _, dir := range s.dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if !s.match(e.Name()) {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			p := filepath.Join(dir, e.Name())
			size, prev := info.Size(), s.last[p]
			if count {
				if size >= prev {
					s.total += size - prev
				} else {
					s.total += size
				}
			}
			s.last[p] = size
		}
	}
}

// finish stops polling and returns the bytes appended since start.
func (s *growthSampler) finish() int64 {
	close(s.stop)
	s.stopped.Wait()
	s.poll(true)
	return s.total
}

func (t *target) startLogSamplers() (catalog, wal *growthSampler) {
	var archDirs, repoDirs []string
	for _, m := range t.members() {
		archDirs = append(archDirs, m.Archive.TierDir())
		if lg := m.DLFM.Repo().Log(); lg != nil {
			repoDirs = append(repoDirs, lg.Dir())
		}
	}
	catalog = startGrowthSampler(archDirs, func(n string) bool { return n == "catalog.log" })
	wal = startGrowthSampler(repoDirs, func(n string) bool { return strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".log") })
	return catalog, wal
}

// layerWindow brackets one measured window with everything the counter
// ratios need: counter snapshots, directory sizes, the log samplers, and the
// two latency histograms, which are reset so that their quantiles cover the
// window only (counters are never reset: they are read as deltas).
type layerWindow struct {
	t                  *target
	diskBefore         int64
	ctrBefore          counters
	catalogLog, walLog *growthSampler
}

func (t *target) beginLayerWindow() *layerWindow {
	for _, m := range t.members() {
		m.Transport.Metrics().Histogram("upcall.latency.close").Reset()
		m.DLFM.Metrics().Histogram("repl.ship").Reset()
	}
	lw := &layerWindow{t: t, diskBefore: dirBytes(t.dir)}
	lw.catalogLog, lw.walLog = t.startLogSamplers()
	lw.ctrBefore = t.counters()
	return lw
}

// end adds what moved since beginLayerWindow to res; ops is the number of
// operations the window completed, the weight of its histogram quantiles.
func (lw *layerWindow) end(res *passResult, ops int) {
	t := lw.t
	if res.ctr == nil {
		res.ctr = counters{}
	}
	for k, v := range t.counters() {
		res.ctr[k] += v - lw.ctrBefore[k]
	}
	res.catalogBytes += lw.catalogLog.finish()
	res.walBytes += lw.walLog.finish()
	res.diskGrowth += dirBytes(t.dir) - lw.diskBefore
	mean := func(m *float64, reg func(*core.FileServer) *metrics.Registry, name string, q float64) {
		if res.layerOps+ops > 0 {
			*m = (*m*float64(res.layerOps) + t.histQuantileUS(reg, name, q)*float64(ops)) / float64(res.layerOps+ops)
		}
	}
	mean(&res.closeP50, transportRegistry, "upcall.latency.close", 0.5)
	mean(&res.closeP99, transportRegistry, "upcall.latency.close", 0.99)
	mean(&res.shipP50, dlfmRegistry, "repl.ship", 0.5)
	mean(&res.shipP99, dlfmRegistry, "repl.ship", 0.99)
	res.layerOps += ops
}
