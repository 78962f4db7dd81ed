package harness

import (
	"flag"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/metrics"
	"datalinks/internal/upcall"
	"datalinks/internal/workload"
)

// concurrencyConfig is E13's knobs: each of Sessions concurrent sessions is
// driven against Servers file servers, issuing Ops operations (reads with an
// occasional in-place update) against its own linked file.
type concurrencyConfig struct {
	Sessions []int
	Servers  int
	Ops      int
	// UpcallLatency simulates the DLFS→DLFM IPC hop. Concurrent sessions
	// should overlap these waits; any layer that re-serializes them shows up
	// immediately as flat scaling.
	UpcallLatency time.Duration
	// Net routes every upcall over a real TCP socket (the daemon deployment)
	// instead of in-process calls, and reports per-op latency percentiles
	// measured through the resilient client.
	Net bool
}

// e13 is also the hot path E22 prices tracing on, so E22 reads it too.
var e13 = concurrencyConfig{
	Sessions:      []int{1, 4, 16},
	Servers:       2,
	Ops:           100,
	UpcallLatency: 200 * time.Microsecond,
}

func (c *concurrencyConfig) flags(fs *flag.FlagSet) {
	fs.Var((*intList)(&c.Sessions), "sessions", "E13: comma-separated concurrent session counts (e.g. 1,4,16)")
	posInt(fs, &c.Servers, "servers", "E13: number of file servers")
	posInt(fs, &c.Ops, "ops", "E13: operations per session")
	checked(fs, &c.UpcallLatency, "upcall-latency", "E13: simulated DLFS→DLFM IPC latency (e.g. 200us)",
		"a duration >= 0", time.ParseDuration, func(d time.Duration) bool { return d >= 0 })
	fs.BoolVar(&c.Net, "net", c.Net, "E13: route upcalls over real TCP sockets and report per-op latency percentiles")
}

func init() {
	Register(Experiment{
		ID:    "E13",
		Title: "Concurrency scaling: sessions vs aggregate throughput",
		Paper: "DataLinks exists so many clients can read and update externally stored files concurrently while the database coordinates them; the stack must not re-serialize traffic that the design leaves independent (per-file opens, token checks, content I/O).",
		Run:   e13.run,
		Flags: e13.flags,
	})
}

// run drives N concurrent sessions against M file servers and reports
// aggregate throughput plus the contention counters of the two hottest
// locks (the sqlmini lock manager and the physical FS).
func (c *concurrencyConfig) run() ([]*Table, error) {
	t := &Table{
		Caption: "E13. Aggregate throughput vs concurrent sessions",
		Headers: []string{"sessions", "servers", "ops", "wall", "ops/s", "lock waits", "lock wait time", "shard collisions", "fs reads"},
	}
	if c.Net {
		t.Caption = "E13. Aggregate throughput vs concurrent sessions (upcalls over TCP)"
	}
	var baseline float64
	var lastStats concurrencyStats
	for _, n := range c.Sessions {
		wall, ops, stats, err := c.round(n)
		if err != nil {
			return nil, err
		}
		opsPerSec := float64(ops) / wall.Seconds()
		if baseline == 0 {
			baseline = opsPerSec
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", c.Servers),
			fmt.Sprintf("%d", ops),
			Dur(wall),
			fmt.Sprintf("%.0f (%.1fx)", opsPerSec, opsPerSec/baseline),
			fmt.Sprintf("%d", stats.lockWaits),
			Dur(stats.lockWaitTime),
			fmt.Sprintf("%d", stats.shardCollisions),
			fmt.Sprintf("%d", stats.fsReads),
		)
		lastStats = stats
	}
	t.Note("each session loops open-read-close on its own linked rdd file (every 10th op is an in-place update); upcall IPC latency %v", c.UpcallLatency)
	t.Note("scaling comes from overlapping the per-open upcalls across sessions — a global lock anywhere in fs/lockmgr/dlfm flattens this curve")
	tables := []*Table{t}
	if c.Net {
		tables = append(tables, netLatencyTable(
			fmt.Sprintf("E13-net. Per-upcall-op latency over real sockets (%d sessions)", c.Sessions[len(c.Sessions)-1]),
			lastStats.perOp))
		tables[1].Note("measured through the resilient client: deadlines, retries and backoff included; retries=%d giveups=%d breaker_open=%d inflight_rejected=%d",
			lastStats.retries, lastStats.giveups, lastStats.breakerOpen, lastStats.inflightRejected)
	}
	return tables, nil
}

// netLatencyTable renders per-op latency percentiles from the per-server
// upcall histograms merged across members.
func netLatencyTable(caption string, perOp map[string]*metrics.Histogram) *Table {
	t := &Table{
		Caption: caption,
		Headers: []string{"op", "calls", "p50", "p95", "p99", "max"},
	}
	for _, op := range upcall.Ops() {
		h := perOp[op.String()]
		if h == nil {
			continue
		}
		s := Summarize(h)
		t.AddRow(op.String(), fmt.Sprintf("%d", s.N), Dur(s.P50), Dur(s.P95), Dur(s.P99), Dur(s.Max))
	}
	return t
}

// concurrencyStats aggregates the contention counters of one round.
type concurrencyStats struct {
	lockWaits       int64
	lockWaitTime    time.Duration
	shardCollisions int64
	fsReads         int64
	// TCP-mode extras: per-op latency histograms merged across servers and
	// the resilience counters of the upcall plane.
	perOp            map[string]*metrics.Histogram
	retries          int64
	giveups          int64
	breakerOpen      int64
	inflightRejected int64
}

// round runs one session-count configuration to completion. The file
// servers form a cluster under one authority: each session's file is placed
// by the consistent-hash ring rather than a static modulo assignment, the
// same routing a scale-out deployment uses (E21).
func (c *concurrencyConfig) round(sessions int) (time.Duration, int64, concurrencyStats, error) {
	members := make([]core.ServerConfig, c.Servers)
	for i := range members {
		members[i] = core.ServerConfig{
			Name:          fmt.Sprintf("fs%d", i+1),
			UpcallLatency: c.UpcallLatency,
			OpenWait:      10 * time.Second,
			TCPUpcalls:    c.Net,
		}
	}
	cl, err := core.NewCluster(core.ClusterConfig{Members: members, LockTimeout: 10 * time.Second})
	if err != nil {
		return 0, 0, concurrencyStats{}, err
	}
	defer cl.Close()
	cl.DB().MustExec(`CREATE TABLE conc (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY NO, doc_size INT)`)

	readURLs := make([]string, sessions)
	for i := range readURLs {
		if err := seedAndLinkCluster(cl, "conc", i, fmt.Sprintf("/c/f%d.bin", i), workload.UniformContent(4096, i)); err != nil {
			return 0, 0, concurrencyStats{}, err
		}
		if readURLs[i], err = readURL(cl.DB(), "conc", i); err != nil {
			return 0, 0, concurrencyStats{}, err
		}
	}

	var wg sync.WaitGroup
	var ops atomic.Int64
	var failed firstError
	start := time.Now()
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sess := cl.NewSession(expUID)
			for k := 0; k < c.Ops; k++ {
				var err error
				if k%10 == 9 {
					err = commitEdit(cl.DB(), sess.OpenWrite, "conc", id, 0, []byte{byte(k)})
				} else {
					err = readWhole(sess.OpenRead, readURLs[id])
				}
				if err != nil {
					failed.set(err)
					return
				}
				ops.Add(1)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := failed.get(); err != nil {
		return 0, 0, concurrencyStats{}, err
	}

	var stats concurrencyStats
	stats.lockWaits, stats.lockWaitTime, stats.shardCollisions = cl.DB().LockManager().ContentionStats()
	stats.perOp = make(map[string]*metrics.Histogram)
	for _, name := range cl.Members() {
		srv, err := cl.Member(name)
		if err != nil {
			continue
		}
		stats.fsReads += srv.Phys.Stats.Reads.Load()
		if c.Net {
			reg := srv.Transport.Metrics()
			// Enumerate whatever per-op latency histograms the round produced
			// (sorted by name) instead of hand-listing the op set.
			for _, nh := range reg.Histograms() {
				if key, ok := strings.CutPrefix(nh.Name, "upcall.latency."); ok {
					if stats.perOp[key] == nil {
						stats.perOp[key] = &metrics.Histogram{}
					}
					stats.perOp[key].Merge(nh.Hist)
				}
			}
			stats.retries += reg.Counter("upcall.retries").Value()
			stats.giveups += reg.Counter("upcall.giveups").Value()
			stats.breakerOpen += reg.Counter("upcall.breaker_open").Value()
			stats.inflightRejected += reg.Counter("upcall.inflight_rejected").Value()
		}
	}
	return wall, ops.Load(), stats, nil
}
