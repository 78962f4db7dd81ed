package harness

import (
	"flag"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/metrics"
	"datalinks/internal/ring"
	"datalinks/internal/workload"
)

// scaleoutConfig is E21's knobs. Each round links Files rdd files across a
// cluster of N members and drives Sessions sessions for Round: half the
// sessions read zipfian-addressed files (the skew the ring has to spread),
// half commit in-place updates round-robin over disjoint partitions of the
// zipf-cold half of the namespace. Each round is time-bounded so the reported
// commits/s is the aggregate the cluster sustains — a member slowed by the
// zipf-hot paths it owns contributes less, it does not gate the clock.
type scaleoutConfig struct {
	Servers  []int
	Sessions int
	Round    time.Duration
	Files    int
	// UpcallLatency simulates the DLFS→DLFM IPC hop; UpcallWidth bounds
	// concurrent upcalls per member, so a single member models a finite
	// machine and scaling must come from adding them. The values keep each
	// member's capacity dominated by simulated wire time rather than host
	// CPU, so the curve measures the architecture even on a small runner.
	UpcallLatency time.Duration
	UpcallWidth   int
}

var e21 = scaleoutConfig{
	Servers:       []int{1, 4, 16},
	Sessions:      64,
	Round:         2 * time.Second,
	Files:         256,
	UpcallLatency: 4 * time.Millisecond,
	UpcallWidth:   2,
}

func (c *scaleoutConfig) flags(fs *flag.FlagSet) {
	fs.Var((*intList)(&c.Servers), "e21-servers", "E21: comma-separated cluster sizes for the scale rounds (e.g. 1,4,16)")
}

func init() {
	Register(Experiment{
		ID:    "E21",
		Title: "Scale-out namespace: consistent-hash routing and live rebalance",
		Paper: "The paper scopes one DLFM per file server and leaves multi-server growth to deployment. This experiment quantifies the scale-out extension: one DATALINK authority spread over N file servers by a consistent-hash ring must scale aggregate commit throughput with N under a skewed (zipfian) read load, and adding a server mid-run must migrate the reassigned paths live — no acknowledged commit lost, every migrated version history byte-identical.",
		Run:   e21.run,
		Flags: e21.flags,
	})
}

// member is the server config every E21 member runs, the ones AddServer
// brings in mid-run included.
func (c *scaleoutConfig) member(name string) core.ServerConfig {
	return core.ServerConfig{
		Name:          name,
		UpcallLatency: c.UpcallLatency,
		UpcallWidth:   c.UpcallWidth,
		OpenWait:      10 * time.Second,
	}
}

// setup builds an N-member cluster and links Files rdd files under the
// shared authority.
func (c *scaleoutConfig) setup(servers int) (*core.Cluster, *soak, error) {
	members := make([]core.ServerConfig, servers)
	for i := range members {
		members[i] = c.member(fmt.Sprintf("fs%d", i+1))
	}
	return clusterSoak(core.ClusterConfig{Members: members, LockTimeout: 10 * time.Second},
		"sc", "doc DATALINK MODE RDD RECOVERY YES, doc_size INT", c.Files, "/z/f%d.bin")
}

// traffic drives the reader/writer session mix for one round, with event
// (if any) a third of the way in, and returns the writers' round with every
// read merged into its latencies, and the read count. Reader sessions loop
// zipfian token-gated opens; writer sessions loop in-place update commits
// over the zipf-cold half of the namespace — an rdd write-open needs a
// reader-free gap (the design serializes reads against updates with no read
// locks), so updating the hottest read targets would measure writer
// starvation, not cluster capacity. Any failed read or commit fails the
// round.
func (c *scaleoutConfig) traffic(cl *core.Cluster, s *soak, event func(pathLocker) error) (*roundResult, int64, error) {
	readURLs := make([]string, len(s.paths))
	for i := range readURLs {
		var err error
		if readURLs[i], err = readURL(s.db, s.table, i); err != nil {
			return nil, 0, err
		}
	}
	stop := stopAfter(c.Round)
	writers, half := c.Sessions/2, len(s.paths)/2
	var reads atomic.Int64
	var readOps metrics.Histogram
	var failed firstError
	var wg sync.WaitGroup
	for id := writers; id < c.Sessions; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Reader: zipfian over the read half of the namespace. An rdd
			// update excludes readers for its whole open-to-commit span by
			// design, so files under a continuous update stream would
			// starve readers out of their OpenWait — that conflict is
			// measured elsewhere; here it would just poison the curve.
			sess := cl.NewSession(expUID)
			z := workload.NewZipf(workload.RNG(int64(id)+1), half)
			for !stop() {
				i := z.Next()
				opStart := time.Now()
				err := readWhole(sess.OpenRead, readURLs[i])
				readOps.Observe(time.Since(opStart))
				if err != nil {
					failed.set(fmt.Errorf("reader %d on %s: %w", id, s.paths[i], err))
					return
				}
				reads.Add(1)
			}
		}(id)
	}
	// Writer: one dedicated file from the zipf-cold half. A writer cycling
	// over paths on several members would couple its pace to the slowest
	// member it visits; one file per writer lets commits against healthy
	// members flow at their own rate.
	res, err := s.write(writeRound{
		writers:    writers,
		first:      half,
		end:        min(half+writers, len(s.paths)),
		stop:       stop,
		failFast:   true,
		event:      event,
		eventAfter: c.Round / 3,
	})
	wg.Wait()
	res.ops.Merge(&readOps)
	if err == nil {
		err = failed.get()
	}
	return res, reads.Load(), err
}

// run measures aggregate commit throughput vs cluster size, then rebalances a
// loaded cluster live and proves the move lost nothing.
func (c *scaleoutConfig) run() ([]*Table, error) {
	scale := &Table{
		Caption: "E21. Aggregate throughput vs cluster size (zipfian reads over one authority)",
		Headers: []string{"servers", "sessions", "round", "reads/s", "commits", "commits/s", "p50", "p99", "lost acked"},
	}
	var baseCommitRate float64
	commitRate := make(map[int]float64)
	for _, n := range c.Servers {
		cl, s, err := c.setup(n)
		if err != nil {
			return nil, err
		}
		res, reads, err := c.traffic(cl, s, nil)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("E21 %d-server round: %w", n, err)
		}
		lost, err := lostAcked(s.read, s.paths, res.acked, true)
		cl.Close()
		if err != nil {
			return nil, err
		}
		cps := float64(res.commits) / res.wall.Seconds()
		commitRate[n] = cps
		if baseCommitRate == 0 {
			baseCommitRate = cps
		}
		sum := Summarize(&res.ops)
		scale.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%dr+%dw", c.Sessions-c.Sessions/2, c.Sessions/2),
			Dur(res.wall),
			fmt.Sprintf("%.0f", float64(reads)/res.wall.Seconds()),
			fmt.Sprintf("%d", res.commits),
			fmt.Sprintf("%.0f (%.1fx)", cps, cps/baseCommitRate),
			Dur(sum.P50), Dur(sum.P99),
			fmt.Sprintf("%d", lost),
		)
		if lost > 0 {
			return []*Table{scale}, fmt.Errorf("E21 FAILED: %d-server round lost %d acked commit(s)", n, lost)
		}
	}
	scale.Note("%d rdd files under one dlfs://cluster authority, placement by consistent hash (%d vnodes/member); every member's upcall channel is %d wide with %v IPC latency, so one member is a bounded machine",
		c.Files, ring.DefaultVirtualNodes, c.UpcallWidth, c.UpcallLatency)
	scale.Note("reader sessions address one half of the namespace zipfian, writer sessions each commit continuously to a dedicated file in the other half (rdd excludes readers for an update's whole open-to-commit span, so mixing the sets measures that conflict, not capacity); the member owning the hottest read paths saturates first, which is what keeps the largest cluster below perfectly linear")

	// Live rebalance: start 2 members under full traffic, add a third a third
	// of the way into the round, and let the remaining traffic ride through
	// the migrations.
	cl, s, err := c.setup(2)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	var rebalanceWall time.Duration
	trafficRes, _, trafficErr := c.traffic(cl, s, func(pathLocker) error {
		t0 := time.Now()
		err := cl.AddServer(c.member("fs3"))
		rebalanceWall = time.Since(t0)
		return err
	})
	if trafficRes != nil && trafficRes.eventErr != nil {
		return nil, fmt.Errorf("E21 FAILED: live AddServer: %w", trafficRes.eventErr)
	}
	if trafficErr != nil {
		return nil, fmt.Errorf("E21 FAILED: traffic during rebalance: %w", trafficErr)
	}
	lost, err := lostAcked(s.read, s.paths, trafficRes.acked, true)
	if err != nil {
		return nil, err
	}
	ringReg := cl.Router().Metrics()
	movesLive := ringReg.Counter("ring.moves").Value()
	forwards := ringReg.Counter("ring.forwards").Value()

	// Quiesced migration byte-fidelity: digest every path's archived history,
	// grow the ring again, and require every digest unchanged on the new
	// owners.
	pairs := make([][2]heldCopy, len(s.paths))
	for i, p := range s.paths {
		if pairs[i][0] = heldBy(cl, "before the move", "", p); pairs[i][0].err != nil {
			return nil, fmt.Errorf("E21 FAILED: history before the quiesced migration: %w", pairs[i][0].err)
		}
	}
	if err := cl.AddServer(c.member("fs4")); err != nil {
		return nil, fmt.Errorf("E21 FAILED: quiesced AddServer: %w", err)
	}
	for i, p := range s.paths {
		pairs[i][1] = heldBy(cl, "after, on the new owner", "", p)
	}
	mismatched, firstMismatch := sameHistories(pairs)
	movesQuiesced := ringReg.Counter("ring.moves").Value() - movesLive

	sum := Summarize(&trafficRes.ops)
	maxOp := sum.Max
	reb := &Table{
		Caption: "E21b. Live rebalance under load (2 → 3 members, then a quiesced 3 → 4)",
		Headers: []string{"commits", "lost acked", "paths moved live", "rebalance wall", "forwards", "p50", "p99", "max op", "quiesced moves", "history mismatches"},
	}
	reb.AddRow(
		fmt.Sprintf("%d", trafficRes.commits),
		fmt.Sprintf("%d", lost),
		fmt.Sprintf("%d", movesLive),
		Dur(rebalanceWall),
		fmt.Sprintf("%d", forwards),
		Dur(sum.P50), Dur(sum.P99), Dur(maxOp),
		fmt.Sprintf("%d", movesQuiesced),
		fmt.Sprintf("%d", mismatched),
	)
	reb.Note("a move drains the path's in-flight opens, freezes it, catches the new owner's archive history up chunk-deduped, promotes it there as a failover would, and evicts the source; a forward is an op that waited out a move gate")
	reb.Note("history mismatches compare (version, size, sha256) of every archived version before and after the quiesced migration — byte fidelity, not just latest-content equality; a mismatch prints both copies with their state ids")

	tables := []*Table{scale, reb}
	if lost > 0 {
		return tables, fmt.Errorf("E21 FAILED: rebalance round lost %d acked commit(s)", lost)
	}
	if mismatched > 0 {
		return tables, fmt.Errorf("E21 FAILED: %d path(s) changed archived history across migration; first: %s", mismatched, firstMismatch)
	}
	if maxOp > 30*time.Second {
		return tables, fmt.Errorf("E21 FAILED: an op took %v during rebalance — a client hung", maxOp)
	}
	if r1, ok1 := commitRate[1]; ok1 {
		if r4, ok4 := commitRate[4]; ok4 && r4 < 3*r1 {
			return tables, timingGate(scale, "E21", "1→4 servers scaled commits/s only %.1fx (need >= 3x)", r4/r1)
		}
	}
	return tables, nil
}
