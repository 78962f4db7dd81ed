package harness

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
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
// zipf-cold half of the namespace. Rounds are time-bounded so the reported
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

// scaleoutContent encodes a path's committed sequence number so verification
// can recover it from the file bytes alone.
func scaleoutContent(path string, seq int64) []byte {
	return []byte(fmt.Sprintf("seq%06d %s scale-out payload", seq, path))
}

// scaleoutSeq parses the sequence number back out of file content (-1: not a
// scale-out payload).
func scaleoutSeq(content []byte) int64 {
	s := string(content)
	if !strings.HasPrefix(s, "seq") {
		return -1
	}
	end := strings.IndexByte(s, ' ')
	if end < 0 {
		return -1
	}
	n, err := strconv.ParseInt(s[3:end], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

func scaleoutPath(i int) string { return fmt.Sprintf("/z/f%d.bin", i) }

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

// setup builds an N-member cluster, links Files rdd files under the shared
// authority, and resolves their tokenized read URLs.
func (c *scaleoutConfig) setup(servers int) (*core.Cluster, []string, []string, error) {
	members := make([]core.ServerConfig, servers)
	for i := range members {
		members[i] = c.member(fmt.Sprintf("fs%d", i+1))
	}
	cl, err := core.NewCluster(core.ClusterConfig{Members: members, LockTimeout: 10 * time.Second})
	if err != nil {
		return nil, nil, nil, err
	}
	fail := func(err error) (*core.Cluster, []string, []string, error) {
		cl.Close()
		return nil, nil, nil, err
	}
	cl.DB.MustExec(`CREATE TABLE sc (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
	paths := make([]string, c.Files)
	readURLs := make([]string, c.Files)
	for i := range paths {
		paths[i] = scaleoutPath(i)
		if err := seedAndLinkCluster(cl, "sc", i, paths[i], scaleoutContent(paths[i], 0)); err != nil {
			return fail(err)
		}
		if readURLs[i], err = readURL(cl.DB, "sc", i); err != nil {
			return fail(err)
		}
	}
	return cl, paths, readURLs, nil
}

// e21TrafficResult aggregates one traffic phase.
type e21TrafficResult struct {
	wall    time.Duration
	reads   int64
	commits int64
	acked   []int64           // per path, the last sequence whose Close returned cleanly
	ops     metrics.Histogram // every read and commit, any session
}

// traffic drives the reader/writer session mix for one round. Reader
// sessions loop zipfian token-gated opens; writer sessions loop in-place
// update commits round-robin over disjoint partitions of the zipf-cold half
// of the namespace — an rdd write-open needs a reader-free gap (the design
// serializes reads against updates with no read locks), so updating the
// hottest read targets would measure writer starvation, not cluster
// capacity. Writer partitions are disjoint and the per-path acked sequence
// is written under a mutex, giving verification a total order to compare
// file bytes against.
func (c *scaleoutConfig) traffic(cl *core.Cluster, paths, readURLs []string) (*e21TrafficResult, error) {
	res := &e21TrafficResult{acked: make([]int64, len(paths))}
	pathMu := make([]sync.Mutex, len(paths))
	var reads, commits atomic.Int64
	var failed firstError
	stopped := stopAfter(c.Round)
	writers := c.Sessions / 2
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < c.Sessions; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sess := cl.NewSession(expUID)
			if id >= writers {
				// Reader: zipfian over the read half of the namespace. An rdd
				// update excludes readers for its whole open-to-commit span by
				// design, so files under a continuous update stream would
				// starve readers out of their OpenWait — that conflict is
				// measured elsewhere; here it would just poison the curve.
				z := workload.NewZipf(workload.RNG(int64(id)+1), len(paths)/2)
				for !stopped() {
					i := z.Next()
					opStart := time.Now()
					err := readWhole(sess.OpenRead, readURLs[i])
					res.ops.Observe(time.Since(opStart))
					if err != nil {
						failed.set(fmt.Errorf("reader %d on %s: %w", id, paths[i], err))
						return
					}
					reads.Add(1)
				}
				return
			}
			// Writer: one dedicated file from the zipf-cold half. A writer
			// cycling over paths on several members would couple its pace to
			// the slowest member it visits; one file per writer lets commits
			// against healthy members flow at their own rate.
			i := len(paths)/2 + id%(len(paths)-len(paths)/2)
			for !stopped() {
				opStart := time.Now()
				pathMu[i].Lock()
				seq := res.acked[i] + 1
				err := commitEdit(cl.DB, sess.OpenWrite, "sc", i, 0, scaleoutContent(paths[i], seq))
				if err == nil {
					res.acked[i] = seq
				}
				pathMu[i].Unlock()
				res.ops.Observe(time.Since(opStart))
				if err != nil {
					failed.set(fmt.Errorf("writer %d on %s: %w", id, paths[i], err))
					return
				}
				commits.Add(1)
			}
		}(s)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.reads = reads.Load()
	res.commits = commits.Load()
	return res, failed.get()
}

// committedSeqs drains archiving and reads back, from each path's current
// owner, the sequence number its final bytes encode — what E21 and E23 hold
// against the last acknowledged sequence (E21 wants them equal; E23, which
// tolerates a commit whose ack was refused, wants none below).
func committedSeqs(cl *core.Cluster, paths []string) ([]int64, error) {
	cl.WaitArchives()
	seqs := make([]int64, len(paths))
	for i, p := range paths {
		m, err := ownerOf(cl, p)
		if err != nil {
			return nil, fmt.Errorf("owner %s: %w", p, err)
		}
		content, err := m.Phys.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("read back %s on %s: %w", p, m.Name, err)
		}
		seqs[i] = scaleoutSeq(content)
	}
	return seqs, nil
}

// e21Lost counts paths whose final bytes do not match their last
// acknowledged commit — with client-serialized writers and every op required
// to succeed, the file must read back exactly the acked sequence.
func e21Lost(cl *core.Cluster, paths []string, acked []int64) (int, error) {
	seqs, err := committedSeqs(cl, paths)
	lost := 0
	for i, seq := range seqs {
		if seq != acked[i] {
			lost++
		}
	}
	return lost, err
}

// ownerDigest is historyDigest of path on whichever member owns it now.
func ownerDigest(cl *core.Cluster, path string) (string, error) {
	m, err := ownerOf(cl, path)
	if err != nil {
		return "", err
	}
	return historyDigest(m, cl.Authority(), path)
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
		cl, paths, readURLs, err := c.setup(n)
		if err != nil {
			return nil, err
		}
		res, err := c.traffic(cl, paths, readURLs)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("E21 %d-server round: %w", n, err)
		}
		lost, err := e21Lost(cl, paths, res.acked)
		cl.Close()
		if err != nil {
			return nil, err
		}
		cps := float64(res.commits) / res.wall.Seconds()
		commitRate[n] = cps
		if baseCommitRate == 0 {
			baseCommitRate = cps
		}
		s := Summarize(&res.ops)
		scale.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%dr+%dw", c.Sessions-c.Sessions/2, c.Sessions/2),
			Dur(res.wall),
			fmt.Sprintf("%.0f", float64(res.reads)/res.wall.Seconds()),
			fmt.Sprintf("%d", res.commits),
			fmt.Sprintf("%.0f (%.1fx)", cps, cps/baseCommitRate),
			Dur(s.P50), Dur(s.P99),
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
	cl, paths, readURLs, err := c.setup(2)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	rebalanceDone := make(chan error, 1)
	var rebalanceWall time.Duration
	go func() {
		time.Sleep(c.Round / 3)
		t0 := time.Now()
		err := cl.AddServer(c.member("fs3"))
		rebalanceWall = time.Since(t0)
		rebalanceDone <- err
	}()
	trafficRes, trafficErr := c.traffic(cl, paths, readURLs)
	if err := <-rebalanceDone; err != nil {
		return nil, fmt.Errorf("E21 FAILED: live AddServer: %w", err)
	}
	if trafficErr != nil {
		return nil, fmt.Errorf("E21 FAILED: traffic during rebalance: %w", trafficErr)
	}
	lost, err := e21Lost(cl, paths, trafficRes.acked)
	if err != nil {
		return nil, err
	}
	ringReg := cl.Router().Metrics()
	movesLive := ringReg.Counter("ring.moves").Value()
	forwards := ringReg.Counter("ring.forwards").Value()

	// Quiesced migration byte-fidelity: digest every path's archived history,
	// grow the ring again, and require every digest unchanged on the new
	// owners.
	before := make([]string, len(paths))
	for i, p := range paths {
		if before[i], err = ownerDigest(cl, p); err != nil {
			return nil, fmt.Errorf("E21 FAILED: history before the quiesced migration: %w", err)
		}
	}
	if err := cl.AddServer(c.member("fs4")); err != nil {
		return nil, fmt.Errorf("E21 FAILED: quiesced AddServer: %w", err)
	}
	mismatched, firstMismatch := 0, ""
	for i, p := range paths {
		after, err := ownerDigest(cl, p)
		if err == nil && after == before[i] {
			continue
		}
		mismatched++
		if firstMismatch != "" {
			continue
		}
		firstMismatch = p + ": digest changed across the move"
		if err != nil {
			firstMismatch = err.Error()
		}
	}
	movesQuiesced := ringReg.Counter("ring.moves").Value() - movesLive

	s := Summarize(&trafficRes.ops)
	maxOp := s.Max
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
		Dur(s.P50), Dur(s.P99), Dur(maxOp),
		fmt.Sprintf("%d", movesQuiesced),
		fmt.Sprintf("%d", mismatched),
	)
	reb.Note("a move drains the path's in-flight opens, freezes it, hands the archive history over chunk-deduped, imports the repository row, and evicts the source; a forward is an op that waited out a move gate")
	reb.Note("history digests hash (version, length, bytes) of every archived version before and after the quiesced migration — byte fidelity, not just latest-content equality")

	tables := []*Table{scale, reb}
	if lost > 0 {
		return tables, fmt.Errorf("E21 FAILED: rebalance round lost %d acked commit(s)", lost)
	}
	if mismatched > 0 {
		return tables, fmt.Errorf("E21 FAILED: %d path(s) changed archived history across migration (first: %s)", mismatched, firstMismatch)
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
