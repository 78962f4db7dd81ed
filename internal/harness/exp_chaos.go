package harness

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/metrics"
	"datalinks/internal/retry"
	"datalinks/internal/upcall"
)

// chaosConfig is E20's knobs: Sessions sessions each drive Ops committed
// in-place updates to their own linked file over real TCP sockets while the
// Chaos injector drops, resets, and delays wire messages with the given
// probabilities.
type chaosConfig struct {
	Sessions  int
	Ops       int // update attempts per session
	DropProb  float64
	ResetProb float64
	DelayProb float64
	Seed      int64
}

var e20 = chaosConfig{Sessions: 8, Ops: 25, DropProb: 0.06, ResetProb: 0.03, DelayProb: 0.15, Seed: 20}

func (c *chaosConfig) flags(fs *flag.FlagSet) {
	prob := func(p *float64, name, usage string) {
		checked(fs, p, name, usage, "a probability in [0,1]",
			func(s string) (float64, error) { return strconv.ParseFloat(s, 64) },
			func(v float64) bool { return v >= 0 && v <= 1 })
	}
	prob(&c.DropProb, "e20-drop", "E20: per-message drop probability (0..1)")
	prob(&c.ResetProb, "e20-reset", "E20: per-message connection-reset probability (0..1)")
	prob(&c.DelayProb, "e20-delay", "E20: per-message delay probability (0..1)")
	fs.Int64Var(&c.Seed, "e20-seed", c.Seed, "E20: chaos PRNG seed")
}

func init() {
	Register(Experiment{
		ID:    "E20",
		Title: "Chaos soak: committed updates survive an unreliable upcall network",
		Paper: "The paper's transactional file-update guarantee (open=begin, close=commit) must hold when the DLFS↔DLFM channel is a real, faulty network: message loss, connection resets, and latency spikes may slow clients down but can never lose an acknowledged commit, hang a client, or leave the daemon unable to drain.",
		Run:   e20.run,
		Flags: e20.flags,
	})
}

// chaosContent encodes a session's update so verification can recover the
// sequence number from the file bytes alone.
func chaosContent(session, seq int) []byte {
	return []byte(fmt.Sprintf("s%d-seq%06d chaos soak payload", session, seq))
}

// chaosSeq parses the sequence number back out of file content (-1: not a
// chaos payload).
func chaosSeq(content []byte) int {
	parts := strings.SplitN(string(content), " ", 2)
	i := strings.Index(parts[0], "-seq")
	if i < 0 {
		return -1
	}
	n, err := strconv.Atoi(parts[0][i+4:])
	if err != nil {
		return -1
	}
	return n
}

// run soaks the TCP upcall plane under injected faults, then proves the
// commit guarantee: every acknowledged commit is durable (the final content
// is never OLDER than the last ack — newer is legal, because a commit whose
// ack was lost on the wire still committed), the daemon drains cleanly, and
// no client hung.
func (c *chaosConfig) run() ([]*Table, error) {
	ch := &upcall.Chaos{
		Seed:      c.Seed,
		DropProb:  c.DropProb,
		ResetProb: c.ResetProb,
		DelayDist: upcall.Delay{Prob: c.DelayProb, Min: 200 * time.Microsecond, Max: 2 * time.Millisecond},
	}
	const opTimeout = 15 * time.Second
	sys, srv, err := newSystem(core.ServerConfig{
		Name: "fs1",
		// Short OpenWait: a write-open retried after a lost ack hits
		// "busy" against its own ghost open and must fail fast so the
		// session janitor can abort the ghost and move on.
		OpenWait:   50 * time.Millisecond,
		TCPUpcalls: true,
		// Tracing on: the soak doubles as the injected-vs-real latency
		// attribution check (chaos_delay_ms lands on wire spans).
		Trace:         true,
		TraceCapacity: 4096,
		UpcallNet: &upcall.NetConfig{Client: upcall.ClientConfig{
			PoolSize:       4,
			AttemptTimeout: 150 * time.Millisecond,
			OpTimeout:      opTimeout,
			Retry:          retry.Policy{MaxAttempts: 12, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
			Breaker:        &retry.BreakerConfig{Threshold: 64, Cooldown: 100 * time.Millisecond},
			Chaos:          ch,
		}},
	}, 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sys.DB.MustExec(`CREATE TABLE soak (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY NO, doc_size INT)`)
	paths := make([]string, c.Sessions)
	for i := range paths {
		paths[i] = fmt.Sprintf("/c/f%d.bin", i)
		if err := seedAndLink(sys, srv, "soak", i, paths[i], chaosContent(i, 0)); err != nil {
			return nil, err
		}
	}

	// Soak. Each session tracks the newest sequence number the system
	// ACKNOWLEDGED (a clean Close return). An op that fails anywhere is
	// unacked: the janitor aborts any ghost in-update state and the session
	// moves on. At-least-once delivery means a commit can land without its
	// ack, so acked is a lower bound on the final content, never an upper.
	type sessionResult struct {
		acked  int
		acks   int
		failed int
		aborts int
	}
	results := make([]sessionResult, c.Sessions)
	var opLatency metrics.Histogram
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < c.Sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sess := sys.NewSession(expUID)
			r := &results[id]
			for seq := 1; seq <= c.Ops; seq++ {
				opStart := time.Now()
				err := func() error {
					url, err := writeURL(sys.DB, "soak", id)
					if err != nil {
						return err
					}
					f, err := sess.OpenWrite(url)
					if err != nil {
						// Possibly a ghost open from a lost write-open ack:
						// abort it and retry the open once.
						if aerr := srv.DLFM.AbortUpdateByPath(paths[id]); aerr == nil {
							r.aborts++
						}
						f, err = sess.OpenWrite(url)
						if err != nil {
							return err
						}
					}
					if err := f.WriteAll(chaosContent(id, seq)); err != nil {
						_ = f.Abort()
						return err
					}
					return f.Close()
				}()
				opLatency.Observe(time.Since(opStart))
				if err == nil {
					r.acked = seq
					r.acks++
				} else {
					r.failed++
					// The commit may or may not have applied; clear any
					// ghost in-update state so the next op starts clean.
					if aerr := srv.DLFM.AbortUpdateByPath(paths[id]); aerr == nil {
						r.aborts++
					}
				}
			}
			// A trailing unacked op can leave the file mid-update; roll it
			// back so the verification below sees committed state only.
			if aerr := srv.DLFM.AbortUpdateByPath(paths[id]); aerr == nil {
				r.aborts++
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	// Stop injecting, drain the daemon gracefully, then verify.
	ch.Enable(false)
	drainStart := time.Now()
	drainErr := srv.UpcallServer().Drain(10 * time.Second)
	drainWall := time.Since(drainStart)
	srv.DLFM.WaitArchives()

	var lost, totalAcks, totalFails, totalAborts int
	for i := range results {
		r := &results[i]
		totalAcks += r.acks
		totalFails += r.failed
		totalAborts += r.aborts
		content, err := srv.Phys.ReadFile(paths[i])
		if err != nil {
			return nil, fmt.Errorf("E20: read back %s: %w", paths[i], err)
		}
		if got := chaosSeq(content); got < r.acked {
			lost++
		}
	}
	s := Summarize(&opLatency)
	maxOp := s.Max

	t := &Table{
		Caption: "E20. Chaos soak: committed-update safety under an unreliable network",
		Headers: []string{"sessions", "ops/sess", "acked commits", "failed ops", "lost commits", "wall", "ops/s", "p50", "p95", "p99", "max op"},
	}
	t.AddRow(
		fmt.Sprintf("%d", c.Sessions),
		fmt.Sprintf("%d", c.Ops),
		fmt.Sprintf("%d", totalAcks),
		fmt.Sprintf("%d", totalFails),
		fmt.Sprintf("%d", lost),
		Dur(wall),
		fmt.Sprintf("%.0f", float64(c.Sessions*c.Ops)/wall.Seconds()),
		Dur(s.P50), Dur(s.P95), Dur(s.P99), Dur(maxOp),
	)
	t.Note("fault mix: drop %.0f%%, reset %.0f%%, delay %.0f%% of 0.2–2ms (seed %d); a failed op is an update whose ack never arrived — safety demands it never rolls back an EARLIER acked commit",
		c.DropProb*100, c.ResetProb*100, c.DelayProb*100, c.Seed)
	t.Note("every op is bounded by the client's %v op deadline — max observed %v means zero hung clients", opTimeout, Dur(maxOp))

	st := ch.Stats()
	reg := srv.Transport.Metrics()
	ft := &Table{
		Caption: "E20b. Injected faults and the resilience machinery that absorbed them",
		Headers: []string{"drops", "resets", "delays", "retries", "giveups", "breaker opens", "overload rejects", "conns retired", "ghost aborts", "drain"},
	}
	drainCell := Dur(drainWall) + " clean"
	if drainErr != nil {
		drainCell = "TIMED OUT"
	}
	ft.AddRow(
		fmt.Sprintf("%d", st.Drops),
		fmt.Sprintf("%d", st.Resets),
		fmt.Sprintf("%d", st.Delays),
		fmt.Sprintf("%d", reg.Counter("upcall.retries").Value()),
		fmt.Sprintf("%d", reg.Counter("upcall.giveups").Value()),
		fmt.Sprintf("%d", reg.Counter("upcall.breaker_open").Value()),
		fmt.Sprintf("%d", reg.Counter("upcall.inflight_rejected").Value()),
		fmt.Sprintf("%d", reg.Counter("upcall.conns_retired").Value()),
		fmt.Sprintf("%d", totalAborts),
		drainCell,
	)
	ft.Note("a ghost abort clears in-update state left by an op whose request was applied but whose ack was lost (at-least-once delivery)")

	// Latency attribution: every trace separates injected wire delay
	// (chaos_delay_ms attrs) from real work. Injected time is part of the
	// observed wall time, so per trace the sum over wire spans can never
	// exceed the root duration — if it does, the attribution is lying.
	traced, withInjected, attrViolations := 0, 0, 0
	var worst string
	for _, tr := range srv.Obs.Recent(4096) {
		traced++
		injected := time.Duration(0)
		for _, w := range tr.Root().FindAll("wire") {
			if v, ok := w.Attr("chaos_delay_ms"); ok {
				if ms, ok := v.(float64); ok {
					injected += time.Duration(ms * float64(time.Millisecond))
				}
			}
		}
		if injected == 0 {
			continue
		}
		withInjected++
		if injected > tr.Duration()+time.Millisecond {
			attrViolations++
			if worst == "" {
				worst = fmt.Sprintf("trace %d op=%s injected=%v wall=%v", tr.ID(), tr.Op(), injected, tr.Duration())
			}
		}
	}
	ft.Note("trace attribution: %d traces retained, %d carry injected wire delay, %d violate injected<=wall", traced, withInjected, attrViolations)

	if lost > 0 {
		return []*Table{t, ft}, fmt.Errorf("E20 FAILED: %d file(s) ended OLDER than their last acknowledged commit", lost)
	}
	if drainErr != nil {
		return []*Table{t, ft}, fmt.Errorf("E20 FAILED: graceful drain did not complete: %w", drainErr)
	}
	if maxOp > opTimeout+opTimeout/2 {
		return []*Table{t, ft}, fmt.Errorf("E20 FAILED: an op took %v, beyond the %v deadline — a client hung", maxOp, opTimeout)
	}
	if st.Delays > 0 && withInjected == 0 {
		return []*Table{t, ft}, fmt.Errorf("E20 FAILED: chaos injected %d delays but no trace carries a chaos_delay_ms wire attr", st.Delays)
	}
	if attrViolations > 0 {
		return []*Table{t, ft}, fmt.Errorf("E20 FAILED: %d trace(s) report more injected delay than observed wall time (first: %s)", attrViolations, worst)
	}
	return []*Table{t, ft}, nil
}
