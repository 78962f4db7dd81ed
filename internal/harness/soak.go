package harness

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/metrics"
	"datalinks/internal/sqlmini"
)

// The soak runner. E18, E20, E21 and E23 each hold the paper's promise that
// an acknowledged close is as dependable as a database row — across a kill,
// a faulty wire, a move and a failover. What they share is here, once: the
// linked files (soak, systemSoak, clusterSoak), the payload a soak writer
// commits (seqPayload), the acked-writer loop (soak.write) and the end-of-run
// checks (lostAcked, sameHistories). Each soak's own file holds its faults
// and its gates.

// opener is a session's OpenWrite or OpenRead.
type opener = func(string) (*core.File, error)

// seqPayload is the bytes a soak writer commits as path's sequence number
// seq. Every payload of one path has the same length, so a write at offset 0
// replaces the whole file.
func seqPayload(path string, seq int64) []byte {
	return []byte(fmt.Sprintf("seq%06d %s soak payload", seq, path))
}

// payloadSeq reads the sequence number back from the file bytes alone: -1
// when content is not a seqPayload.
func payloadSeq(content []byte) int64 {
	rest, ok := strings.CutPrefix(string(content), "seq")
	num, _, found := strings.Cut(rest, " ")
	n, err := strconv.ParseInt(num, 10, 64)
	if !ok || !found || err != nil || n < 0 {
		return -1
	}
	return n
}

// firstPayload seeds file path with its sequence 0.
func firstPayload(_ int, path string) []byte { return seqPayload(path, 0) }

// soak is the set of linked files one soak drives: row i of table links
// paths[i].
type soak struct {
	db         *sqlmini.DB
	table      string
	paths      []string
	newSession func() opener                     // a fresh session's OpenWrite
	read       func(path string) ([]byte, error) // path's bytes where it is served now
}

// link creates table — an INT id and cols, whose DATALINK column is doc —
// and links n files through seedAndLink: row i is fmt.Sprintf(pathf, i),
// seeded with seed(i, path).
func (s *soak) link(cols string, n int, pathf string, seed func(int, string) []byte, seedAndLink func(int, string, []byte) error) error {
	s.db.MustExec(fmt.Sprintf(`CREATE TABLE %s (id INT PRIMARY KEY, %s)`, s.table, cols))
	s.paths = make([]string, n)
	for i := range s.paths {
		s.paths[i] = fmt.Sprintf(pathf, i)
		if err := seedAndLink(i, s.paths[i], seed(i, s.paths[i])); err != nil {
			return err
		}
	}
	return nil
}

// systemSoak is a soak on the one server srv of sys.
func systemSoak(sys *core.System, srv *core.FileServer, table, cols string, n int, pathf string, seed func(int, string) []byte) (*soak, error) {
	s := &soak{db: sys.DB(), table: table, read: srv.Phys.ReadFile,
		newSession: func() opener { return sys.NewSession(expUID).OpenWrite }}
	return s, s.link(cols, n, pathf, seed, func(i int, p string, content []byte) error {
		return seedAndLink(sys, srv, table, i, p, content)
	})
}

// clusterSoak builds a cluster from cc and makes it a soak: each file is
// seeded with its sequence 0 on the member the ring places it on, and read
// back from whichever member owns it then.
func clusterSoak(cc core.ClusterConfig, table, cols string, n int, pathf string) (*core.Cluster, *soak, error) {
	cl, err := core.NewCluster(cc)
	if err != nil {
		return nil, nil, err
	}
	s := &soak{db: cl.DB(), table: table,
		newSession: func() opener { return cl.NewSession(expUID).OpenWrite },
		read: func(p string) ([]byte, error) {
			id, err := cl.Owner(p)
			if err != nil {
				return nil, err
			}
			m, err := cl.Member(id)
			if err != nil {
				return nil, err
			}
			content, err := m.Phys.ReadFile(p)
			if err != nil {
				return nil, fmt.Errorf("on %s: %w", m.Name, err)
			}
			return content, nil
		}}
	if err := s.link(cols, n, pathf, firstPayload, func(i int, p string, content []byte) error {
		return seedAndLinkCluster(cl, table, i, p, content)
	}); err != nil {
		cl.Close()
		return nil, nil, err
	}
	return cl, s, nil
}

// writeRound is one round of the acked-writer loop. Writer w commits to rows
// first+w, first+w+writers, … below end (0: every row), in turn.
type writeRound struct {
	writers, first, end int
	ops                 int         // commits each writer attempts; 0: until stop
	stop                func() bool // the end of a time-bounded round; nil: ops alone
	// failFast ends a writer at its first failed commit and makes that
	// failure the round's error; otherwise a failure is counted and the
	// writer goes on.
	failFast     bool
	afterFailure func(i int) // runs after each failed commit on row i
	// event, when set, runs once, eventAfter into the round, beside the
	// writers; with its pathLocker it can hold rows still meanwhile.
	event      func(pathLocker) error
	eventAfter time.Duration
}

// pathLocker locks rows idx against the writers, once the commits in flight
// on them have ended, and returns their acknowledged sequences and the
// unlock.
type pathLocker func(idx []int) (acked []int64, unlock func())

// roundResult is what one round acknowledged.
type roundResult struct {
	acked           []int64 // per path, the last sequence whose commit was acknowledged
	commits, failed int64
	wall            time.Duration
	ops             metrics.Histogram // every commit attempt, failed ones included
	eventAt         time.Time         // when the event started
	firstAck        []time.Time       // per path, its first acknowledged commit after eventAt
	eventErr        error
}

// write runs one round. Each writer is a session committing
// seqPayload(path, acked+1) at offset 0 of its rows in turn, under the row's
// mutex, so the acknowledged sequences of a path have the total order
// lostAcked holds its bytes to. A commit is acknowledged when its close
// returns no error; one that fails may still have landed.
func (s *soak) write(r writeRound) (*roundResult, error) {
	res := &roundResult{acked: make([]int64, len(s.paths)), firstAck: make([]time.Time, len(s.paths))}
	if r.end == 0 {
		r.end = len(s.paths)
	}
	pathMu := make([]sync.Mutex, len(s.paths))
	var commits, failed atomic.Int64
	var eventStarted atomic.Bool
	var first firstError
	lock := func(idx []int) ([]int64, func()) {
		acked := make([]int64, len(idx))
		for k, i := range idx {
			pathMu[i].Lock()
			acked[k] = res.acked[i]
		}
		return acked, func() {
			for _, i := range idx {
				pathMu[i].Unlock()
			}
		}
	}
	eventDone := make(chan struct{})
	go func() {
		defer close(eventDone)
		if r.event != nil {
			time.Sleep(r.eventAfter)
			res.eventAt = time.Now()
			eventStarted.Store(true)
			res.eventErr = r.event(lock)
		}
	}()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < r.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			openWrite := s.newSession()
			for n, i := 0, r.first+w; i < r.end && (r.ops == 0 || n < r.ops) && (r.stop == nil || !r.stop()); n++ {
				opStart := time.Now()
				pathMu[i].Lock()
				seq := res.acked[i] + 1
				err := commitEdit(s.db, openWrite, s.table, i, 0, seqPayload(s.paths[i], seq))
				if err == nil {
					res.acked[i] = seq
					if eventStarted.Load() && res.firstAck[i].IsZero() {
						res.firstAck[i] = time.Now()
					}
				}
				pathMu[i].Unlock()
				res.ops.Observe(time.Since(opStart))
				if err == nil {
					commits.Add(1)
				} else {
					failed.Add(1)
					if r.afterFailure != nil {
						r.afterFailure(i)
					}
					if r.failFast {
						first.set(fmt.Errorf("writer %d on %s: %w", w, s.paths[i], err))
						return
					}
				}
				if i += r.writers; i >= r.end {
					i = r.first + w
				}
			}
		}(w)
	}
	wg.Wait()
	res.wall = time.Since(start)
	<-eventDone
	res.commits, res.failed = commits.Load(), failed.Load()
	return res, first.get()
}

// lostAcked counts the paths whose bytes, read through read, fall short of
// their last acknowledged sequence: below it, or not a payload at all. exact
// also counts bytes above it. E21 wants exact: its writers are serialized
// and a failed commit ends the round, so the file must hold the acked
// sequence itself. Where a commit can land without its ack — an ack lost on
// the wire (E20), a quorum refusal after the owner committed (E23) — newer
// than the ack is legal; older means an acknowledged commit evaporated.
func lostAcked(read func(string) ([]byte, error), paths []string, acked []int64, exact bool) (int, error) {
	lost := 0
	for i, p := range paths {
		content, err := read(p)
		if err != nil {
			return lost, fmt.Errorf("read back %s: %w", p, err)
		}
		if seq := payloadSeq(content); seq < 0 || seq < acked[i] || exact && seq != acked[i] {
			lost++
		}
	}
	return lost, nil
}

// heldCopy is one member's copy of a path's archived history: what it holds,
// or why it could not be read.
type heldCopy struct {
	label, path string
	h           history
	err         error
}

// heldBy is historyDigest of path on member id of cl — on whichever member
// owns path now when id is "" — labelled label.
func heldBy(cl *core.Cluster, label, id, path string) heldCopy {
	c := heldCopy{label: label, path: path}
	if id == "" {
		id, c.err = cl.Owner(path)
	}
	var m *core.FileServer
	if c.err == nil {
		m, c.err = cl.Member(id)
	}
	if c.err == nil {
		c.h, c.err = historyDigest(m, cl.Authority(), path)
	}
	return c
}

// sameHistories compares pairs of copies of one path's history that must
// hold the same bytes. It counts the pairs that differ, or that could not
// both be read, and describes the first: the read error — naming the member,
// path and version — or both copies dumped version by version.
func sameHistories(pairs [][2]heldCopy) (mismatched int, first string) {
	for _, p := range pairs {
		a, b := p[0], p[1]
		if a.err == nil && b.err == nil && a.h.sameBytes(b.h) {
			continue
		}
		mismatched++
		switch {
		case mismatched > 1:
		case a.err != nil:
			first = a.label + ": " + a.err.Error()
		case b.err != nil:
			first = b.label + ": " + b.err.Error()
		default:
			first = fmt.Sprintf("%s: %s and %s hold different bytes", a.path, a.label, b.label) + dump(a.label, a.h, b.label, b.h)
		}
	}
	return mismatched, first
}
