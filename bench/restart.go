package main

import (
	"bytes"
	"fmt"
	"time"

	"datalinks"
	"datalinks/internal/token"
)

const (
	restartFileBytes = 96 << 10
	restartEditBytes = 512
)

// runRestart makes one pass over the restart workload: a single server
// (System.Crash + Open on the same dirs is the cold-start path; a cluster has
// none), a build phase that is small_commit without replication or ring, and
// then crash/reopen cycles for as long as the window lasts.
func runRestart(w workloadDef, o options) (*passResult, error) {
	res := &passResult{trace: newTraceReport()}
	shadow := make([][]byte, o.restartFiles)
	for id := range shadow {
		shadow[id] = fileContent(o.seed, id, restartFileBytes)
	}

	resetPeakRSS()
	open := func(dir string) (*target, error) { return openSingle(dir, o.traced) }
	var t *target
	for i := 0; i < o.setups; i++ {
		if t != nil {
			t.discard() // only the last set-up is used
		}
		var setup time.Duration
		var err error
		if t, setup, err = setUp(o, w.Name, open, shadow); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, setup)
	}
	dir := t.dir
	defer func() { t.discard() }()

	// Build: one client, rounds x files edits of 512 B, every one a commit
	// that becomes a packed archive version.
	ids := make([]int, o.restartFiles)
	for i := range ids {
		ids[i] = i
	}
	cl := &client{t: t, sess: t.session(), traced: o.traced, buf: make([]byte, restartEditBytes),
		gen: newOpGen(o.seed, w.Name, 0, ids, false)}
	layers := t.beginLayerWindow()
	start := time.Now()
	cl.phaseStart = start
	for round := 0; round < o.restartRounds; round++ {
		for _, id := range ids {
			off := cl.gen.nextOffset(restartFileBytes, restartEditBytes)
			cl.gen.fill(cl.buf)
			if cl.transact(id, true, func(f *datalinks.File) error {
				_, err := f.WriteAt(off, cl.buf)
				return err
			}) {
				copy(shadow[id][off:], cl.buf)
				cl.userBytes += restartEditBytes
			}
		}
	}
	res.loadElapsed = time.Since(start)
	t.waitArchives()
	layers.end(res, len(cl.commitLat))
	res.commitLat, res.opEnds, res.userBytes = cl.commitLat, cl.ends, cl.userBytes
	res.attempted, res.failed = cl.attempted, cl.failed
	res.benchOps = cl.ops
	if o.traced {
		res.trace.join(t, cl.ops)
	}

	// Reopen cycles. Each leaves one update in flight on a generated file,
	// kills the process state, and times Open on the same dirs until that
	// file — rolled back — is served through a token read. The host database
	// dies with the process and a linked file cannot be linked again, so from
	// here on tokens come from the file server's own authority (same key, same
	// validation path) instead of a SELECT.
	var reopenErr error
	identical, rolledBack, noRearchive := true, true, true
	useBefore := readUsage()
	loopStart := time.Now()
	for len(res.coldLat) < o.minReopens || time.Since(loopStart) < o.window {
		res.attempted++
		victim := cl.gen.nextFile()
		url, err := authorityURL(t, victim, token.Write)
		if err == nil {
			var f *datalinks.File
			if f, err = cl.sess.OpenWrite(url); err == nil {
				_, err = f.WriteAt(0, []byte("in-flight bytes that must not survive the crash"))
			}
		}
		if err != nil {
			reopenErr = fmt.Errorf("leaving an update in flight: %w", err)
			break
		}
		t.sys.Crash()

		start := time.Now()
		nt, err := openSingle(dir, o.traced)
		if err != nil {
			reopenErr = err
			break
		}
		t = nt
		cl.t, cl.sess = t, t.session()
		var got []byte
		url, err = authorityURL(t, victim, token.Read)
		if err == nil {
			got, err = readURL(cl.sess, url)
		}
		cold := time.Since(start)
		if err != nil {
			reopenErr = fmt.Errorf("first read after reopen: %w", err)
			break
		}
		res.coldLat = append(res.coldLat, cold)

		if !bytes.Equal(got, shadow[victim]) {
			identical = false
		}
		srv := t.members()[0]
		if rep := srv.Recovery; rep == nil || len(rep.RestoredFiles) != 1 || rep.RestoredFiles[0] != filePath(victim) {
			rolledBack = false
		}
		if srv.DLFM.Metrics().Counter("dlfm.archive.bytes_new").Value() != 0 || srv.Archive.Dedup().NewBytes != 0 {
			noRearchive = false
		}
	}
	res.opsElapsed = time.Since(loopStart)
	res.use = readUsage().sub(useBefore)
	res.ops = len(res.coldLat)
	if reopenErr != nil {
		res.failed++
	}

	res.addCheck("no failed operations", res.failed == 0, "%d of %d failed, first: %v %v", res.failed, res.attempted, cl.firstErr, reopenErr)
	res.addCheck("first read after every reopen is the committed version", identical, "an in-flight update survived a crash")
	res.addCheck("every reopen rolled back exactly the in-flight file", rolledBack, "recovery report names other files")
	res.addCheck("no reopen re-archived anything", noRearchive, "dlfm.archive.bytes_new moved during a cold start")
	if reopenErr == nil {
		verifyShadow(t.session(), shadow, res, func(id int) (string, error) { return authorityURL(t, id, token.Read) })
	}
	res.peakRSS = peakRSSMiB()
	return res, nil
}

// authorityURL is a tokenized URL for file id issued by the single server's
// own token authority.
func authorityURL(t *target, id int, typ token.Type) (string, error) {
	srv, err := t.sys.FileServer(singleName)
	if err != nil {
		return "", err
	}
	p := filePath(id)
	return t.url(p) + token.Sep + srv.Internal().DLFM.Authority().Issue(typ, p), nil
}

func readURL(sess opener, url string) ([]byte, error) {
	f, err := sess.OpenRead(url)
	if err != nil {
		return nil, err
	}
	b, err := f.ReadAll()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return b, err
}
