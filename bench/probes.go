package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"datalinks"
	"datalinks/internal/archive"
	"datalinks/internal/catalog"
	"datalinks/internal/chunkdisk"
	"datalinks/internal/extent"
	"datalinks/internal/fs"
	"datalinks/internal/fsyncer"
	"datalinks/internal/ring"
	"datalinks/internal/sqlmini"
	"datalinks/internal/token"
	"datalinks/internal/upcall"
	"datalinks/internal/wal"
	"datalinks/internal/workload"
)

// Probes time calls into each layer's public functions from outside, on the
// layer's own temp dir under the run dir, once per run. They give every layer
// a number that does not depend on which workload ran.

// timed calls fn n/10 times to warm up and then n times in 5 batches, passing
// a counter that never repeats, and returns the median batch's microseconds
// per call plus bytes allocated per call over all batches. Nothing else runs
// in the process while a probe does.
func timed(n int, fn func(i int)) (usPerOp, allocBPerOp float64) {
	next := 0
	for ; next < n/10; next++ {
		fn(next)
	}
	const batches = 5
	per := n / batches
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	means := make([]float64, batches)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < per; i++ {
			fn(next)
			next++
		}
		means[b] = float64(time.Since(start)) / float64(per) / 1e3
	}
	runtime.ReadMemStats(&ms1)
	return median(means), float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(per*batches)
}

// probeSet collects probe results; the first error stops the set.
type probeSet struct {
	dir    string
	seed   int64
	values map[string]float64
	err    error
}

// bytes returns 256 KiB of seeded content for the probe named label.
func (p *probeSet) bytes(label string) []byte {
	b := make([]byte, popFileBytes)
	workload.RNG(subSeed(p.seed, "probe/"+label, 0)).Read(b)
	return b
}

func (p *probeSet) set(name string, v float64) { p.values[name] = v }

func (p *probeSet) tmp(name string) string {
	d := filepath.Join(p.dir, name)
	if err := os.MkdirAll(d, 0o755); err != nil && p.err == nil {
		p.err = err
	}
	return d
}

func (p *probeSet) check(what string, err error) bool {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("probe %s: %w", what, err)
	}
	return p.err == nil
}

// runProbes runs every probe under dir (removed afterwards) and returns the
// values by metric name.
func runProbes(parent string, seed int64) (map[string]float64, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "probes-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &probeSet{dir: dir, seed: seed, values: map[string]float64{}}
	for _, probe := range []func(*probeSet){
		probeToken, probeSQL, probeUpcall, probeFS, probeExtent, probeArchive,
		probeCatalog, probeChunkdisk, probeFsyncer, probeWAL, probeRing, probeDevice,
	} {
		if probe(p); p.err != nil {
			return nil, p.err
		}
	}
	return p.values, nil
}

func probeToken(p *probeSet) {
	a := token.NewAuthority([]byte("probe-key"), nil, 0)
	us, _ := timed(20000, func(i int) {
		path := filePath(i % popFiles)
		if _, err := a.Validate(a.Issue(token.Read, path), path); err != nil {
			p.check("token", err)
		}
	})
	p.set("token.issue_validate_us", us)
}

func probeSQL(p *probeSet) {
	// The token SELECT as a client issues it, on an in-memory system so that
	// only the SQL layer and the token issue are in the path.
	sys, err := datalinks.Open(datalinks.Config{Servers: []datalinks.ServerConfig{{Name: singleName}}})
	if !p.check("sql open", err) {
		return
	}
	defer sys.Close()
	t := &target{sys: sys}
	contents := make([][]byte, popFiles)
	for i := range contents {
		contents[i] = []byte("probe")
	}
	if !p.check("sql populate", t.populate(contents)) {
		return
	}
	us, _ := timed(5000, func(i int) {
		_, err := sys.QueryString(`SELECT DLURLCOMPLETE(doc) FROM files WHERE id = ?`, i%popFiles)
		p.check("select token", err)
	})
	p.set("sqlmini.select_token_us", us)

	// An autocommit UPDATE on a database logging to disk like a DLFM
	// repository does: group fsync, 1 MiB checkpoints.
	dir := p.tmp("sqlmini")
	lg, err := wal.Open(wal.Config{Dir: dir, Fsync: fsyncer.PolicyGroup})
	if !p.check("sql wal", err) {
		return
	}
	defer lg.Close()
	db := sqlmini.NewDB(sqlmini.Options{Log: lg, Dir: dir, CheckpointBytes: 1 << 20})
	_, err = db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	for i := 0; i < popFiles && err == nil; i++ {
		_, err = db.Exec(`INSERT INTO t VALUES (?, 0)`, sqlmini.Int(int64(i)))
	}
	if !p.check("sql seed", err) {
		return
	}
	us, _ = timed(2000, func(i int) {
		_, err := db.Exec(`UPDATE t SET v = ? WHERE id = ?`, sqlmini.Int(int64(i)), sqlmini.Int(int64(i%popFiles)))
		p.check("update commit", err)
	})
	p.set("sqlmini.update_commit_us", us)
}

// noopService answers every upcall at once: what remains is the wire.
type noopService struct{}

func (noopService) Upcall(upcall.Request) (upcall.Response, error) {
	return upcall.Response{OK: true}, nil
}

func probeUpcall(p *probeSet) {
	srv, addr, err := upcall.Serve(noopService{}, "127.0.0.1:0")
	if !p.check("upcall serve", err) {
		return
	}
	defer srv.Close()
	cl, err := upcall.DialConfig(addr, upcall.ClientConfig{PoolSize: 2})
	if !p.check("upcall dial", err) {
		return
	}
	defer cl.Close()
	tok := token.NewAuthority([]byte("probe-key"), nil, 0).Issue(token.Read, filePath(0))
	us, alloc := timed(5000, func(i int) {
		_, err := cl.Upcall(upcall.Request{Op: upcall.OpValidateToken, Path: filePath(0), Token: tok, UID: appUID})
		p.check("upcall", err)
	})
	p.set("upcall.rtt_us", us)
	p.set("upcall.alloc_b_per_call", alloc)
}

func probeFS(p *probeSet) {
	phys := fs.New()
	if !p.check("fs seed", phys.WriteFile("/f", p.bytes("fs"))) {
		return
	}
	ino, err := phys.Lookup("/f")
	if !p.check("fs lookup", err) {
		return
	}
	rd, wr := make([]byte, rangeBytes), make([]byte, commitBytes)
	us, _ := timed(20000, func(i int) {
		_, err := phys.ReadAt(ino, int64(i%(popFileBytes/rangeBytes))*rangeBytes, rd)
		p.check("fs read", err)
	})
	p.set("fs.read_16k_us", us)
	us, _ = timed(20000, func(i int) {
		_, err := phys.WriteAt(ino, int64(i%(popFileBytes/commitBytes))*commitBytes, wr)
		p.check("fs write", err)
	})
	p.set("fs.write_4k_us", us)
}

func probeExtent(p *probeSet) {
	b := extent.NewBuffer()
	b.SetBytes(p.bytes("extent"))
	wr := make([]byte, commitBytes)
	// The previous snapshot stays alive across the write, as the archive's
	// copy of the last version does, so every write copies one chunk.
	prev := b.Snapshot()
	us, alloc := timed(2000, func(i int) {
		b.WriteAt(int64(i%(popFileBytes/commitBytes))*commitBytes, wr)
		snap := b.Snapshot()
		prev.Release()
		prev = snap
	})
	prev.Release()
	p.set("extent.write_snapshot_us", us)
	p.set("extent.alloc_b_per_write", alloc)
}

func probeArchive(p *probeSet) {
	st, err := archive.NewTiered(0, nil, archive.TierConfig{Dir: p.tmp("archive"), Fsync: fsyncer.PolicyGroup})
	if !p.check("archive open", err) {
		return
	}
	defer st.Close()
	b := extent.NewBuffer()
	b.SetBytes(p.bytes("archive"))
	wr := make([]byte, commitBytes)
	ctx := context.Background()
	versions := 0
	us, alloc := timed(1000, func(v int) {
		wr[0], wr[1] = byte(v), byte(v>>8)
		b.WriteAt(int64(v%(popFileBytes/commitBytes))*commitBytes, wr)
		snap := b.Snapshot()
		_, err := st.PutSnapshotCtx(ctx, "probe", "/f", archive.Version(v), uint64(v+1), snap)
		snap.Release()
		versions = v + 1
		p.check("archive put", err)
	})
	p.set("archive.put_delta_us", us)
	p.set("archive.put_alloc_b", alloc)
	materialize := func(e archive.Entry, err error) {
		if err == nil {
			var snap *extent.Snapshot
			if snap, err = e.Snapshot(); err == nil {
				snap.Release()
			}
		}
		p.check("archive get", err)
	}
	us, _ = timed(1000, func(int) { materialize(st.Latest("probe", "/f")) })
	p.set("archive.get_latest_us", us)
	us, _ = timed(1000, func(i int) { materialize(st.AsOf("probe", "/f", uint64(1+i%versions))) })
	p.set("archive.asof_us", us)
}

// deltaRec is the catalog record of version v of a 256 KiB file: a full
// manifest first, one changed chunk afterwards.
func deltaRec(key string, v int) *catalog.PutRec {
	const chunks = popFileBytes / extent.ChunkSize
	r := &catalog.PutRec{Key: key, Version: int64(v), StateID: uint64(v + 1), Size: popFileBytes,
		StoredUnixNano: int64(v), NChunks: chunks}
	if v == 0 {
		r.IsFull = true
		for i := 0; i < chunks; i++ {
			r.Full = append(r.Full, sha256.Sum256([]byte(fmt.Sprint(key, i))))
		}
		return r
	}
	r.Mods = []catalog.Mod{{Idx: int32(v % chunks), Hash: sha256.Sum256([]byte(fmt.Sprint(key, v)))}}
	return r
}

const openProbeRecords = 10000

func probeCatalog(p *probeSet) {
	dir := p.tmp("catalog")
	c, err := catalog.Open(dir, catalog.Config{Fsync: fsyncer.PolicyGroup})
	if !p.check("catalog open", err) {
		return
	}
	// 10 000 appends over 128 keys: the timing is the append probe, the log
	// they leave behind is what the open probe replays.
	next := map[int]int{}
	us, _ := timed(openProbeRecords*10/11, func(i int) {
		k := i % 128
		p.check("catalog append", c.AppendPut(deltaRec(fmt.Sprintf("probe\x00/f%d", k), next[k])))
		next[k]++
	})
	p.set("catalog.append_us", us)
	if !p.check("catalog close", c.Close()) {
		return
	}
	start := time.Now()
	c, err = catalog.Open(dir, catalog.Config{Fsync: fsyncer.PolicyGroup})
	elapsed := time.Since(start)
	if !p.check("catalog reopen", err) {
		return
	}
	recs := c.Stats().LogRecords + c.Stats().SnapshotRecords
	p.check("catalog close", c.Close())
	p.set("catalog.open_ms_per_10k_recs", float64(elapsed)/1e6*openProbeRecords/float64(max(recs, 1)))
}

func probeChunkdisk(p *probeSet) {
	// A budget of one chunk, so every Get of an older chunk is a page-in.
	s, err := chunkdisk.Open(chunkdisk.Config{Dir: p.tmp("chunks"), MemoryBudget: extent.ChunkSize, Fsync: fsyncer.PolicyGroup})
	if !p.check("chunkdisk open", err) {
		return
	}
	defer s.Close()
	const n = 550
	base := p.bytes("chunkdisk")[:extent.ChunkSize]
	hashes := make([]extent.Hash, n)
	chunks := make([]*extent.Chunk, n)
	for i := range chunks {
		data := append([]byte(nil), base...)
		data[0], data[1] = byte(i), byte(i>>8)
		hashes[i] = sha256.Sum256(data)
		chunks[i] = extent.WrapChunk(data, hashes[i])
	}
	us, _ := timed(n*10/11, func(i int) {
		_, err := s.Put(hashes[i], chunks[i])
		p.check("chunkdisk put", err)
	})
	p.set("chunkdisk.put_us", us)
	if !p.check("chunkdisk sync", s.Sync()) {
		return
	}
	us, _ = timed(n*10/11, func(i int) {
		c, err := s.Get(hashes[i])
		if p.check("chunkdisk get", err) {
			c.ReleaseChunk()
		}
	})
	p.set("chunkdisk.get_cold_us", us)

	dir := p.tmp("blobs")
	s2, err := chunkdisk.Open(chunkdisk.Config{Dir: dir})
	if !p.check("chunkdisk open", err) {
		return
	}
	blob := make([]byte, 512)
	for i := 0; i < openProbeRecords; i++ {
		blob[0], blob[1] = byte(i), byte(i>>8)
		data := append([]byte(nil), blob...)
		h := sha256.Sum256(data)
		if _, err := s2.Put(h, extent.WrapChunk(data, h)); !p.check("chunkdisk fill", err) {
			return
		}
	}
	if !p.check("chunkdisk close", s2.Close()) {
		return
	}
	start := time.Now()
	s2, err = chunkdisk.Open(chunkdisk.Config{Dir: dir})
	elapsed := time.Since(start)
	if !p.check("chunkdisk reopen", err) {
		return
	}
	p.check("chunkdisk close", s2.Close())
	p.set("chunkdisk.open_ms_per_10k_blobs", float64(elapsed)/1e6)
}

// appendSync4K times fn after each 4 KiB append to a fresh file in dir.
func appendSync4K(p *probeSet, dir string, n int, sync func(f *os.File) error) float64 {
	f, err := os.CreateTemp(dir, "sync-")
	if !p.check("sync probe file", err) {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, commitBytes)
	us, _ := timed(n, func(int) {
		_, err := f.Write(buf)
		if err == nil {
			err = sync(f)
		}
		p.check("append+sync", err)
	})
	return us
}

func fdatasync(f *os.File) error { return syscall.Fdatasync(int(f.Fd())) }

func probeFsyncer(p *probeSet) {
	var cur *os.File
	s := fsyncer.New(fsyncer.PolicyGroup, 0, func() error { return fdatasync(cur) }, nil)
	p.set("fsyncer.barrier_us", appendSync4K(p, p.tmp("fsyncer"), 2000, func(f *os.File) error {
		cur = f
		return s.Barrier()
	}))
}

func probeWAL(p *probeSet) {
	dir := p.tmp("wal")
	lg, err := wal.Open(wal.Config{Dir: dir, Fsync: fsyncer.PolicyGroup})
	if !p.check("wal open", err) {
		return
	}
	payload := p.bytes("wal")[:256]
	us, _ := timed(openProbeRecords*10/11, func(i int) {
		_, err := lg.Append(wal.Record{Type: wal.RecUpdate, TxnID: uint64(i + 1), Payload: payload})
		if err == nil {
			_, err = lg.Flush()
		}
		p.check("wal append", err)
	})
	p.set("wal.append_flush_us", us)
	recs := lg.TailLSN()
	lg.Close()
	start := time.Now()
	lg, err = wal.Open(wal.Config{Dir: dir, Fsync: fsyncer.PolicyGroup})
	elapsed := time.Since(start)
	if !p.check("wal reopen", err) {
		return
	}
	lg.Close()
	p.set("wal.open_replay_ms_per_10k_recs", float64(elapsed)/1e6*openProbeRecords/float64(max(recs, 1)))
}

func probeRing(p *probeSet) {
	r := ring.New(0, "m1", "m2", "m3")
	paths := make([]string, 1024)
	for i := range paths {
		paths[i] = filePath(i)
	}
	us, _ := timed(200000, func(i int) {
		if len(r.SuccessorsFor(paths[i%len(paths)], 3)) != 3 {
			p.check("ring", fmt.Errorf("short successor list"))
		}
	})
	p.set("ring.successors_ns", us*1e3)
}

// probeDevice records what one durable 4 KiB append costs on the checkout's
// real disk and in the run dir: context for reading fsyncs-per-commit, never
// a gate.
func probeDevice(p *probeSet) {
	if !p.check("device dir", os.MkdirAll(outDir(), 0o755)) {
		return
	}
	p.set("device.fdatasync_us", appendSync4K(p, outDir(), 200, fdatasync))
	p.set("device.rundir_fdatasync_us", appendSync4K(p, p.dir, 200, fdatasync))
}
