package core

// Scale-out namespace: a Cluster runs one DataLinks authority across N file
// servers. A consistent-hash ring places every link path on a member, every
// layer resolves ownership through the router (engine link/unlink, token
// issuing, session opens, metadata write-back), and membership can change
// while commits continue: paths that land on a new owner migrate live — drain,
// freeze, archive-history handoff, bundle import, evict — behind per-path
// gates, so an update is either committed by the old owner before the move or
// by the new owner after it, never lost in between.
//
// All members run their DLFM under the cluster's shared authority name, so
// dlfs://<authority>/<path> URLs stay valid across migrations, archive
// histories carry identical keys on any member's store, and tokens (one
// shared HMAC key) validate wherever the path currently lives. Member ids
// (fs1, fs2, ...) exist one layer down: they name the ring points, the
// durable directories, and the metrics.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"datalinks/internal/datalink"
	"datalinks/internal/dlfm"
	"datalinks/internal/engine"
	"datalinks/internal/fs"
	"datalinks/internal/metrics"
	"datalinks/internal/obs"
	"datalinks/internal/retry"
	"datalinks/internal/ring"
	"datalinks/internal/sqlmini"
	"datalinks/internal/upcall"
)

var clusterRoot = fs.Cred{UID: fs.Root}

// ClusterConfig configures a scale-out deployment.
type ClusterConfig struct {
	// Authority is the file-server name in DATALINK URLs
	// (dlfs://<authority>/...). Defaults to "cluster".
	Authority string
	// Members configures the initial member stacks; each ServerConfig.Name is
	// the member id on the ring. At least one member is required.
	Members []ServerConfig
	// VirtualNodes per member (0 = ring.DefaultVirtualNodes).
	VirtualNodes int
	Clock        func() time.Time
	TokenKey     []byte
	TokenTTL     time.Duration
	LockTimeout  time.Duration

	// Replicas is the total number of copies of every path's archive history
	// and link row, owner included: the owner plus its Replicas-1 distinct
	// ring successors. 0 or 1 keeps single-copy behavior (no replication).
	Replicas int
	// WriteQuorum is the number of copies (owner included) that must
	// acknowledge a commit before the application's close returns. 0 means
	// all Replicas; values are clamped to [1, Replicas]. A commit that lands
	// fewer acks returns dlfm.ErrReplicationQuorum to the writer but is NOT
	// rolled back — the owner's copy is durable and anti-entropy
	// (FlushReplication) repairs the gap.
	WriteQuorum int
	// ReplicaReads lets ReadFileContent fall back to a surviving replica
	// when the owner is unreachable. Staleness is bounded: a replica can be
	// behind by at most the commits the owner had not quorum-acked. Off by
	// default — reads fail until Failover promotes.
	ReplicaReads bool
	// ReplRetry shapes per-replica ship retry (zero value = retry defaults).
	ReplRetry retry.Policy
	// ReplChaos, when set, injects transport faults into the replication
	// stream: every ship frame consults Chaos.Strike (drops, resets, delays,
	// partitions), the same fault model the upcall wire runs under.
	ReplChaos *upcall.Chaos
	// ProbeInterval enables the health probe: every interval each member is
	// checked, and one found dead gets FailServer bookkeeping (plus, with
	// AutoFailover, a Failover). 0 disables probing.
	ProbeInterval time.Duration
	// AutoFailover makes the health probe run Failover on a dead member.
	AutoFailover bool
}

// Cluster is a running scale-out deployment: one host database and engine,
// N file-server stacks behind a consistent-hash router.
type Cluster struct {
	DB     *sqlmini.DB
	Engine *engine.Engine

	authority string
	clock     func() time.Time
	key       []byte
	ttl       time.Duration
	router    *Router

	repl replConfig

	mu      sync.Mutex
	deadCfg map[string]ServerConfig // failed members awaiting AbsorbDead or Failover

	probeStop chan struct{}
	probeWG   sync.WaitGroup

	// migrateHook, when set (tests only), runs before each path moves — a
	// migration, or a failover's promote off the dead src — and can fail it:
	// the crash-mid-absorb and failed-failover injection point.
	migrateHook func(path, src, dst string) error
}

// NewCluster builds and wires a scale-out deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Authority == "" {
		cfg.Authority = "cluster"
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("core: cluster needs at least one member")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if len(cfg.TokenKey) == 0 {
		cfg.TokenKey = []byte("datalinks-shared-secret")
	}
	reg := metrics.NewRegistry()
	db := sqlmini.NewDB(sqlmini.Options{Clock: cfg.Clock, LockTimeout: cfg.LockTimeout, Metrics: reg})
	eng := engine.New(db, engine.Options{Clock: cfg.Clock, Metrics: reg})

	ids := make([]string, 0, len(cfg.Members))
	for _, sc := range cfg.Members {
		if sc.Name == "" {
			return nil, fmt.Errorf("core: cluster member without a name")
		}
		ids = append(ids, sc.Name)
	}
	repl := replConfig{
		n:      cfg.Replicas,
		quorum: cfg.WriteQuorum,
		policy: cfg.ReplRetry,
		chaos:  cfg.ReplChaos,
		auto:   cfg.AutoFailover,
		probe:  cfg.ProbeInterval,
	}
	if repl.n < 1 {
		repl.n = 1
	}
	if repl.n > len(ids) {
		repl.n = len(ids)
	}
	if repl.quorum <= 0 || repl.quorum > repl.n {
		repl.quorum = repl.n
	}
	c := &Cluster{
		DB:        db,
		Engine:    eng,
		authority: cfg.Authority,
		clock:     cfg.Clock,
		key:       cfg.TokenKey,
		ttl:       cfg.TokenTTL,
		router:    newRouter(cfg.Authority, ring.New(cfg.VirtualNodes, ids...)),
		repl:      repl,
		deadCfg:   make(map[string]ServerConfig),
	}
	c.router.replicas = repl.n
	c.router.replicaReads = cfg.ReplicaReads
	for _, sc := range cfg.Members {
		fsrv, err := buildStack(sc, cfg.Authority, cfg.Clock, cfg.TokenKey, cfg.TokenTTL, eng)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.attachReplicator(fsrv)
		c.router.addMember(fsrv)
	}
	// One engine connection for the whole authority: the router resolves
	// which member processes each link.
	eng.AttachConn(cfg.Authority, c.router, cfg.TokenKey, cfg.TokenTTL)
	if repl.probe > 0 {
		c.probeStop = make(chan struct{})
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// attachReplicator installs the cluster's ship hook on one member's commit
// path (a no-op deployment-wide when Replicas <= 1).
func (c *Cluster) attachReplicator(fsrv *FileServer) {
	if c.repl.n > 1 {
		fsrv.DLFM.SetReplicator(&shardReplicator{c: c, owner: fsrv.Name})
	}
}

// Authority returns the cluster's shared file-server name.
func (c *Cluster) Authority() string { return c.authority }

// Router returns the cluster's path router.
func (c *Cluster) Router() *Router { return c.router }

// Members lists the live member ids, sorted.
func (c *Cluster) Members() []string { return c.router.memberIDs() }

// Member returns one member's stack by id.
func (c *Cluster) Member(id string) (*FileServer, error) { return c.router.member(id) }

// Owner reports which member currently serves a path.
func (c *Cluster) Owner(path string) (string, error) {
	m, err := c.router.owner(path)
	if err != nil {
		return "", err
	}
	return m.Name, nil
}

// URL returns the DATALINK URL for a path under this cluster's authority.
func (c *Cluster) URL(path string) string {
	return datalink.Link{Server: c.authority, Path: path}.URL()
}

// SeedFile creates an (unlinked) file on the member the ring places it on,
// owned by uid — the scale-out analogue of writing a file into one server's
// file system before linking it.
func (c *Cluster) SeedFile(path string, content []byte, uid fs.UID) error {
	m, err := c.router.owner(path)
	if err != nil {
		return err
	}
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		if err := m.Phys.MkdirAll(path[:i], clusterRoot, 0o777); err != nil {
			return err
		}
	}
	if err := m.Phys.WriteFile(path, content); err != nil {
		return err
	}
	ino, err := m.Phys.Lookup(path)
	if err != nil {
		return err
	}
	if err := m.Phys.Chown(ino, clusterRoot, uid); err != nil {
		return err
	}
	return m.Phys.Chmod(ino, fs.Cred{UID: uid}, 0o644)
}

// WaitArchives drains async archiving on every member.
func (c *Cluster) WaitArchives() {
	for _, id := range c.router.memberIDs() {
		if m, err := c.router.member(id); err == nil {
			m.DLFM.WaitArchives()
		}
	}
}

// Close shuts down every member stack.
func (c *Cluster) Close() {
	if c.probeStop != nil {
		close(c.probeStop)
		c.probeWG.Wait()
		c.probeStop = nil
	}
	for _, id := range c.router.memberIDs() {
		if m, err := c.router.member(id); err == nil {
			closeStack(m)
		}
	}
}

// probeLoop is the health probe: it sweeps the member set every interval and
// converts a silently dead member (KillServer, or a crashed stack) into the
// same bookkeeping FailServer does — and, with AutoFailover, straight into a
// Failover, so orphaned paths come back without an operator in the loop. A
// Failover that returns an error is counted and tried again on every tick
// until the member has left deadCfg: markDead already took it off the member
// list, so nothing else would come back to it. Only the probe's own failovers
// are retried — a FailServer awaiting AbsorbDead is the operator's.
func (c *Cluster) probeLoop() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.repl.probe)
	defer t.Stop()
	failed := make(map[string]bool)
	failover := func(id string) {
		if _, err := c.Failover(id); err != nil {
			failed[id] = true
			c.router.reg.Counter("repl.failover_errors").Inc()
			return
		}
		delete(failed, id)
	}
	for {
		select {
		case <-c.probeStop:
			return
		case <-t.C:
		}
		for id := range failed {
			c.mu.Lock()
			_, dead := c.deadCfg[id]
			c.mu.Unlock()
			if !dead {
				// Past its ring swap (what failed was the redundancy repair
				// behind it), or absorbed meanwhile.
				delete(failed, id)
				continue
			}
			failover(id)
		}
		for _, id := range c.router.memberIDs() {
			m, err := c.router.member(id)
			if err != nil || m.DLFM.Alive() {
				continue
			}
			// Dead but still routable: record the death.
			c.markDead(m)
			c.router.reg.Counter("repl.probe_deaths").Inc()
			if c.repl.auto && c.repl.n > 1 {
				failover(id)
			}
		}
	}
}

// KillServer kills a member's processes without telling the cluster — the
// silent machine death FailServer's explicit bookkeeping papers over. Only
// the health probe (or a later FailServer call) notices.
func (c *Cluster) KillServer(id string) error {
	m, err := c.router.member(id)
	if err != nil {
		return err
	}
	killStack(m)
	return nil
}

// markDead is the death bookkeeping FailServer and the health probe share:
// the member stops being routable and its config waits for AbsorbDead or
// Failover.
func (c *Cluster) markDead(m *FileServer) {
	c.router.dropMember(m.Name)
	c.mu.Lock()
	c.deadCfg[m.Name] = m.cfg
	c.mu.Unlock()
}

// closeStack shuts one member stack down cleanly: archive jobs drain, the
// repository checkpoints, the TCP endpoints close.
func closeStack(m *FileServer) {
	m.DLFM.WaitArchives()
	m.DLFM.Close()
	m.Archive.Close()
	m.closeEndpoints()
}

// killStack is the machine dying: the DLFM is killed without a checkpoint,
// the archive drops its volatile state, the TCP endpoints close. Only what
// the durable directories already hold survives.
func killStack(m *FileServer) {
	m.DLFM.Kill()
	m.Archive.Crash()
	m.closeEndpoints()
}

// closeEndpoints closes the TCP upcall plane, if the stack runs one.
func (m *FileServer) closeEndpoints() {
	if m.tcpClient != nil {
		m.tcpClient.Close()
	}
	if m.tcpServer != nil {
		m.tcpServer.Close()
	}
}

// Metrics aggregates every component registry, including the ring's.
func (c *Cluster) Metrics() map[string]*metrics.Registry {
	out := map[string]*metrics.Registry{
		"engine":              c.Engine.Metrics(),
		"ring:" + c.authority: c.router.reg,
	}
	for _, id := range c.router.memberIDs() {
		if m, err := c.router.member(id); err == nil {
			out["dlfm:"+id] = m.DLFM.Metrics()
			out["dlfs:"+id] = m.DLFS.Metrics()
			out["upcall:"+id] = m.Transport.Metrics()
		}
	}
	return out
}

// Placements counts linked paths per live member (ring-inspection tooling;
// also refreshes the ring.placement.<member> gauges).
func (c *Cluster) Placements() map[string]int {
	out := make(map[string]int)
	for _, id := range c.router.memberIDs() {
		m, err := c.router.member(id)
		if err != nil {
			continue
		}
		n := len(m.DLFM.LinkedPaths())
		out[id] = n
		g := c.router.reg.Counter("ring.placement." + id)
		g.Reset()
		g.Add(int64(n))
	}
	return out
}

// ---- Membership changes (live rebalance) ----

// AddServer grows the cluster by one member: the stack is built, the target
// ring is computed, every path whose ownership moves migrates live to the new
// member, and the ring swaps. Commits against non-moving paths proceed
// throughout; commits against a moving path drain before the move or route to
// the new owner after it.
func (c *Cluster) AddServer(sc ServerConfig) error {
	if sc.Name == "" {
		return fmt.Errorf("core: cluster member without a name")
	}
	c.router.rebalanceMu.Lock()
	defer c.router.rebalanceMu.Unlock()
	if _, err := c.router.member(sc.Name); err == nil {
		return fmt.Errorf("core: member %q already in the cluster", sc.Name)
	}
	fsrv, err := buildStack(sc, c.authority, c.clock, c.key, c.ttl, c.Engine)
	if err != nil {
		return err
	}
	c.attachReplicator(fsrv)
	target := c.router.currentRing().With(sc.Name)
	c.router.beginRebalance(target, fsrv)
	if err := c.rebalanceTo(target); err != nil {
		c.router.abortRebalance()
		// The joining member keeps any paths that already migrated onto it
		// (their overrides route there), so its stack must stay up — but if
		// nothing moved, beginRebalance's registration is rolled back too.
		if !c.hasOverrideTo(sc.Name) {
			c.router.dropMember(sc.Name)
			closeStack(fsrv)
		}
		return err
	}
	c.router.finishRebalance(target)
	if err := c.FlushReplication(); err != nil {
		return err
	}
	c.Placements()
	return nil
}

// hasOverrideTo reports whether any path currently overrides to member id.
func (c *Cluster) hasOverrideTo(id string) bool {
	c.router.mu.Lock()
	defer c.router.mu.Unlock()
	for _, m := range c.router.overrides {
		if m == id {
			return true
		}
	}
	return false
}

// RemoveServer drains a member gracefully: every path it owns migrates to the
// ring without it, the ring swaps, and the stack shuts down.
func (c *Cluster) RemoveServer(id string) error {
	c.router.rebalanceMu.Lock()
	defer c.router.rebalanceMu.Unlock()
	m, err := c.router.member(id)
	if err != nil {
		return err
	}
	target := c.router.currentRing().Without(id)
	if len(target.Members()) == 0 {
		return fmt.Errorf("core: cannot remove the last member %q", id)
	}
	c.router.beginRebalance(target, nil)
	if err := c.rebalanceTo(target); err != nil {
		c.router.abortRebalance()
		return err
	}
	c.router.finishRebalance(target)
	c.router.dropMember(id)
	closeStack(m)
	if err := c.FlushReplication(); err != nil {
		return err
	}
	c.Placements()
	return nil
}

// FailServer simulates a member machine dying — KillServer — and records the
// death at once instead of waiting for the health probe. The member's durable
// directories (RepoDir, ArchiveDir) survive for AbsorbDead.
func (c *Cluster) FailServer(id string) error {
	m, err := c.router.member(id)
	if err != nil {
		return err
	}
	killStack(m)
	c.markDead(m)
	return nil
}

// AbsorbDead recovers a failed member's files under the surviving members:
// the dead member's durable directories are cold-started (repository WAL
// replay rebuilds the link set; linked contents materialize from the archive),
// every recovered path migrates to its owner on the ring without the dead
// member, and the member leaves the ring. Requires the failed member to have
// run with RepoDir set — a purely volatile member leaves nothing to absorb.
func (c *Cluster) AbsorbDead(id string) error {
	c.mu.Lock()
	sc, dead := c.deadCfg[id]
	c.mu.Unlock()
	if !dead {
		return fmt.Errorf("core: member %q has not failed", id)
	}
	if sc.RepoDir == "" {
		return fmt.Errorf("core: member %q has no durable repository to absorb", id)
	}
	c.router.rebalanceMu.Lock()
	defer c.router.rebalanceMu.Unlock()
	// Cold-start the dead member's durable state under a fresh stack. The
	// RAM file system died with the machine; dlfm.Open's recovery rebuilds
	// the link set from the WAL and re-materializes contents from the archive.
	fsrv, err := buildStack(sc, c.authority, c.clock, c.key, c.ttl, c.Engine)
	if err != nil {
		return fmt.Errorf("core: absorb %s: cold start: %w", id, err)
	}
	target := c.router.currentRing().Without(id)
	if len(target.Members()) == 0 {
		closeStack(fsrv)
		return fmt.Errorf("core: no surviving members to absorb %q into", id)
	}
	// Re-enter the ring long enough to drain: traffic for its paths resumes
	// against the recovered stack while they migrate out one by one.
	c.router.beginRebalance(target, fsrv)
	if err := c.rebalanceTo(target); err != nil {
		// A partial absorb must leave the cluster where a second AbsorbDead
		// can finish the job: paths that migrated keep their overrides (they
		// live on survivors now), the recovered stack closes — its durable
		// dirs hold everything that did not move — and, crucially, it leaves
		// the member table. Without the dropMember here the closed stack
		// stayed routable and the retry found the member "already present".
		c.router.abortRebalance()
		c.router.dropMember(id)
		closeStack(fsrv)
		return err
	}
	c.router.finishRebalance(target)
	c.router.dropMember(id)
	closeStack(fsrv)
	c.mu.Lock()
	delete(c.deadCfg, id)
	c.mu.Unlock()
	if err := c.FlushReplication(); err != nil {
		return err
	}
	c.Placements()
	return nil
}

// rebalanceTo migrates every path whose owner differs between the current
// placement and the target ring. Caller holds rebalanceMu with the target
// installed as pending.
func (c *Cluster) rebalanceTo(target *ring.Ring) error {
	start := time.Now()
	for _, srcID := range c.router.memberIDs() {
		src, err := c.router.member(srcID)
		if err != nil {
			continue
		}
		for _, path := range src.DLFM.LinkedPaths() {
			dstID := target.Lookup(path)
			if dstID == srcID {
				continue
			}
			dst, err := c.router.member(dstID)
			if err != nil {
				return fmt.Errorf("core: rebalance: target member %q: %w", dstID, err)
			}
			if err := c.migratePath(src, dst, path); err != nil {
				return fmt.Errorf("core: migrate %s %s→%s: %w", path, srcID, dstID, err)
			}
		}
	}
	c.router.reg.Counter("ring.rebalance_ms").Add(time.Since(start).Milliseconds())
	c.router.reg.Histogram("ring.rebalance").Observe(time.Since(start))
	return nil
}

// migratePath moves one linked path between members: gate new traffic, drain
// and freeze the source, bring the destination's archive history level
// (catchUpReplica — chunks dedup by hash), import the repository bundle, point
// the router at the destination, evict the source. On any failure the source
// remains the owner.
func (c *Cluster) migratePath(src, dst *FileServer, path string) error {
	if c.migrateHook != nil {
		if err := c.migrateHook(path, src.Name, dst.Name); err != nil {
			return err
		}
	}
	tr := src.Obs.Start("migrate")
	root := tr.Root()
	root.SetAttr("path", path)
	root.SetAttr("src", src.Name)
	root.SetAttr("dst", dst.Name)
	err := c.migratePathTraced(src, dst, path, root)
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	tr.Finish()
	return err
}

func (c *Cluster) migratePathTraced(src, dst *FileServer, path string, sp *obs.Span) error {
	gate := c.router.gate(path)
	defer c.router.ungate(path, gate)

	// Drain + freeze. A long-running writer can exceed one OpenWait; retry a
	// few times before giving up on the whole rebalance.
	drain := sp.Child("drain")
	var b *dlfm.FileBundle
	var err error
	for attempt := 0; ; attempt++ {
		b, err = src.DLFM.BeginExport(path)
		if err == nil || attempt >= 2 {
			drain.SetAttr("attempts", int64(attempt+1))
			break
		}
	}
	drain.End()
	if err != nil {
		return err
	}
	defer b.Release()

	// A destination that holds the path's replica is already level, so the
	// transfer moves nothing and ImportBundle retires the replica row. If the
	// handover fails the source stays the owner, and a destination that was
	// not a replica keeps nothing of what was just imported.
	handover := sp.Child("handover")
	wasReplica := dst.DLFM.ReplicaVersion(path) >= 0
	err = c.catchUpReplica(src, dst, path)
	if err == nil {
		err = dst.DLFM.ImportBundle(b)
	}
	handover.End()
	if err != nil {
		if !wasReplica {
			_ = dst.Archive.Drop(c.authority, path)
		}
		src.DLFM.AbortExport(path)
		return err
	}
	// The destination owns the path from here: stragglers parked on the
	// source's freeze fail over via the session retry, new traffic routes by
	// the override until the ring swap makes it implicit.
	c.router.setOverride(path, dst.Name)
	if err := src.DLFM.EndExport(path, true); err != nil {
		return err
	}
	if err := src.Archive.Drop(c.authority, path); err != nil {
		return err
	}
	c.router.reg.Counter("ring.moves").Inc()
	return nil
}
