package core

// Scale-out namespace: a Cluster runs one DataLinks authority across N file
// servers. A consistent-hash ring places every link path on a member, every
// layer resolves ownership through the router (engine link/unlink, token
// issuing, session opens, metadata write-back), and membership can change
// while commits continue: paths that land on a new owner migrate live — drain,
// freeze, catch-up, promote, evict — behind per-path gates, so an update is
// either committed by the old owner before the move or by the new owner after
// it, never lost in between.
//
// All members run their DLFM under the cluster's shared authority name, so
// dlfs://<authority>/<path> URLs stay valid across migrations, archive
// histories carry identical keys on any member's store, and tokens (one
// shared HMAC key) validate wherever the path currently lives. Member ids
// (fs1, fs2, ...) exist one layer down: they name the ring points, the
// durable directories, and the metrics.

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"datalinks/internal/datalink"
	"datalinks/internal/engine"
	"datalinks/internal/fs"
	"datalinks/internal/metrics"
	"datalinks/internal/obs"
	"datalinks/internal/retry"
	"datalinks/internal/ring"
	"datalinks/internal/sqlmini"
	"datalinks/internal/upcall"
)

// clusterAuthority is a cluster's file-server name in DATALINK URLs
// (dlfs://cluster/...): every member's DLFM registers under it, so URLs,
// archive keys and host metadata are the same on every member.
const clusterAuthority = "cluster"

// ClusterConfig configures a scale-out deployment. It is the public
// datalinks.ClusterConfig (a type alias).
type ClusterConfig struct {
	// Members configures the initial member stacks; each ServerConfig.Name is
	// the member id on the ring. At least one member is required.
	Members     []ServerConfig
	Clock       func() time.Time
	TokenKey    []byte
	TokenTTL    time.Duration
	LockTimeout time.Duration

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
	// ProbeInterval enables the health probe: every interval each member is
	// checked, and one found dead gets FailServer bookkeeping and, with
	// Replicas > 1, a Failover. 0 disables probing.
	ProbeInterval time.Duration

	// replRetry shapes per-replica ship retry (zero value = retry defaults).
	replRetry retry.Policy
	// replChaos, when set, injects transport faults into the replication
	// stream: every ship frame consults Chaos.Strike (drops, resets, delays,
	// partitions), the same fault model the upcall wire runs under.
	replChaos *upcall.Chaos
}

// ErrNoDurableRepo refuses to restart a failed member whose repository does
// not survive it: one that ran without RepoDir (its private directory died
// with it), or a restart config naming a different RepoDir.
var ErrNoDurableRepo = errors.New("core: failed member has no durable repository")

// Cluster is a running scale-out deployment: one host database and engine,
// N file-server stacks behind a consistent-hash router.
type Cluster struct {
	Engine *engine.Engine

	clock  func() time.Time
	key    []byte
	ttl    time.Duration
	router *Router

	repl replConfig

	mu      sync.Mutex
	deadCfg map[string]ServerConfig // failed members awaiting a restart or Failover

	probeStop chan struct{}
	probeWG   sync.WaitGroup

	// migrateHook, when set (tests only), runs before each path moves — a
	// migration, or a failover's promote off the dead src — and can fail it:
	// the crash-mid-absorb and failed-failover injection point.
	migrateHook func(path, src, dst string) error
}

// NewCluster builds and wires a scale-out deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("core: cluster needs at least one member")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if len(cfg.TokenKey) == 0 {
		cfg.TokenKey = []byte("datalinks-shared-secret")
	}
	ids := make([]string, 0, len(cfg.Members))
	for _, sc := range cfg.Members {
		if sc.Name == "" {
			return nil, fmt.Errorf("core: cluster member without a name")
		}
		ids = append(ids, sc.Name)
	}
	eng, err := engine.Open(sqlmini.Options{Clock: cfg.Clock, LockTimeout: cfg.LockTimeout, Metrics: metrics.NewRegistry()})
	if err != nil {
		return nil, err
	}
	repl := replConfig{
		n:      cfg.Replicas,
		quorum: cfg.WriteQuorum,
		policy: cfg.replRetry,
		chaos:  cfg.replChaos,
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
		Engine:  eng,
		clock:   cfg.Clock,
		key:     cfg.TokenKey,
		ttl:     cfg.TokenTTL,
		router:  newRouter(clusterAuthority, ring.New(0, ids...)),
		repl:    repl,
		deadCfg: make(map[string]ServerConfig),
	}
	c.router.flush = c.FlushReplication
	for _, sc := range cfg.Members {
		fsrv, err := buildStack(sc, clusterAuthority, cfg.Clock, cfg.TokenKey, cfg.TokenTTL, eng)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.attachReplicator(fsrv)
		c.router.addMember(fsrv)
	}
	// One engine connection for the whole authority: the router resolves
	// which member processes each link.
	eng.AttachConn(clusterAuthority, c.router, cfg.TokenKey, cfg.TokenTTL)
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
func (c *Cluster) Authority() string { return clusterAuthority }

// DB returns the host database the engine currently serves (a restore or a
// host recovery replaces it).
func (c *Cluster) DB() *sqlmini.DB { return c.Engine.DB() }

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
	return datalink.Link{Server: clusterAuthority, Path: path}.URL()
}

// SeedFile creates an (unlinked) file on the member the ring places it on,
// owned by uid — the scale-out analogue of writing a file into one server's
// file system before linking it.
func (c *Cluster) SeedFile(path string, content []byte, uid fs.UID) error {
	m, err := c.router.owner(path)
	if err != nil {
		return err
	}
	return m.SeedFile(path, content, uid)
}

// NewSession returns a session with the given uid. Its opens resolve the
// path's current owner through the router.
func (c *Cluster) NewSession(uid fs.UID) *Session {
	return &Session{r: c, cred: fs.Cred{UID: uid}}
}

// resolve serves a URL under the cluster's authority from the path's current
// owner.
func (c *Cluster) resolve(server, path string) (*FileServer, error) {
	if server != clusterAuthority {
		return nil, fmt.Errorf("core: URL authority %q is not this cluster (%q)", server, clusterAuthority)
	}
	return c.router.owner(path)
}

// Close shuts down every member stack, then the host database. The error
// joins every member's failure to close its repository log and the host's
// to remove its log directory.
func (c *Cluster) Close() error {
	if c.probeStop != nil {
		close(c.probeStop)
		c.probeWG.Wait()
		c.probeStop = nil
	}
	var errs []error
	for _, id := range c.router.memberIDs() {
		if m, err := c.router.member(id); err == nil {
			errs = append(errs, closeStack(m))
		}
	}
	return errors.Join(append(errs, c.Engine.Close())...)
}

// probeLoop is the health probe: it sweeps the member set every interval and
// converts a silently dead member (KillServer, or a crashed stack) into the
// same bookkeeping FailServer does — and, with Replicas > 1, straight into a
// Failover, so orphaned paths come back without an operator in the loop. A
// Failover that returns an error is counted and tried again on every tick
// until the member has left deadCfg: markDead already took it off the member
// list, so nothing else would come back to it. Only the probe's own failovers
// are retried — a FailServer awaiting a restart is the operator's.
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
				// behind it), or restarted meanwhile.
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
			if c.repl.n > 1 {
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
// the member stops being routable and its config waits for a restart
// (AddServer, AbsorbDead) or Failover.
func (c *Cluster) markDead(m *FileServer) {
	c.router.dropMember(m.Name)
	c.mu.Lock()
	c.deadCfg[m.Name] = m.cfg
	c.mu.Unlock()
}

// closeStack shuts one member stack down cleanly: the repository
// checkpoints and closes its log, the TCP endpoints close, and a
// private repository directory goes. The error is the log's close.
func closeStack(m *FileServer) error {
	err := m.DLFM.Close()
	m.Archive.Close()
	m.closeEndpoints()
	m.removePrivateRepo()
	if err != nil {
		return fmt.Errorf("core: close server %s: %w", m.Name, err)
	}
	return nil
}

// killStack is the machine dying: the DLFM is killed without a checkpoint,
// the archive drops its volatile state, the TCP endpoints close. Only what
// the configured directories already hold survives; a private repository
// directory dies with the machine.
func killStack(m *FileServer) {
	m.DLFM.Kill()
	m.Archive.Crash()
	m.closeEndpoints()
	m.removePrivateRepo()
}

// removePrivateRepo removes the repository directory buildStack made for a
// server without RepoDir. Its DLFM is closed or killed by then.
func (m *FileServer) removePrivateRepo() {
	if m.cfg.RepoDir == "" {
		os.RemoveAll(m.repoDir)
	}
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
		"engine":                   c.Engine.Metrics(),
		"ring:" + clusterAuthority: c.router.reg,
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
//
// For a failed member still on the ring (FailServer or the health probe marked
// it dead, and no Failover took its paths) AddServer is a restart: the stack
// reopens over the member's durable directories — repository WAL replay
// rebuilds its link set, linked contents install from its archive — and the
// ring stays as it is, so the member serves its paths again. A failed member
// whose repository did not survive is refused with ErrNoDurableRepo before
// anything changes; its replicas stay where Failover can promote them.
func (c *Cluster) AddServer(sc ServerConfig) error {
	if sc.Name == "" {
		return fmt.Errorf("core: cluster member without a name")
	}
	c.router.rebalanceMu.Lock()
	defer c.router.rebalanceMu.Unlock()
	if _, err := c.router.member(sc.Name); err == nil {
		return fmt.Errorf("core: member %q already in the cluster", sc.Name)
	}
	c.mu.Lock()
	dead, restart := c.deadCfg[sc.Name]
	c.mu.Unlock()
	if restart && (dead.RepoDir == "" || sc.RepoDir != dead.RepoDir) {
		return fmt.Errorf("%w: %q", ErrNoDurableRepo, sc.Name)
	}
	fsrv, err := buildStack(sc, clusterAuthority, c.clock, c.key, c.ttl, c.Engine)
	if err != nil {
		return err
	}
	c.attachReplicator(fsrv)
	target := c.router.currentRing().With(sc.Name)
	c.router.beginRebalance(target, fsrv)
	if restart {
		// Live again: a Failover queued behind rebalanceMu finds nothing to do.
		c.mu.Lock()
		delete(c.deadCfg, sc.Name)
		c.mu.Unlock()
	}
	if err := c.rebalanceTo(target); err != nil {
		c.router.abortRebalance()
		// A joining member keeps any paths that already migrated onto it
		// (their overrides route there), so its stack must stay up — but if
		// nothing moved, beginRebalance's registration is rolled back too. A
		// restarted member owns its own paths either way.
		if !restart && !c.hasOverrideTo(sc.Name) {
			c.router.dropMember(sc.Name)
			return errors.Join(err, closeStack(fsrv))
		}
		return err
	}
	c.router.adoptRing(target)
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
// ring without it, the ring swaps, and the stack shuts down. If a move fails,
// the member stays and serves what it still owns; a second RemoveServer
// finishes the drain.
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
	c.router.adoptRing(target)
	c.router.dropMember(id)
	closeErr := closeStack(m)
	if err := c.FlushReplication(); err != nil {
		return errors.Join(closeErr, err)
	}
	c.Placements()
	return closeErr
}

// FailServer simulates a member machine dying — KillServer — and records the
// death at once instead of waiting for the health probe. The member's durable
// directories (RepoDir, ArchiveDir) survive for a restart (AddServer with its
// config) or AbsorbDead.
func (c *Cluster) FailServer(id string) error {
	m, err := c.router.member(id)
	if err != nil {
		return err
	}
	killStack(m)
	c.markDead(m)
	return nil
}

// AbsorbDead recovers a failed member's files under the surviving members: it
// restarts the member from its durable directories (AddServer with the config
// it ran under) and then drains it (RemoveServer). A member without RepoDir is
// refused with ErrNoDurableRepo. If the drain fails partway, the member stays
// live and serves the paths it has not moved yet; RemoveServer(id) finishes
// the job.
func (c *Cluster) AbsorbDead(id string) error {
	c.mu.Lock()
	sc, dead := c.deadCfg[id]
	c.mu.Unlock()
	if !dead {
		return fmt.Errorf("core: member %q has not failed", id)
	}
	if err := c.AddServer(sc); err != nil {
		return fmt.Errorf("core: absorb %s: restart: %w", id, err)
	}
	return c.RemoveServer(id)
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
// and freeze the source, make the destination a caught-up replica
// (catchUpReplica, with the source's FileMeta), promote it
// as a failover does, point the router at it, evict the source. On failure the
// source stays the owner and a destination that was no replica keeps nothing.
func (c *Cluster) migratePath(src, dst *FileServer, path string) error {
	if c.migrateHook != nil {
		if err := c.migrateHook(path, src.Name, dst.Name); err != nil {
			return err
		}
	}
	tr := src.Obs.Start("migrate")
	root := tr.Root()
	root.SetString("path", path)
	root.SetString("src", src.Name)
	root.SetString("dst", dst.Name)
	err := c.migratePathTraced(src, dst, path, root)
	if err != nil {
		root.SetString("error", err.Error())
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
	var err error
	for attempt := 0; ; attempt++ {
		err = src.DLFM.BeginExport(path)
		if err == nil || attempt >= 2 {
			drain.SetInt("attempts", int64(attempt+1))
			break
		}
	}
	drain.End()
	if err != nil {
		return err
	}

	handover := sp.Child("handover")
	wasReplica := dst.DLFM.ReplicaVersion(path) >= 0
	meta, ver, mtime, err := src.DLFM.FileMeta(path)
	if err == nil {
		err = c.catchUpReplica(src, dst, path, ver, mtime, meta, false)
	}
	if err == nil {
		err = dst.DLFM.PromoteReplica(path)
	}
	handover.End()
	if err != nil {
		if !wasReplica {
			_ = dst.DLFM.DropReplica(path)
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
	if err := src.Archive.Drop(clusterAuthority, path); err != nil {
		return err
	}
	c.router.reg.Counter("ring.moves").Inc()
	return nil
}
