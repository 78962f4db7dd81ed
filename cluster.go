package datalinks

// Public surface of the scale-out namespace: a Cluster runs one DataLinks
// authority across several file servers. Link paths place on a consistent-
// hash ring of members; membership can change while update transactions
// continue — paths whose owner changes migrate live (drain, freeze, history
// catch-up, promote on the new owner, evict) and no acknowledged commit is
// ever lost. A stack enters the ring only through AddServer and leaves it only
// through RemoveServer or Failover. See internal/core/cluster.go for the
// protocol.

import (
	"datalinks/internal/core"
	"datalinks/internal/fs"
)

// ClusterConfig configures a scale-out deployment.
type ClusterConfig = core.ClusterConfig

// ErrNoDurableRepo is AddServer's (and AbsorbDead's) refusal to restart a
// failed member whose repository did not survive it.
var ErrNoDurableRepo = core.ErrNoDurableRepo

// Cluster is a running scale-out DataLinks deployment.
type Cluster struct {
	inner *core.Cluster
	hostSQL
}

// OpenCluster builds a scale-out deployment.
func OpenCluster(cfg ClusterConfig) (*Cluster, error) {
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: c, hostSQL: hostSQL{c.DB}}, nil
}

// Close shuts down every member stack. The error joins every member's
// failure to close its repository log.
func (c *Cluster) Close() error { return c.inner.Close() }

// Authority returns the cluster's shared file-server name.
func (c *Cluster) Authority() string { return c.inner.Authority() }

// URL returns the DATALINK URL for a path under this cluster.
func (c *Cluster) URL(path string) string { return c.inner.URL(path) }

// Members lists the live member ids, sorted.
func (c *Cluster) Members() []string { return c.inner.Members() }

// Owner reports which member currently serves a path.
func (c *Cluster) Owner(path string) (string, error) { return c.inner.Owner(path) }

// Placements counts linked paths per member.
func (c *Cluster) Placements() map[string]int { return c.inner.Placements() }

// AddServer grows the cluster by one member, migrating the paths the ring
// reassigns to it while commits continue. Given a failed member's config it
// restarts that member over its durable directories instead, on the unchanged
// ring; a failed member without RepoDir is refused (ErrNoDurableRepo) before
// anything changes.
func (c *Cluster) AddServer(sc ServerConfig) error { return c.inner.AddServer(sc) }

// RemoveServer drains a member gracefully and shuts its stack down.
func (c *Cluster) RemoveServer(id string) error { return c.inner.RemoveServer(id) }

// FailServer simulates a member machine dying; its durable directories
// survive for a restart (AddServer with its config) or AbsorbDead.
func (c *Cluster) FailServer(id string) error { return c.inner.FailServer(id) }

// AbsorbDead moves a failed member's namespace to the surviving members: it
// restarts the member (AddServer with its config), then drains it
// (RemoveServer). If the drain fails partway the member stays live, serving
// what it has not moved yet, and RemoveServer finishes the job.
func (c *Cluster) AbsorbDead(id string) error { return c.inner.AbsorbDead(id) }

// KillServer kills a member's processes without informing the cluster — only
// the health probe (or a later FailServer) notices. Use with ProbeInterval
// to exercise automatic failure detection.
func (c *Cluster) KillServer(id string) error { return c.inner.KillServer(id) }

// FailoverReport describes what one Failover promoted.
type FailoverReport = core.FailoverReport

// Failover recovers a failed member's paths from their replicas: each
// orphaned path is promoted on its first live ring successor, which already
// holds the full history — no cold start. Requires Replicas > 1 and a member
// no restart brought back.
func (c *Cluster) Failover(id string) (*FailoverReport, error) { return c.inner.Failover(id) }

// ReplicaSet reports the members holding copies of a path: the current owner
// first, then its ring successors in promotion order.
func (c *Cluster) ReplicaSet(path string) []string { return c.inner.ReplicaSet(path) }

// FlushReplication runs the anti-entropy pass: every owner repairs its
// successors' copies and stale replicas are pruned. The quiesce barrier to
// run before comparing owner and replica histories.
func (c *Cluster) FlushReplication() error { return c.inner.FlushReplication() }

// SeedFile creates an (unlinked) file on the member the ring places it on.
func (c *Cluster) SeedFile(path string, content []byte, owner int32) error {
	return c.inner.SeedFile(path, content, fs.UID(owner))
}

// Session returns an application identity with the given uid. Opens resolve
// the path's current owner through the ring and follow it once if a
// migration races the open.
func (c *Cluster) Session(uid int32) *Session { return c.inner.NewSession(fs.UID(uid)) }

// Internal exposes the core cluster (experiment harnesses, admin tools).
func (c *Cluster) Internal() *core.Cluster { return c.inner }
