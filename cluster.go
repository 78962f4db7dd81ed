package datalinks

// Public surface of the scale-out namespace: a Cluster runs one DataLinks
// authority across several file servers. Link paths place on a consistent-
// hash ring of members; membership can change while update transactions
// continue — paths whose owner changes migrate live (drain, freeze, archive
// handoff, evict) and no acknowledged commit is ever lost. See
// internal/core/cluster.go for the protocol.

import (
	"fmt"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/fs"
)

// ClusterConfig configures a scale-out deployment.
type ClusterConfig struct {
	// Authority is the shared file-server name in DATALINK URLs
	// (dlfs://<authority>/...), valid no matter which member serves a path.
	// Defaults to "cluster".
	Authority string
	// Members configures the initial members; each Name is the member's id on
	// the ring (it never appears in URLs).
	Members []ServerConfig
	// VirtualNodes per member on the ring (0 = the ring default of 128).
	VirtualNodes int
	Clock        func() time.Time
	TokenKey     []byte
	TokenTTL     time.Duration
	LockTimeout  time.Duration

	// Replicas is the total number of copies of every path (owner plus ring
	// successors). 0 or 1 disables replication.
	Replicas int
	// WriteQuorum is how many copies (owner included) must acknowledge a
	// commit before close returns; 0 means all Replicas.
	WriteQuorum int
	// ReplicaReads lets reads fall back to a surviving replica while the
	// owner is unreachable (stale-bounded; off by default).
	ReplicaReads bool
	// ProbeInterval enables the member health probe; with AutoFailover a
	// member found dead is failed over without an operator.
	ProbeInterval time.Duration
	AutoFailover  bool
}

// Cluster is a running scale-out DataLinks deployment.
type Cluster struct {
	inner *core.Cluster
}

// OpenCluster builds a scale-out deployment.
func OpenCluster(cfg ClusterConfig) (*Cluster, error) {
	c, err := core.NewCluster(core.ClusterConfig{
		Authority:     cfg.Authority,
		Members:       cfg.Members,
		VirtualNodes:  cfg.VirtualNodes,
		Clock:         cfg.Clock,
		TokenKey:      cfg.TokenKey,
		TokenTTL:      cfg.TokenTTL,
		LockTimeout:   cfg.LockTimeout,
		Replicas:      cfg.Replicas,
		WriteQuorum:   cfg.WriteQuorum,
		ReplicaReads:  cfg.ReplicaReads,
		ProbeInterval: cfg.ProbeInterval,
		AutoFailover:  cfg.AutoFailover,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: c}, nil
}

// Close shuts down every member stack.
func (c *Cluster) Close() { c.inner.Close() }

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
// reassigns to it while commits continue.
func (c *Cluster) AddServer(sc ServerConfig) error { return c.inner.AddServer(sc) }

// RemoveServer drains a member gracefully and shuts its stack down.
func (c *Cluster) RemoveServer(id string) error { return c.inner.RemoveServer(id) }

// FailServer simulates a member machine dying; its durable directories
// survive for AbsorbDead.
func (c *Cluster) FailServer(id string) error { return c.inner.FailServer(id) }

// AbsorbDead cold-starts a failed member's durable state and migrates its
// namespace to the surviving members.
func (c *Cluster) AbsorbDead(id string) error { return c.inner.AbsorbDead(id) }

// KillServer kills a member's processes without informing the cluster — only
// the health probe (or a later FailServer) notices. Use with ProbeInterval
// to exercise automatic failure detection.
func (c *Cluster) KillServer(id string) error { return c.inner.KillServer(id) }

// FailoverReport describes what one Failover promoted.
type FailoverReport = core.FailoverReport

// Failover recovers a failed member's paths from their replicas: each
// orphaned path is promoted on its first live ring successor, which already
// holds the full history — no cold start, no AbsorbDead. Requires
// Replicas > 1.
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

// WaitArchives drains async archive jobs on every member.
func (c *Cluster) WaitArchives() { c.inner.WaitArchives() }

// Exec runs a DDL/DML statement with ?-placeholders.
func (c *Cluster) Exec(sql string, args ...any) (int, error) {
	vals, err := toValues(args)
	if err != nil {
		return 0, err
	}
	return c.inner.DB.Exec(sql, vals...)
}

// MustExec is Exec that panics on error.
func (c *Cluster) MustExec(sql string, args ...any) int {
	n, err := c.Exec(sql, args...)
	if err != nil {
		panic(err)
	}
	return n
}

// Query runs a SELECT with ?-placeholders.
func (c *Cluster) Query(sql string, args ...any) (*Rows, error) {
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	rows, err := c.inner.DB.Query(sql, vals...)
	if err != nil {
		return nil, err
	}
	out := &Rows{Cols: rows.Cols}
	for _, r := range rows.Data {
		converted := make([]any, len(r))
		for i, v := range r {
			converted[i] = fromValue(v)
		}
		out.Data = append(out.Data, converted)
	}
	return out, nil
}

// QueryString runs a SELECT expected to return one string value.
func (c *Cluster) QueryString(sql string, args ...any) (string, error) {
	rows, err := c.Query(sql, args...)
	if err != nil {
		return "", err
	}
	if len(rows.Data) != 1 || len(rows.Data[0]) != 1 {
		return "", fmt.Errorf("datalinks: expected one value, got %dx%d", len(rows.Data), len(rows.Cols))
	}
	str, ok := rows.Data[0][0].(string)
	if !ok {
		return "", fmt.Errorf("datalinks: value is %T, not string", rows.Data[0][0])
	}
	return str, nil
}

// Session returns an application identity with the given uid. Opens resolve
// the path's current owner through the ring and fail over once if a
// migration races the open.
func (c *Cluster) Session(uid int32) *ClusterSession {
	return &ClusterSession{inner: c.inner.NewSession(fs.UID(uid))}
}

// ClusterSession is an application identity against a Cluster.
type ClusterSession struct {
	inner *core.ClusterSession
}

// OpenRead opens a linked file for reading (URL from DLURLCOMPLETE).
func (s *ClusterSession) OpenRead(url string) (*File, error) {
	f, err := s.inner.OpenRead(url)
	if err != nil {
		return nil, err
	}
	return &File{inner: f}, nil
}

// OpenWrite begins an in-place update transaction (URL from
// DLURLCOMPLETEWRITE).
func (s *ClusterSession) OpenWrite(url string) (*File, error) {
	f, err := s.inner.OpenWrite(url)
	if err != nil {
		return nil, err
	}
	return &File{inner: f}, nil
}

// Internal exposes the core cluster (experiment harnesses, admin tools).
func (c *Cluster) Internal() *core.Cluster { return c.inner }
