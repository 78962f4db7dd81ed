package core

// Router resolves link paths to cluster members and is the engine's Conn for
// the whole authority. Placement is: per-path override (set while a rebalance
// is partially applied) else the current ring. A path being migrated has a
// gate — lookups block until the move finishes, then resolve against the new
// placement, so no caller ever acts on the member a path is mid-flight away
// from. New links during a rebalance place by the pending ring (plus an
// immediate override), so they never need to migrate moments after linking.

import (
	"fmt"
	"sort"
	"sync"

	"datalinks/internal/datalink"
	"datalinks/internal/engine"
	"datalinks/internal/metrics"
	"datalinks/internal/ring"
	"datalinks/internal/sqlmini"
)

// Router routes paths to members. It is the engine.Conn of the cluster
// authority.
type Router struct {
	authority string
	reg       *metrics.Registry

	// rebalanceMu serializes membership changes end to end.
	rebalanceMu sync.Mutex

	mu        sync.Mutex
	ring      *ring.Ring
	pending   *ring.Ring // target ring while a rebalance is in flight
	members   map[string]*FileServer
	overrides map[string]string        // path -> member id, until the next ring swap
	moving    map[string]chan struct{} // per-path migration gates

	// flush is the cluster's anti-entropy pass (Cluster.FlushReplication).
	flush func() error
}

func newRouter(authority string, r *ring.Ring) *Router {
	return &Router{
		authority: authority,
		reg:       metrics.NewRegistry(),
		ring:      r,
		members:   make(map[string]*FileServer),
		overrides: make(map[string]string),
		moving:    make(map[string]chan struct{}),
	}
}

// Metrics returns the router's registry (ring.moves, ring.forwards,
// ring.rebalance_ms, ring.placement.<member>).
func (r *Router) Metrics() *metrics.Registry { return r.reg }

// Ring returns the current routing ring.
func (r *Router) Ring() *ring.Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

func (r *Router) currentRing() *ring.Ring { return r.Ring() }

// successorsFor returns the first n distinct members on the current ring at
// or after path's hash — index 0 is the owner, the rest are its replica
// successors in promotion order.
func (r *Router) successorsFor(path string, n int) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.SuccessorsFor(path, n)
}

// placementID resolves path's assigned member — override else ring — without
// waiting out gates or requiring the member to be live. Failover uses it to
// ask "whose path was this?" about a member that is already down.
func (r *Router) placementID(path string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.overrides[path]; ok {
		return id
	}
	return r.ring.Lookup(path)
}

// adoptRing swaps the ring at the end of a membership change or a failover
// and drops the pending ring. It drops the overrides the new ring implies —
// after a complete rebalance that is every override of a linked path — and
// those naming a member off it, and keeps the rest (a failover promotion off
// the designated successor routes by its override), so the override table
// stays minimal without ever breaking routing.
func (r *Router) adoptRing(target *ring.Ring) {
	r.mu.Lock()
	for p, id := range r.overrides {
		if target.Lookup(p) == id || !target.Has(id) {
			delete(r.overrides, p)
		}
	}
	r.ring = target
	r.pending = nil
	r.mu.Unlock()
}

func (r *Router) addMember(m *FileServer) {
	r.mu.Lock()
	r.members[m.Name] = m
	r.mu.Unlock()
}

func (r *Router) dropMember(id string) {
	r.mu.Lock()
	delete(r.members, id)
	r.mu.Unlock()
}

func (r *Router) member(id string) (*FileServer, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	if !ok {
		return nil, fmt.Errorf("core: no cluster member %q", id)
	}
	return m, nil
}

func (r *Router) memberIDs() []string {
	r.mu.Lock()
	ids := make([]string, 0, len(r.members))
	for id := range r.members {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// owner resolves the member currently serving path, waiting out any in-flight
// migration of it.
func (r *Router) owner(path string) (*FileServer, error) {
	r.mu.Lock()
	for {
		ch, inFlight := r.moving[path]
		if !inFlight {
			break
		}
		r.mu.Unlock()
		r.reg.Counter("ring.forwards").Inc()
		<-ch
		r.mu.Lock()
	}
	id, ok := r.overrides[path]
	if !ok {
		id = r.ring.Lookup(path)
	}
	m, live := r.members[id]
	r.mu.Unlock()
	if !live {
		return nil, fmt.Errorf("%w: %q (owner of %s)", ErrMemberDown, id, path)
	}
	return m, nil
}

// place resolves the member a NEW link of path should land on. During a
// rebalance that is the pending ring's owner — recorded as an override so
// every lookup until the swap agrees.
func (r *Router) place(path string) (*FileServer, error) {
	r.mu.Lock()
	for {
		ch, inFlight := r.moving[path]
		if !inFlight {
			break
		}
		r.mu.Unlock()
		r.reg.Counter("ring.forwards").Inc()
		<-ch
		r.mu.Lock()
	}
	var id string
	if over, ok := r.overrides[path]; ok {
		id = over
	} else if r.pending != nil {
		id = r.pending.Lookup(path)
		r.overrides[path] = id
	} else {
		id = r.ring.Lookup(path)
	}
	m, live := r.members[id]
	r.mu.Unlock()
	if !live {
		return nil, fmt.Errorf("%w: %q (placement of %s)", ErrMemberDown, id, path)
	}
	return m, nil
}

// gate marks path as migrating; owner/place lookups for it block until
// ungate. Returns the channel to close.
func (r *Router) gate(path string) chan struct{} {
	ch := make(chan struct{})
	r.mu.Lock()
	r.moving[path] = ch
	r.mu.Unlock()
	return ch
}

func (r *Router) ungate(path string, ch chan struct{}) {
	r.mu.Lock()
	if r.moving[path] == ch {
		delete(r.moving, path)
	}
	r.mu.Unlock()
	close(ch)
}

func (r *Router) setOverride(path, id string) {
	r.mu.Lock()
	r.overrides[path] = id
	r.mu.Unlock()
}

// beginRebalance installs the target ring as pending (new links place by it)
// and, when the rebalance introduces a member, makes its stack routable.
func (r *Router) beginRebalance(target *ring.Ring, joining *FileServer) {
	r.mu.Lock()
	r.pending = target
	if joining != nil {
		r.members[joining.Name] = joining
	}
	r.mu.Unlock()
}

// abortRebalance drops the pending ring after a failed rebalance. Overrides
// for paths that did migrate remain — those paths live on their new member
// and must keep routing there even under the old ring.
func (r *Router) abortRebalance() {
	r.mu.Lock()
	r.pending = nil
	r.mu.Unlock()
}

// ---- engine.Conn ----

var _ engine.Conn = (*Router)(nil)

// Link routes link processing to the placing member and returns its XRM, so
// the host transaction enlists exactly the member that processed the link
// even if the ring changes between the two steps.
func (r *Router) Link(hostTxn uint64, path string, opts datalink.ColumnOptions) (sqlmini.XRM, error) {
	m, err := r.place(path)
	if err != nil {
		return nil, err
	}
	if err := m.DLFM.LinkFile(hostTxn, path, opts); err != nil {
		return nil, err
	}
	return m.DLFM, nil
}

// Unlink routes unlink processing to the owning member.
func (r *Router) Unlink(hostTxn uint64, path string) (sqlmini.XRM, error) {
	m, err := r.owner(path)
	if err != nil {
		return nil, err
	}
	if err := m.DLFM.UnlinkFile(hostTxn, path); err != nil {
		return nil, err
	}
	return m.DLFM, nil
}

// ReadFileContent reads a linked file's content from its owner.
func (r *Router) ReadFileContent(path string) ([]byte, error) {
	m, err := r.owner(path)
	if err != nil {
		return nil, err
	}
	return m.DLFM.ReadFileContent(path)
}

// Restore is the coordinated restore over the members (§4.4). It holds
// rebalanceMu, so the ring cannot change under it. Before any member acts,
// every member on the ring must be routable and alive: one that is not
// refuses the whole restore with ErrMemberDown. Then each member is handed
// its slice of the link set, the paths it owns. Once every member has
// restored, the anti-entropy pass brings the replicas to the owners'
// rewound histories: a diverged copy is dropped and imported again. The
// files are restored by then and the host has to follow them, so a flush
// that fails is counted (repl.restore_flush_failures), not returned.
func (r *Router) Restore(stateID uint64, links map[string]datalink.ColumnOptions) error {
	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()
	for _, id := range r.Ring().Members() {
		if m, err := r.member(id); err != nil || !m.DLFM.Alive() {
			return fmt.Errorf("%w: %q, so the restore changed nothing", ErrMemberDown, id)
		}
	}
	parts := make(map[string]map[string]datalink.ColumnOptions)
	for path, opts := range links {
		m, err := r.owner(path)
		if err != nil {
			return err
		}
		if parts[m.Name] == nil {
			parts[m.Name] = make(map[string]datalink.ColumnOptions)
		}
		parts[m.Name][path] = opts
	}
	for _, id := range r.memberIDs() {
		m, err := r.member(id)
		if err != nil {
			return err
		}
		if err := m.DLFM.Restore(stateID, parts[id]); err != nil {
			return err
		}
	}
	if r.flush() != nil {
		r.reg.Counter("repl.restore_flush_failures").Inc()
	}
	return nil
}
