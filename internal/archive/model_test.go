package archive

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"datalinks/internal/extent"
)

// modelStore is one store of the model and the versions the model says it
// holds.
type modelStore struct {
	name string
	s    *Store
	tier TierConfig
	held map[Version]bool
}

// TestArchiveModel drives seeded schedules of edits to one live file — 4 KiB
// and unaligned writes, whole-chunk writes, truncates and extends — and of
// what the archive does with it: commits captured onto an owner store and
// shipped to a replica store by import (which now and then misses one, and
// catches up at the next), rollbacks through a restore, an archive that fails mid-job (and is
// redone from a plain snapshot, as recovery does, or not), ExportDelta/
// ImportDelta onto a third store, TruncateAfter, Drop, GCNow and, on durable
// seeds, a reopen. The model is a map of version to the bytes committed and
// the set of versions each store holds. After every step every version every
// store holds materializes to the model's bytes, the live file reads as the
// model says, and a snapshot taken before the step still reads its own
// bytes; at the end, with every history dropped, extent.Live() is back at its
// baseline. Small writes are what the commit path stores as patches, so this
// is the test of invariant 1: a patch against any version other than the one
// the capture follows reads back wrong.
func TestArchiveModel(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		runArchiveModel(t, seed)
	}
}

func runArchiveModel(t *testing.T, seed int64) {
	const (
		srv, path = "fs1", "/m.bin"
		maxLen    = 2*extent.ChunkSize + extent.ChunkSize/2
		steps     = 40
	)
	rng := rand.New(rand.NewSource(seed))
	baseline, _ := extent.Live()
	durable := seed%4 == 1
	errInjected := errors.New("injected archive failure")

	open := func(tier TierConfig) *Store {
		s, err := NewTiered(0, nil, tier)
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		return s
	}
	var stores []*modelStore
	for _, name := range []string{"owner", "replica", "third"} {
		var tier TierConfig
		if durable && name != "third" {
			// A cache of two chunks: most reads page in and verify.
			tier = TierConfig{Dir: t.TempDir(), checkpointEvery: 5}
		}
		stores = append(stores, &modelStore{name: name, s: open(tier), tier: tier, held: map[Version]bool{}})
	}
	owner, replica, third := stores[0], stores[1], stores[2]
	defer func() {
		for _, m := range stores {
			m.s.Close()
		}
	}()

	var buf extent.Buffer
	var cur []byte                   // the live file, as the model has it
	versions := map[Version][]byte{} // every committed version's bytes
	next := Version(0)
	stateOf := func(v Version) uint64 { return uint64(v) + 1 }
	var op string
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d (%s): %s", seed, step, op, fmt.Sprintf(format, args...))
	}
	write := func(off int64, p []byte) {
		buf.WriteAt(off, p)
		if end := off + int64(len(p)); end > int64(len(cur)) {
			cur = append(cur, make([]byte, end-int64(len(cur)))...)
		}
		copy(cur[off:], p)
	}
	payload := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	// holds checks a store's versions against the model and materializes
	// every one of them.
	holds := func(step int, m *modelStore) {
		t.Helper()
		var got, want []Version
		for _, e := range m.s.Versions(srv, path) {
			got = append(got, e.Version)
			snap, err := e.Snapshot()
			if err != nil {
				fail(step, "%s v%d does not materialize: %v", m.name, e.Version, err)
			}
			if !bytes.Equal(snap.Bytes(), versions[e.Version]) {
				fail(step, "%s v%d materializes to other bytes than were committed", m.name, e.Version)
			}
			snap.Release()
		}
		for v := range m.held {
			want = append(want, v)
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			fail(step, "%s holds versions %v, the model says %v", m.name, got, want)
		}
	}

	// importInto runs one ExportDelta/ImportDelta from src onto dst the way
	// core's catch-up does — from the newest version dst holds, starting over
	// when that is not in src's history. A chain gap the model predicts (src's
	// history has a hole, which ImportDelta refuses) leaves dst as it was.
	importInto := func(step int, dst, src *modelStore) {
		t.Helper()
		base, _ := dst.s.Newest(srv, path)
		have := int64(base.Version)
		recs, err := src.s.ExportDelta(srv, path, base)
		if errors.Is(err, ErrChainGap) {
			if err := dst.s.Drop(srv, path); err != nil {
				fail(step, "drop %s: %v", dst.name, err)
			}
			clear(dst.held)
			have = -1
			recs, err = src.s.ExportDelta(srv, path, VersionID{Version: -1})
		}
		if err != nil {
			fail(step, "export from %s: %v", src.name, err)
		}
		_, err = dst.s.ImportDelta(srv, path, recs, src.s.FetchBlob)
		hole := len(recs) > 0 && have >= 0 && recs[0].Version != have+1
		for i := 1; i < len(recs); i++ {
			hole = hole || recs[i].Version != recs[i-1].Version+1
		}
		switch {
		case err == nil && !hole:
			for _, r := range recs {
				dst.held[Version(r.Version)] = true
			}
		case !errors.Is(err, ErrChainGap) || !hole:
			fail(step, "import from %s onto %s: %v (a hole in the history: %v)", src.name, dst.name, err, hole)
		}
	}

	for step := 0; step < steps; step++ {
		// A snapshot taken before the step keeps reading its own bytes,
		// whatever the step writes in place.
		var pre *extent.Snapshot
		var preBytes []byte
		if rng.Intn(3) == 0 {
			pre, preBytes = buf.Snapshot(), slices.Clone(cur)
		}
		switch r := rng.Intn(100); {
		case r < 22:
			op = "4 KiB write"
			write(int64(rng.Intn(maxLen/4096))*4096, payload(4096))
		case r < 34:
			op = "unaligned write"
			off := rng.Int63n(int64(len(cur)) + 1)
			write(off, payload(1+rng.Intn(min(24<<10, maxLen-int(off)))))
		case r < 38:
			op = "whole-chunk write"
			write(int64(rng.Intn(maxLen/extent.ChunkSize))*extent.ChunkSize, payload(extent.ChunkSize))
		case r < 43:
			op = "truncate or extend"
			size := rng.Int63n(maxLen)
			buf.Truncate(size)
			if size <= int64(len(cur)) {
				cur = cur[:size]
			} else {
				cur = append(cur, make([]byte, size-int64(len(cur)))...)
			}
		case r < 68:
			op = "commit"
			snap := buf.Capture()
			v := next
			next++
			versions[v] = slices.Clone(cur)
			injected := rng.Intn(8) == 0
			if injected {
				owner.s.beforeIndex = func() error { return errInjected }
			}
			_, err := owner.s.PutSnapshot(srv, path, v, stateOf(v), snap)
			owner.s.beforeIndex = nil
			switch {
			case injected && !errors.Is(err, errInjected):
				fail(step, "owner put of v%d under an injected failure: %v", v, err)
			case !injected && err != nil:
				fail(step, "owner put of v%d: %v", v, err)
			case !injected:
				owner.held[v] = true
			case rng.Intn(2) == 0:
				// Recovery's archiveCurrent: the version again, from a plain
				// snapshot of the unchanged file.
				plain := buf.Snapshot()
				if _, err := owner.s.PutSnapshot(srv, path, v, stateOf(v), plain); err != nil {
					fail(step, "owner re-archive of v%d: %v", v, err)
				}
				plain.Release()
				owner.held[v] = true
			}
			if rng.Intn(6) != 0 { // the replica misses one ship in six
				// A ship is core's catch-up: everything after the newest
				// version the replica holds, this one included.
				importInto(step, replica, owner)
			}
			snap.Release()
		case r < 73:
			op = "rollback"
			e, err := owner.s.Latest(srv, path)
			if err != nil {
				break
			}
			// Installed from the held version, as a rollback does, then
			// loaded whole so the model's writes and snapshots need nothing.
			held, err := e.Hold()
			if err != nil {
				fail(step, "restore of v%d: %v", e.Version, err)
			}
			buf.Install(held)
			if _, err := buf.LoadRange(0, buf.Len()); err != nil {
				fail(step, "restore of v%d: %v", e.Version, err)
			}
			cur = slices.Clone(versions[e.Version])
		case r < 80:
			op = "import onto the third store"
			src := owner
			if rng.Intn(2) == 0 {
				src = replica
			}
			importInto(step, third, src)
		case r < 86:
			op = "truncate after"
			m := stores[rng.Intn(len(stores))]
			cut := Version(rng.Intn(int(next)+1)) - 1
			if err := m.s.TruncateAfter(srv, path, stateOf(cut)); err != nil {
				fail(step, "%s: %v", m.name, err)
			}
			for v := range m.held {
				if v > cut {
					delete(m.held, v)
				}
			}
		case r < 88:
			op = "drop"
			m := stores[rng.Intn(len(stores))]
			if err := m.s.Drop(srv, path); err != nil {
				fail(step, "%s: %v", m.name, err)
			}
			clear(m.held)
		case r < 94:
			op = "gc"
			for _, m := range stores {
				m.s.GCNow()
			}
		default:
			op = "reopen"
			m := stores[rng.Intn(2)]
			if m.tier.Dir == "" {
				break
			}
			if rng.Intn(2) == 0 {
				m.s.Crash()
			} else {
				m.s.Close()
			}
			m.s = open(m.tier)
			if rec := m.s.Recovery(); rec.DroppedVersions != 0 {
				fail(step, "%s reopened without %d versions", m.name, rec.DroppedVersions)
			}
		}
		if pre != nil {
			if !bytes.Equal(pre.Bytes(), preBytes) {
				fail(step, "a snapshot taken before the step no longer reads its own bytes")
			}
			pre.Release()
		}
		if !bytes.Equal(buf.Bytes(), cur) {
			fail(step, "the live file diverged from the model")
		}
		for _, m := range stores {
			holds(step, m)
		}
	}

	for _, m := range stores {
		if err := m.s.Drop(srv, path); err != nil {
			t.Fatalf("seed %d: final drop on %s: %v", seed, m.name, err)
		}
		m.s.GCNow()
	}
	buf.Truncate(0)
	if live, _ := extent.Live(); live != baseline {
		t.Fatalf("seed %d: %d chunks still live once every history is dropped and the file emptied", seed, live-baseline)
	}
}
