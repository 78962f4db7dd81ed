package sqlmini

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"datalinks/internal/datalink"
)

// Column describes one column of a table.
type Column struct {
	Name       string
	Kind       Kind
	PrimaryKey bool
	NotNull    bool
	// DL holds DATALINK column options when Kind == KindLink.
	DL datalink.ColumnOptions
}

// Table is a heap of rows plus its schema and indexes. Access is guarded by
// the owning DB's lock manager and the table's own latch (short-term mutex).
//
// A row installed in the table is never written again: Update installs a
// new slice and leaves the old one as it was. So Get, Scan and the
// checkpoint hand out the installed slice itself, and a reader may keep it
// after the latch is gone; the price is that nobody may write to a row they
// got from the table — build a new one (execUpdate's copy-on-write) and
// install that.
type Table struct {
	Name    string
	Columns []Column

	mu     sync.RWMutex
	rows   map[RowID]Row
	nextID RowID
	// pkIndex maps the primary key value to the row id, when a PK exists.
	pkIndex map[indexKey]RowID
	pkCol   int // -1 when no primary key
	// secondary hash indexes: column index -> value key -> set of row ids.
	// Every DATALINK column has one from construction (see newTable).
	secondary map[int]map[indexKey]map[RowID]struct{}
}

// RowID identifies a row within a table for its whole life.
type RowID uint64

// newTable builds an empty table for the given schema. A DATALINK column is
// indexed implicitly: the engine addresses a host row by its link value on
// every file-update commit (UPDATE … WHERE <link col> = ?), and that must
// lock and read one row, not the table. The index is part of the schema —
// never logged or checkpointed, rebuilt as rows are installed wherever a
// table is constructed (DDL, redo, snapshot load) — and cannot be dropped.
func newTable(name string, cols []Column) *Table {
	t := &Table{
		Name:      name,
		Columns:   cols,
		rows:      make(map[RowID]Row),
		pkIndex:   make(map[indexKey]RowID),
		pkCol:     -1,
		secondary: make(map[int]map[indexKey]map[RowID]struct{}),
	}
	for i, c := range cols {
		if c.PrimaryKey {
			t.pkCol = i
		}
		if c.Kind == KindLink {
			t.secondary[i] = make(map[indexKey]map[RowID]struct{})
		}
	}
	return t
}

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// indexKey is a value's identity in the primary-key and secondary indexes:
// comparable, so a lookup builds no string. The kind is part of it; a float
// is its bits, a time its UTC microsecond (the precision a TIMESTAMP
// displays at, so two times that print alike collide as duplicate keys), a
// link its server and path.
type indexKey struct {
	k    Kind
	i    int64
	s, t string
}

// keyOf canonicalizes a value for index keys.
func keyOf(v Value) indexKey {
	key := indexKey{k: v.K}
	switch v.K {
	case KindInt:
		key.i = v.I
	case KindFloat:
		key.i = int64(math.Float64bits(v.F))
	case KindString:
		key.s = v.S
	case KindBool:
		if v.B {
			key.i = 1
		}
	case KindTime:
		key.i = v.T.UnixMicro()
	case KindLink:
		key.s, key.t = v.L.Server, v.L.Path
	}
	return key
}

// ErrDuplicateKey rejects an insert whose primary key another row — committed
// or not — already holds.
var ErrDuplicateKey = errors.New("sqlmini: duplicate primary key")

// insertLocked installs a row under a specific id. Caller holds t.mu.
func (t *Table) insertLocked(id RowID, r Row) error {
	if t.pkCol >= 0 {
		k := keyOf(r[t.pkCol])
		if _, dup := t.pkIndex[k]; dup {
			return fmt.Errorf("%w %s in %s", ErrDuplicateKey, r[t.pkCol], t.Name)
		}
		t.pkIndex[k] = id
	}
	t.rows[id] = r
	for col, idx := range t.secondary {
		indexAdd(idx, keyOf(r[col]), id)
	}
	if id >= t.nextID {
		t.nextID = id + 1
	}
	return nil
}

// deleteLocked removes a row by id. Caller holds t.mu.
func (t *Table) deleteLocked(id RowID) (Row, bool) {
	r, ok := t.rows[id]
	if !ok {
		return nil, false
	}
	if t.pkCol >= 0 {
		delete(t.pkIndex, keyOf(r[t.pkCol]))
	}
	for col, idx := range t.secondary {
		indexRemove(idx, keyOf(r[col]), id)
	}
	delete(t.rows, id)
	return r, true
}

// indexAdd files id under k in a secondary index.
func indexAdd(idx map[indexKey]map[RowID]struct{}, k indexKey, id RowID) {
	set, ok := idx[k]
	if !ok {
		set = make(map[RowID]struct{})
		idx[k] = set
	}
	set[id] = struct{}{}
}

// indexRemove takes id out from under k in a secondary index.
func indexRemove(idx map[indexKey]map[RowID]struct{}, k indexKey, id RowID) {
	if set, ok := idx[k]; ok {
		delete(set, id)
		if len(set) == 0 {
			delete(idx, k)
		}
	}
}

// Insert allocates a row id and installs the row, which the table owns from
// here on (no logging; Txn does that).
func (t *Table) Insert(r Row) (RowID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	if err := t.insertLocked(id, r); err != nil {
		return 0, err
	}
	return id, nil
}

// InsertAt reinstalls a row under a known id (redo/undo paths); the table
// owns it from here on.
func (t *Table) InsertAt(id RowID, r Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(id, r)
}

// Delete removes the row with the given id, returning its prior image.
func (t *Table) Delete(id RowID) (Row, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deleteLocked(id)
}

// Update installs r as the row under id, returning its prior image, which
// stays as it was. The table owns r from here on. An index is re-keyed only
// when its column's key changed; a new primary key another row holds fails
// the update and leaves the table unchanged.
func (t *Table) Update(id RowID, r Row) (Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.rows[id]
	if !ok {
		return nil, fmt.Errorf("sqlmini: update of missing row %d in %s", id, t.Name)
	}
	if t.pkCol >= 0 {
		if was, now := keyOf(old[t.pkCol]), keyOf(r[t.pkCol]); was != now {
			if _, dup := t.pkIndex[now]; dup {
				return nil, fmt.Errorf("%w %s in %s", ErrDuplicateKey, r[t.pkCol], t.Name)
			}
			delete(t.pkIndex, was)
			t.pkIndex[now] = id
		}
	}
	for col, idx := range t.secondary {
		if was, now := keyOf(old[col]), keyOf(r[col]); was != now {
			indexRemove(idx, was, id)
			indexAdd(idx, now, id)
		}
	}
	t.rows[id] = r
	return old, nil
}

// Get returns the row under id: the installed slice, shared with every other
// reader. Never write to it; to change the row, Update a new one.
func (t *Table) Get(id RowID) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.rows[id]
	return r, ok
}

// LookupPK finds the row id for a primary-key value.
func (t *Table) LookupPK(v Value) (RowID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pkCol < 0 {
		return 0, false
	}
	id, ok := t.pkIndex[keyOf(v)]
	return id, ok
}

// LookupIndex returns the row ids matching v in a secondary index on col,
// or ok=false when no such index exists.
func (t *Table) LookupIndex(col int, v Value) (ids []RowID, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, exists := t.secondary[col]
	if !exists {
		return nil, false
	}
	set := idx[keyOf(v)]
	for id := range set {
		ids = append(ids, id)
	}
	if len(ids) > 1 {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return ids, true
}

// AddIndex builds a secondary hash index on the column.
func (t *Table) AddIndex(col int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.secondary[col]; ok {
		return
	}
	idx := make(map[indexKey]map[RowID]struct{})
	for id, r := range t.rows {
		indexAdd(idx, keyOf(r[col]), id)
	}
	t.secondary[col] = idx
}

// DropIndex discards the secondary index on the column, if any. The
// implicit index of a DATALINK column stays.
func (t *Table) DropIndex(col int) {
	if col >= 0 && col < len(t.Columns) && t.Columns[col].Kind == KindLink {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.secondary, col)
}

// HasIndex reports whether a secondary index exists on the column (tests).
func (t *Table) HasIndex(col int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.secondary[col]
	return ok
}

// Scan calls fn with every (id, row) pair in ascending id order, as the table
// stood when the scan began. Each row is the installed slice, shared with
// every other reader: never write to it; to change a row, Update a new one.
func (t *Table) Scan(fn func(RowID, Row) bool) {
	t.mu.RLock()
	ids := make([]RowID, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rows := make([]Row, len(ids))
	for i, id := range ids {
		rows[i] = t.rows[id]
	}
	t.mu.RUnlock()
	for i, id := range ids {
		if !fn(id, rows[i]) {
			return
		}
	}
}

// Len returns the row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// catalog is the set of tables in a database.
type catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

func newCatalog() *catalog {
	return &catalog{tables: make(map[string]*Table)}
}

func (c *catalog) get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("sqlmini: no such table %q", name)
	}
	return t, nil
}

func (c *catalog) create(name string, cols []Column) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := c.tables[key]; dup {
		return nil, fmt.Errorf("sqlmini: table %q already exists", name)
	}
	t := newTable(name, cols)
	c.tables[key] = t
	return t, nil
}

func (c *catalog) drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("sqlmini: no such table %q", name)
	}
	delete(c.tables, key)
	return nil
}

// restore puts back a table drop just removed, rows and indexes included.
func (c *catalog) restore(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[strings.ToLower(t.Name)] = t
}

func (c *catalog) names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}
