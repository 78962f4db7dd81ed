package sqlmini

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"datalinks/internal/fsyncer"
	"datalinks/internal/wal"
)

func (c *stmtCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// The AST is a function of the text alone, so a cached statement outlives the
// schema it was first run against: what changes with DDL is what executing it
// finds in the catalog.
func TestDDLCannotPoisonStmtCache(t *testing.T) {
	db := testDB(t)
	const insert2 = `INSERT INTO poison VALUES (?, ?)`
	mustExec(t, db, `CREATE TABLE poison (a INT, b INT)`)
	mustExec(t, db, insert2, Int(1), Int(2))
	mustExec(t, db, `DROP TABLE poison`)
	mustExec(t, db, `CREATE TABLE poison (a INT)`)
	if _, err := db.Exec(insert2, Int(1), Int(2)); err == nil || !strings.Contains(err.Error(), "1 columns, 2 values") {
		t.Fatalf("two values into the one-column table: err = %v, want the arity error", err)
	}
	mustExec(t, db, `INSERT INTO poison VALUES (?)`, Int(3))
	if rows := mustQuery(t, db, `SELECT a FROM poison`); len(rows.Data) != 1 || rows.Data[0][0].I != 3 {
		t.Fatalf("table after the re-create: %+v", rows.Data)
	}
	// The table the statement created does not share its column slice.
	tbl, _ := db.Table("poison")
	st, _ := db.stmts.parse(`CREATE TABLE poison (a INT)`)
	if &tbl.Columns[0] == &st.(*CreateTableStmt).Columns[0] {
		t.Fatal("the catalog's table aliases the cached statement's columns")
	}
}

// Eight transactions at a time execute one cached statement; under -race this
// is the proof that executors only read the shared AST.
func TestCachedStmtIsSharedReadOnly(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE shared (id INT PRIMARY KEY, v INT)`)
	const workers, rounds = 8, 50
	for i := 0; i < workers; i++ {
		mustExec(t, db, `INSERT INTO shared VALUES (?, 0)`, Int(int64(i)))
	}
	const update = `UPDATE shared SET v = v + ? WHERE id = ?`
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if n, err := db.Exec(update, Int(1), Int(int64(w))); err != nil || n != 1 {
					t.Errorf("worker %d: %d rows, %v", w, n, err)
					return
				}
				if _, err := db.Query(`SELECT v FROM shared WHERE id = ?`, Int(int64(w))); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if rows := mustQuery(t, db, `SELECT SUM(v) FROM shared`); rows.Data[0][0].I != workers*rounds {
		t.Fatalf("sum = %d, want %d", rows.Data[0][0].I, workers*rounds)
	}
	first, _ := db.stmts.parse(update)
	if again, _ := db.stmts.parse(update); first != again {
		t.Fatal("a text seen before was parsed again")
	}
}

// Literals in the text cannot grow the cache without bound.
func TestStmtCacheIsBounded(t *testing.T) {
	var c stmtCache
	for i := 0; i < 2*stmtCacheEntries+10; i++ {
		if _, err := c.parse(fmt.Sprintf(`SELECT a FROM t WHERE id = %d`, i)); err != nil {
			t.Fatal(err)
		}
		if n := c.len(); n > stmtCacheEntries {
			t.Fatalf("%d statements cached, bound is %d", n, stmtCacheEntries)
		}
	}
	before := c.len()
	long := `SELECT a FROM t WHERE s = '` + strings.Repeat("x", stmtCacheMaxText) + `'`
	if _, err := c.parse(long); err != nil {
		t.Fatal(err)
	}
	if _, err := c.parse(`SELECT FROM`); err == nil {
		t.Fatal("bad SQL parsed")
	}
	if c.len() != before {
		t.Fatal("an over-long text or a parse error was admitted to the cache")
	}
}

// What one warm statement costs on the commit path and the read path (once
// 73 and 37 mallocs). A point SELECT allocates its answer — the Txn, the
// Rows, its Cols and Data, and the one output Row — and nothing else: no
// join scaffolding, no matched id or row slices (13 before).
func TestWarmStatementAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	dir := t.TempDir()
	lg, err := wal.Open(wal.Config{Dir: dir, Fsync: fsyncer.PolicyGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	db := NewDB(Options{Log: lg, Dir: dir})
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	for i := 0; i < 64; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 0)`, Int(int64(i)))
	}
	i := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		i++
		mustExec(t, db, `UPDATE t SET v = ? WHERE id = ?`, Int(i), Int(i%64))
	}); n > 30 {
		t.Errorf("warm UPDATE by primary key on a disk-WAL DB: %.0f mallocs, want <= 30", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		i++
		mustQuery(t, db, `SELECT v FROM t WHERE id = ?`, Int(i%64))
	}); n > 5 {
		t.Errorf("warm point SELECT: %.0f mallocs, want <= 5", n)
	}
}

// sqlSeeds collects string literals from Go source files: every one in
// parser_test.go (the parser tests' good and bad statements), and those of
// the engine that start like a statement (callers holds these). Then it adds
// repoStatements.
func sqlSeeds(t testing.TB) (seeds, callers []string) {
	seeds, _, _ = goStrings(t, "parser_test.go", false)
	_, callers, _ = goStrings(t, "../engine/*.go", true)
	seeds = append(seeds, callers...)
	return append(seeds, repoStatements...), callers
}

// goStrings parses the Go files glob matches, test files too unless
// noTests, and returns their string literals, those of them that start like
// a statement, and the SQL entry points (Exec, Query, QueryRow, QueryValue,
// MustExec) they call.
func goStrings(t testing.TB, glob string, noTests bool) (lits, stmts, calls []string) {
	keywords := []string{"SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP"}
	entry := map[string]bool{"Exec": true, "Query": true, "QueryRow": true, "QueryValue": true, "MustExec": true}
	files, err := filepath.Glob(glob)
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no files (%v)", glob, err)
	}
	for _, file := range files {
		if noTests && strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := goparser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && entry[sel.Sel.Name] {
					calls = append(calls, fmt.Sprintf("%s: %s", filepath.Base(file), sel.Sel.Name))
				}
			}
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			lits = append(lits, s)
			first, _, _ := strings.Cut(strings.TrimSpace(s), " ")
			for _, k := range keywords {
				if first == k {
					stmts = append(stmts, s)
					break
				}
			}
			return true
		})
	}
	return lits, stmts, calls
}

// repoStatements are the point statements the DLFM repository and the
// engine's metadata update ran as SQL text before they became typed point
// operations (Txn.LockKey, InsertRow, UpdateRow, DeleteKey). A dldb user or
// a test still sends these shapes, and the typed operations are held to
// them (keyed_test.go).
var repoStatements = []string{
	`INSERT INTO dlfm_updates (path, open_id) VALUES (?, ?)`,
	`DELETE FROM dlfm_updates WHERE path = ?`,
	`UPDATE dlfm_files SET cur_version = ? WHERE path = ?`,
	`INSERT INTO dlfm_files (path, mode, recovery, token_ttl, orig_uid, orig_mode, cur_version)
	 VALUES (?, ?, ?, ?, ?, ?, ?)`,
	`DELETE FROM dlfm_files WHERE path = ?`,
	`DELETE FROM dlfm_pending_archive WHERE path = ?`,
	`INSERT INTO dlfm_pending_archive (path, version, state_id) VALUES (?, ?, ?)`,
	`SELECT state_id FROM dlfm_pending_archive WHERE path = ? AND version = ?`,
	`UPDATE dlfm_replicas SET mode = ?, recovery = ?, token_ttl = ?, orig_uid = ?, orig_mode = ?, cur_version = ?, mtime_ns = ?
	 WHERE path = ? AND cur_version < ?`,
	`INSERT INTO dlfm_replicas (mode, recovery, token_ttl, orig_uid, orig_mode, cur_version, mtime_ns, path)
	 VALUES (?, ?, ?, ?, ?, ?, ?, ?)`,
	`DELETE FROM dlfm_replicas WHERE path = ?`,
	`UPDATE docs SET doc_size = ?, doc_mtime = ? WHERE doc = ?`,
}

// Non-test internal/dlfm holds no statement text and calls no SQL entry
// point: its repository is declared in Go and changed by typed operations
// only. Every statement the engine holds parses, and so do the seeds.
func TestSQLSeedsCoverTheCallers(t *testing.T) {
	_, stmts, calls := goStrings(t, "../dlfm/*.go", true)
	if len(stmts)+len(calls) != 0 {
		t.Fatalf("internal/dlfm holds SQL: statements %q, calls %q", stmts, calls)
	}
	seeds, callers := sqlSeeds(t)
	for _, s := range callers {
		if _, err := Parse(s); err != nil {
			t.Errorf("a caller's statement does not parse: %v\n%s", err, s)
		}
	}
	parsed := 0
	for _, s := range seeds {
		if _, err := Parse(s); err == nil {
			parsed++
		}
	}
	// parser_test.go's good statements, the callers' and repoStatements.
	if parsed < 30 {
		t.Fatalf("%d of %d seeds parse; the extraction lost statements", parsed, len(seeds))
	}
}

// Parse never panics, and going through the cache changes nothing: the same
// verdict, an equal AST, and — for a text short enough to admit — the very
// same one on the second ask.
func FuzzParse(f *testing.F) {
	seeds, _ := sqlSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	// An INSERT whose VALUES mix placeholders with string, number and
	// boolean literals: the callers bind nearly every value, so the
	// extracted seeds seldom hold this shape.
	f.Add(`INSERT INTO dlfm_files (path, mode, recovery, token_ttl, orig_uid, orig_mode, cur_version)
		 VALUES (?, 'rfd', ?, ?, ?, ?, 0)`)
	f.Add(`INSERT INTO dlfm_files (path, mode, recovery, token_ttl, orig_uid, orig_mode, cur_version)
		 VALUES (?, 'rdd', FALSE, 0, ?, 0, ?)`)
	// The statements of a per-transaction journal table the callers no
	// longer keep: a BOOLEAN NOT NULL column, an index on a non-key column,
	// an INSERT binding every column, and a DELETE by the indexed column.
	f.Add(`CREATE TABLE journal (
		id INT PRIMARY KEY,
		repo_txn INT NOT NULL,
		host_txn INT NOT NULL,
		action VARCHAR NOT NULL,
		path VARCHAR NOT NULL,
		orig_uid INT NOT NULL,
		orig_mode INT NOT NULL,
		recovery BOOLEAN NOT NULL
	)`)
	f.Add(`CREATE INDEX ON journal (host_txn)`)
	f.Add(`INSERT INTO journal (id, repo_txn, host_txn, action, path, orig_uid, orig_mode, recovery)
		 VALUES (?, ?, ?, ?, ?, ?, ?, ?)`)
	f.Add(`DELETE FROM journal WHERE host_txn = ?`)
	// The statements the DLFM ran as text before its schema was declared in
	// Go and recovery's drop and clear became typed: its four tables' DDL,
	// the retired journal's drop and the pending table's clear.
	f.Add(`CREATE TABLE dlfm_files (
		path VARCHAR PRIMARY KEY,
		mode VARCHAR NOT NULL,
		recovery BOOLEAN NOT NULL,
		token_ttl INT,
		orig_uid INT NOT NULL,
		orig_mode INT NOT NULL,
		cur_version INT NOT NULL
	)`)
	f.Add(`CREATE TABLE dlfm_updates (path VARCHAR PRIMARY KEY, open_id INT NOT NULL)`)
	f.Add(`CREATE TABLE dlfm_pending_archive (path VARCHAR PRIMARY KEY, version INT NOT NULL, state_id INT NOT NULL)`)
	f.Add(`CREATE TABLE dlfm_replicas (
		path VARCHAR PRIMARY KEY,
		mode VARCHAR NOT NULL,
		recovery BOOLEAN NOT NULL,
		token_ttl INT,
		orig_uid INT NOT NULL,
		orig_mode INT NOT NULL,
		cur_version INT NOT NULL,
		mtime_ns INT NOT NULL
	)`)
	f.Add(`DROP TABLE dlfm_txns`)
	f.Add(`DELETE FROM dlfm_pending_archive`)
	// The point statements of repoStatements with literals in place of some
	// placeholders — negative numbers, quoted paths, a literal bound in the
	// replica's version guard — and the engine's metadata UPDATE as the
	// unformatted template it once kept, which must fail to parse cleanly.
	for _, s := range []string{
		`INSERT INTO dlfm_updates (path, open_id) VALUES ('a/b.dat', 7)`,
		`DELETE FROM dlfm_updates WHERE path = 'a/b.dat'`,
		`UPDATE dlfm_files SET cur_version = 3 WHERE path = 'a/b.dat'`,
		`INSERT INTO dlfm_files (path, mode, recovery, token_ttl, orig_uid, orig_mode, cur_version)
		 VALUES (?, ?, ?, ?, ?, ?, 0)`,
		`DELETE FROM dlfm_files WHERE path = 'it''s.dat'`,
		`INSERT INTO dlfm_pending_archive (path, version, state_id) VALUES ('a', 1, -1)`,
		`SELECT state_id FROM dlfm_pending_archive WHERE path = 'a' AND version = 2`,
		`UPDATE dlfm_replicas SET mode = 'rfd', recovery = TRUE, token_ttl = 0, orig_uid = ?, orig_mode = ?, cur_version = 4, mtime_ns = -5
		 WHERE path = ? AND cur_version < 4`,
		`DELETE FROM dlfm_replicas WHERE path = ''`,
		`UPDATE docs SET doc_size = 0, doc_mtime = -1 WHERE doc = 'd'`,
		`UPDATE %s SET %s WHERE %s = ?`,
	} {
		f.Add(s)
	}
	var c stmtCache
	f.Fuzz(func(t *testing.T, src string) {
		plain, perr := Parse(src)
		first, ferr := c.parse(src)
		again, aerr := c.parse(src)
		if (perr == nil) != (ferr == nil) || (perr == nil) != (aerr == nil) {
			t.Fatalf("verdicts differ: uncached %v, cached %v then %v", perr, ferr, aerr)
		}
		if perr != nil {
			return
		}
		if !reflect.DeepEqual(plain, first) || !reflect.DeepEqual(plain, again) {
			t.Fatalf("cached parse of %q differs from the uncached one:\n%#v\n%#v", src, first, plain)
		}
		if len(src) <= stmtCacheMaxText && first != again {
			t.Fatalf("%q was parsed twice", src)
		}
	})
}
