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

// What one warm statement costs on the commit path and the read path (parent:
// 73 and 37 mallocs).
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
	}); n > 24 {
		t.Errorf("warm point SELECT: %.0f mallocs, want <= 24", n)
	}
}

// sqlSeeds collects string literals from Go source files: every one in
// parser_test.go (the parser tests' good and bad statements), and from the
// two packages that talk SQL to this one, those that start like a statement.
func sqlSeeds(t testing.TB) []string {
	keywords := []string{"SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP"}
	var seeds []string
	for _, src := range []struct {
		glob    string
		sqlOnly bool
	}{{"parser_test.go", false}, {"../dlfm/*.go", true}, {"../engine/*.go", true}} {
		files, err := filepath.Glob(src.glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no files (%v)", src.glob, err)
		}
		for _, file := range files {
			if src.sqlOnly && strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := goparser.ParseFile(token.NewFileSet(), file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				first, _, _ := strings.Cut(strings.TrimSpace(s), " ")
				isSQL := false
				for _, k := range keywords {
					isSQL = isSQL || first == k
				}
				if isSQL || !src.sqlOnly {
					seeds = append(seeds, s)
				}
				return true
			})
		}
	}
	return seeds
}

func TestSQLSeedsCoverTheCallers(t *testing.T) {
	seeds := sqlSeeds(t)
	parsed := 0
	for _, s := range seeds {
		if _, err := Parse(s); err == nil {
			parsed++
		}
	}
	// internal/dlfm and internal/engine hold several dozen statements.
	if parsed < 40 {
		t.Fatalf("%d of %d seeds parse; the extraction lost the callers' statements", parsed, len(seeds))
	}
}

// Parse never panics, and going through the cache changes nothing: the same
// verdict, an equal AST, and — for a text short enough to admit — the very
// same one on the second ask.
func FuzzParse(f *testing.F) {
	for _, s := range sqlSeeds(f) {
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
