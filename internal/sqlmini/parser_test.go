package sqlmini

import (
	"strings"
	"testing"
	"testing/quick"
)

func parse(t *testing.T, sql string) Stmt {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return st
}

func TestParseCreateTableTypes(t *testing.T) {
	st := parse(t, `CREATE TABLE t (
		a INT PRIMARY KEY,
		b BIGINT,
		c VARCHAR(40) NOT NULL,
		d TEXT,
		e DOUBLE,
		f BOOLEAN,
		g TIMESTAMP,
		h DATALINK MODE RDD RECOVERY YES TOKEN 120
	)`).(*CreateTableStmt)
	if len(st.Columns) != 8 {
		t.Fatalf("columns = %d", len(st.Columns))
	}
	kinds := []Kind{KindInt, KindInt, KindString, KindString, KindFloat, KindBool, KindTime, KindLink}
	for i, k := range kinds {
		if st.Columns[i].Kind != k {
			t.Errorf("col %d kind = %v, want %v", i, st.Columns[i].Kind, k)
		}
	}
	if !st.Columns[0].PrimaryKey || !st.Columns[0].NotNull {
		t.Error("PK flags")
	}
	if !st.Columns[2].NotNull {
		t.Error("NOT NULL flag")
	}
	dl := st.Columns[7].DL
	if dl.Mode.String() != "rdd" || !dl.Recovery || dl.TokenTTLSecs != 120 {
		t.Errorf("datalink opts = %+v", dl)
	}
}

func TestParseSelectShapes(t *testing.T) {
	st := parse(t, `SELECT a, b AS bee, COUNT(*) FROM t WHERE a > 1 AND b IS NOT NULL ORDER BY a DESC LIMIT 10`).(*SelectStmt)
	if len(st.Items) != 3 || st.Items[1].Alias != "bee" {
		t.Fatalf("items = %+v", st.Items)
	}
	if st.OrderBy != "a" || !st.OrderDesc || st.Limit != 10 {
		t.Fatalf("modifiers = %+v", st)
	}
	star := parse(t, `SELECT * FROM a, b`).(*SelectStmt)
	if !star.Star || len(star.Tables) != 2 {
		t.Fatalf("star = %+v", star)
	}
	fu := parse(t, `SELECT a FROM t FOR UPDATE`).(*SelectStmt)
	if !fu.ForUpdate {
		t.Fatal("FOR UPDATE not parsed")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	st := parse(t, `SELECT a FROM t WHERE a + 1 * 2 = 3`).(*SelectStmt)
	cmp := st.Where.(*Binary)
	if cmp.Op != "=" {
		t.Fatalf("top op = %s", cmp.Op)
	}
	add := cmp.L.(*Binary)
	if add.Op != "+" {
		t.Fatalf("left op = %s", add.Op)
	}
	mul := add.R.(*Binary)
	if mul.Op != "*" {
		t.Fatalf("mul = %s", mul.Op)
	}
}

func TestParseQualifiedColumnsAndFunctions(t *testing.T) {
	st := parse(t, `SELECT t.a, UPPER(u.b) FROM t, u WHERE t.id = u.id`).(*SelectStmt)
	col := st.Items[0].Expr.(*ColRef)
	if col.Table != "t" || col.Name != "a" {
		t.Fatalf("qualified col = %+v", col)
	}
	call := st.Items[1].Expr.(*Call)
	if call.Name != "UPPER" || len(call.Args) != 1 {
		t.Fatalf("call = %+v", call)
	}
}

func TestParseInsertMultiRow(t *testing.T) {
	st := parse(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y'), (?, ?)`).(*InsertStmt)
	if len(st.Rows) != 3 || len(st.Columns) != 2 {
		t.Fatalf("insert = %+v", st)
	}
	if p, ok := st.Rows[2][0].(*Param); !ok || p.Idx != 0 {
		t.Fatalf("param = %+v", st.Rows[2][0])
	}
	if p, ok := st.Rows[2][1].(*Param); !ok || p.Idx != 1 {
		t.Fatalf("param idx = %+v", st.Rows[2][1])
	}
}

func TestParseUpdateDelete(t *testing.T) {
	up := parse(t, `UPDATE t SET a = a + 1, b = 'x' WHERE id = 3`).(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("update = %+v", up)
	}
	del := parse(t, `DELETE FROM t`).(*DeleteStmt)
	if del.Where != nil {
		t.Fatal("bare delete should have nil where")
	}
}

func TestParseComments(t *testing.T) {
	st := parse(t, "SELECT a -- trailing comment\nFROM t -- another\n").(*SelectStmt)
	if len(st.Items) != 1 {
		t.Fatalf("items = %+v", st.Items)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	parse(t, `select a from t where a = 1 order by a limit 1`)
	parse(t, `Insert Into t Values (1)`)
	parse(t, `create table x (y int primary key)`)
}

func TestParseNegativeNumbersAndFloats(t *testing.T) {
	st := parse(t, `SELECT a FROM t WHERE a = -5 OR a = 2.5`).(*SelectStmt)
	or := st.Where.(*Binary)
	neg := or.L.(*Binary).R.(*Unary)
	if neg.Op != "-" {
		t.Fatalf("negation = %+v", neg)
	}
	flt := or.R.(*Binary).R.(*Lit)
	if flt.V.K != KindFloat || flt.V.F != 2.5 {
		t.Fatalf("float = %+v", flt.V)
	}
}

func TestParseTrailingSemicolonAndErrors(t *testing.T) {
	parse(t, `SELECT a FROM t;`)
	for _, bad := range []string{
		`SELECT a FROM t extra`,
		`SELECT (a FROM t`,
		`INSERT INTO t VALUES (1`,
		`CREATE TABLE t (a INT,)`,
		`UPDATE t SET = 3`,
		`DELETE t WHERE x`,
		`CREATE INDEX ON t`,
		`SELECT a FROM t ORDER a`,
		"SELECT a FROM t WHERE a = @",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// Property: the lexer never panics and either tokenizes or errors cleanly on
// arbitrary input.
func TestLexerTotalProperty(t *testing.T) {
	prop := func(s string) bool {
		// Parse must return, never panic.
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: string literals with embedded quotes round-trip through
// INSERT + SELECT.
func TestStringLiteralRoundTripProperty(t *testing.T) {
	db := NewDB(Options{Log: testLog(t)})
	db.MustExec(`CREATE TABLE s (v VARCHAR)`)
	prop := func(raw string) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		// Escape single quotes the SQL way.
		lit := strings.ReplaceAll(raw, "'", "''")
		if _, err := db.Exec(`DELETE FROM s`); err != nil {
			return false
		}
		if _, err := db.Exec(`INSERT INTO s VALUES ('` + lit + `')`); err != nil {
			return false
		}
		rows, err := db.Query(`SELECT v FROM s`)
		if err != nil || len(rows.Data) != 1 {
			return false
		}
		return rows.Data[0][0].S == raw
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
