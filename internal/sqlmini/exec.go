package sqlmini

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Rows is the result of a query.
type Rows struct {
	Cols []string
	Data []Row
}

// String renders the rows as an aligned text table (shell output).
func (r *Rows) String() string {
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Data))
	for ri, row := range r.Data {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Cols {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	sb.WriteByte('\n')
	for i := range r.Cols {
		sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for ci, s := range row {
			fmt.Fprintf(&sb, "%-*s  ", widths[ci], s)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Exec parses and executes a statement in an implicit transaction.
func (db *DB) Exec(sql string, args ...Value) (int, error) {
	txn := db.Begin()
	n, err := txn.Exec(sql, args...)
	if err != nil {
		_ = txn.Abort()
		return 0, err
	}
	if err := txn.Commit(); err != nil {
		return 0, err
	}
	return n, nil
}

// Query parses and executes a SELECT in an implicit transaction.
func (db *DB) Query(sql string, args ...Value) (*Rows, error) {
	txn := db.Begin()
	rows, err := txn.Query(sql, args...)
	if err != nil {
		_ = txn.Abort()
		return nil, err
	}
	if err := txn.Commit(); err != nil {
		return nil, err
	}
	return rows, nil
}

// MustExec is Exec that panics on error (tests, examples).
func (db *DB) MustExec(sql string, args ...Value) int {
	n, err := db.Exec(sql, args...)
	if err != nil {
		panic(err)
	}
	return n
}

// Exec runs a DML/DDL statement inside this transaction, returning the
// number of affected rows.
func (t *Txn) Exec(sql string, args ...Value) (int, error) {
	st, err := t.db.stmts.parse(sql)
	if err != nil {
		return 0, err
	}
	switch s := st.(type) {
	case *CreateTableStmt:
		return 0, t.CreateTable(s.Name, s.Columns)
	case *DropTableStmt:
		return 0, t.DropTable(s.Name)
	case *CreateIndexStmt:
		return 0, t.execCreateIndex(s)
	case *InsertStmt:
		return t.execInsert(s, args)
	case *UpdateStmt:
		return t.execUpdate(s, args)
	case *DeleteStmt:
		return t.execDelete(s, args)
	case *SelectStmt:
		return 0, errors.New("sqlmini: use Query for SELECT")
	default:
		return 0, fmt.Errorf("sqlmini: unhandled statement %T", st)
	}
}

// Query runs a SELECT inside this transaction.
func (t *Txn) Query(sql string, args ...Value) (*Rows, error) {
	st, err := t.db.stmts.parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, errors.New("sqlmini: Query requires a SELECT statement")
	}
	return t.execSelect(sel, args)
}

// QueryRow runs a SELECT and returns its single row, erroring on 0 or >1.
func (t *Txn) QueryRow(sql string, args ...Value) (Row, error) {
	rows, err := t.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	if len(rows.Data) != 1 {
		return nil, fmt.Errorf("sqlmini: expected 1 row, got %d", len(rows.Data))
	}
	return rows.Data[0], nil
}

// QueryRow on DB runs in an implicit transaction.
func (db *DB) QueryRow(sql string, args ...Value) (Row, error) {
	txn := db.Begin()
	r, err := txn.QueryRow(sql, args...)
	if err != nil {
		_ = txn.Abort()
		return nil, err
	}
	if err := txn.Commit(); err != nil {
		return nil, err
	}
	return r, nil
}

// QueryValue runs a SELECT whose answer is one row of one value and returns
// that value; any other number of rows or columns is an error. A keyed
// lookup — one table, one plain item, no aggregate, ORDER BY or LIMIT — is
// answered from matchRows and one eval of the item, as execSelect would
// answer it, without building a result set. Every other shape runs
// execSelect.
func (t *Txn) QueryValue(sql string, args ...Value) (Value, error) {
	st, err := t.db.stmts.parse(sql)
	if err != nil {
		return Value{}, err
	}
	s, ok := st.(*SelectStmt)
	if !ok {
		return Value{}, errors.New("sqlmini: QueryValue requires a SELECT statement")
	}
	if !pointSelect(s) {
		rows, err := t.execSelect(s, args)
		if err != nil {
			return Value{}, err
		}
		if len(rows.Data) != 1 || len(rows.Cols) != 1 {
			return Value{}, notOneValue(len(rows.Data), len(rows.Cols))
		}
		return rows.Data[0][0], nil
	}
	tbl, err := t.db.cat.get(s.Tables[0])
	if err != nil {
		return Value{}, err
	}
	mode := LockS
	if s.ForUpdate {
		mode = LockX
	}
	_, rows, err := t.matchRows(tbl, s.Where, args, mode)
	if err != nil {
		return Value{}, err
	}
	if len(rows) != 1 {
		return Value{}, notOneValue(len(rows), 1)
	}
	scope := [1]binding{{tbl, rows[0]}}
	v, err := t.eval(s.Items[0].Expr, scope[:], args)
	if errors.Is(err, errNullCompare) {
		return Null(), nil
	}
	return v, err
}

// QueryValue on DB runs in an implicit transaction.
func (db *DB) QueryValue(sql string, args ...Value) (Value, error) {
	txn := db.Begin()
	v, err := txn.QueryValue(sql, args...)
	if err != nil {
		_ = txn.Abort()
		return Value{}, err
	}
	if err := txn.Commit(); err != nil {
		return Value{}, err
	}
	return v, nil
}

// pointSelect reports whether QueryValue may answer s without execSelect:
// one table, one item that is not an aggregate, no ORDER BY and no LIMIT.
func pointSelect(s *SelectStmt) bool {
	if len(s.Tables) != 1 || s.Star || len(s.Items) != 1 || s.OrderBy != "" || s.Limit >= 0 {
		return false
	}
	c, isCall := s.Items[0].Expr.(*Call)
	return !isCall || !aggregateNames[c.Name]
}

// notOneValue is QueryValue's error for an answer of any other shape.
func notOneValue(rows, cols int) error {
	return fmt.Errorf("sqlmini: expected one value, got %d rows of %d columns", rows, cols)
}

func (t *Txn) execCreateIndex(s *CreateIndexStmt) error {
	tbl, err := t.db.cat.get(s.Table)
	if err != nil {
		return err
	}
	return t.createIndex(tbl, s.Column)
}

// buildRow evaluates one row of an INSERT's VALUES into a full-width row,
// in the order of the statement's column list or, without one, the
// table's; InsertRow checks it.
func (t *Txn) buildRow(tbl *Table, cols []string, exprs []Expr, args []Value) (Row, error) {
	if len(cols) == 0 && len(exprs) != len(tbl.Columns) {
		return nil, fmt.Errorf("sqlmini: %s has %d columns, %d values given", tbl.Name, len(tbl.Columns), len(exprs))
	}
	if len(cols) != 0 && len(cols) != len(exprs) {
		return nil, fmt.Errorf("sqlmini: %d columns but %d values", len(cols), len(exprs))
	}
	row := make(Row, len(tbl.Columns))
	for i, e := range exprs {
		ci := i
		if len(cols) != 0 {
			if ci = tbl.ColIndex(cols[i]); ci < 0 {
				return nil, fmt.Errorf("sqlmini: no column %q in %s", cols[i], tbl.Name)
			}
		}
		v, err := t.eval(e, nil, args)
		if err != nil {
			return nil, err
		}
		row[ci] = v
	}
	return row, nil
}

func (t *Txn) execInsert(s *InsertStmt, args []Value) (int, error) {
	tbl, err := t.db.cat.get(s.Table)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, exprRow := range s.Rows {
		row, err := t.buildRow(tbl, s.Columns, exprRow, args)
		if err != nil {
			return n, err
		}
		if _, err := t.InsertRow(tbl, row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// matchRows scans tbl, locking each candidate row in `mode`, and returns the
// ids and rows satisfying the predicate. Uses the PK or a secondary index for
// simple equality predicates when available. A primary-key hit comes back in
// one-element arrays the transaction owns: the slices are valid until the
// next matchRows on this transaction.
func (t *Txn) matchRows(tbl *Table, where Expr, args []Value, mode LockMode) ([]RowID, []Row, error) {
	var ids []RowID
	var rows []Row

	tryRow := func(id RowID) error {
		if err := t.db.lm.Acquire(t.id, LockTarget{Table: tbl.Name, Row: id}, mode); err != nil {
			return err
		}
		row, ok := tbl.Get(id)
		if !ok {
			return nil // deleted while we waited
		}
		match := true
		if where != nil {
			v, err := t.eval(where, env{{tbl, row}}, args)
			if err != nil {
				if errors.Is(err, errNullCompare) {
					return nil // UNKNOWN predicate = no match
				}
				return err
			}
			match = v.K == KindBool && v.B
		}
		if match {
			ids = append(ids, id)
			rows = append(rows, row)
		}
		return nil
	}

	// Index fast path: WHERE col = literal/param.
	if col, val, ok := simpleEquality(where, args); ok {
		if ci := tbl.ColIndex(col); ci >= 0 {
			if cv, err := CoerceTo(val, tbl.Columns[ci].Kind); err == nil {
				val = cv
			}
			if tbl.pkCol == tbl.ColIndex(col) && tbl.pkCol >= 0 {
				ids, rows = t.pkID[:0], t.pkRow[:0]
				if id, found := tbl.LookupPK(val); found {
					if err := tryRow(id); err != nil {
						return nil, nil, err
					}
				}
				return ids, rows, nil
			}
			if hits, hasIdx := tbl.LookupIndex(ci, val); hasIdx {
				for _, id := range hits {
					if err := tryRow(id); err != nil {
						return nil, nil, err
					}
				}
				return ids, rows, nil
			}
		}
	}

	var scanErr error
	tbl.Scan(func(id RowID, _ Row) bool {
		if err := tryRow(id); err != nil {
			scanErr = err
			return false
		}
		return true
	})
	if scanErr != nil {
		return nil, nil, scanErr
	}
	return ids, rows, nil
}

// simpleEquality recognizes `col = literal` or `col = ?` predicates, alone or
// as a conjunct of an AND: the caller evaluates the whole predicate on every
// row the index yields, so any one equality narrows the candidates soundly.
func simpleEquality(where Expr, args []Value) (col string, val Value, ok bool) {
	b, isBin := where.(*Binary)
	if isBin && b.Op == "AND" {
		if col, val, ok = simpleEquality(b.L, args); !ok {
			col, val, ok = simpleEquality(b.R, args)
		}
		return col, val, ok
	}
	if !isBin || b.Op != "=" {
		return "", Value{}, false
	}
	c, isCol := b.L.(*ColRef)
	if !isCol {
		return "", Value{}, false
	}
	switch r := b.R.(type) {
	case *Lit:
		return c.Name, r.V, true
	case *Param:
		if r.Idx < len(args) {
			return c.Name, args[r.Idx], true
		}
	}
	return "", Value{}, false
}

func (t *Txn) execUpdate(s *UpdateStmt, args []Value) (int, error) {
	tbl, err := t.db.cat.get(s.Table)
	if err != nil {
		return 0, err
	}
	ids, rows, err := t.matchRows(tbl, s.Where, args, LockX)
	if err != nil {
		return 0, err
	}
	n := 0
	for i, id := range ids {
		// Copy on write: old is the installed row, which readers share. It is
		// read out of rows once: a function in a SET expression may run a
		// statement whose matchRows reuses a primary-key hit's scratch.
		old := rows[i]
		newRow := old.Clone()
		for _, set := range s.Set {
			ci := tbl.ColIndex(set.Column)
			if ci < 0 {
				return n, fmt.Errorf("sqlmini: no column %q in %s", set.Column, s.Table)
			}
			v, err := t.eval(set.Value, env{{tbl, old}}, args)
			if err != nil {
				return n, err
			}
			newRow[ci] = v
		}
		if err := t.UpdateRow(tbl, id, newRow); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (t *Txn) execDelete(s *DeleteStmt, args []Value) (int, error) {
	tbl, err := t.db.cat.get(s.Table)
	if err != nil {
		return 0, err
	}
	ids, _, err := t.matchRows(tbl, s.Where, args, LockX)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range ids {
		if err := t.DeleteRow(tbl, id); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// binding is one table's current row in an expression's scope.
type binding struct {
	tbl *Table
	row Row
}

// env is the scope for expression evaluation: the current row of each table
// in the FROM list, in FROM order. Column references resolve against the
// tables' schemas in place — no per-row name map is built. An empty env means
// no columns are in scope (INSERT values).
type env []binding

// lookup resolves a column reference, latest-joined table first; a qualified
// reference only considers the table it names.
func (e env) lookup(ref *ColRef) (Value, bool) {
	for i := len(e) - 1; i >= 0; i-- {
		b := &e[i]
		if ref.Table != "" && !strings.EqualFold(ref.Table, b.tbl.Name) {
			continue
		}
		if ci := b.tbl.ColIndex(ref.Name); ci >= 0 {
			return b.row[ci], true
		}
	}
	return Value{}, false
}

// execSelect enumerates the combinations of the FROM tables' matching rows in
// one nested loop over a reused env, the first table turning slowest, and
// turns each into an output row as it is produced — or folds it into the
// aggregates. A one-table query keeps its env and cursor on the stack, so it
// allocates its answer (Rows, Cols, Data and one Row per match) and nothing
// else.
func (t *Txn) execSelect(s *SelectStmt, args []Value) (*Rows, error) {
	if len(s.Tables) == 0 {
		return nil, errors.New("sqlmini: SELECT needs FROM")
	}
	lockMode := LockS
	if s.ForUpdate {
		lockMode = LockX
	}
	var scope1 [1]binding
	var curs1 [1]cursor
	scope, curs := env(scope1[:]), curs1[:]
	join := len(s.Tables) > 1
	if join {
		scope, curs = make(env, len(s.Tables)), make([]cursor, len(s.Tables))
	}
	width := 0
	for i, name := range s.Tables {
		tbl, err := t.db.cat.get(name)
		if err != nil {
			return nil, err
		}
		// A one-table query filters in matchRows, where an index can narrow
		// the candidates; a join filters each combination below. A join's
		// tables are therefore scanned, and none of their row sets is the
		// primary-key scratch the next matchRows would reuse.
		var where Expr
		if !join {
			where = s.Where
		}
		_, rows, err := t.matchRows(tbl, where, args, lockMode)
		if err != nil {
			return nil, err
		}
		scope[i].tbl, curs[i].rows = tbl, rows
		width += len(tbl.Columns)
	}

	out := &Rows{}
	var aggs []aggState
	if s.Star {
		out.Cols = make([]string, 0, width)
		for _, b := range scope {
			for _, c := range b.tbl.Columns {
				out.Cols = append(out.Cols, c.Name)
			}
		}
	} else {
		out.Cols = make([]string, len(s.Items))
		for i, item := range s.Items {
			out.Cols[i] = itemName(item, i)
		}
		var err error
		if aggs, err = newAggStates(s.Items); err != nil {
			return nil, err
		}
	}

	for more := firstCombination(scope, curs); more; more = nextCombination(scope, curs) {
		if join && s.Where != nil {
			v, err := t.eval(s.Where, scope, args)
			if err != nil && !errors.Is(err, errNullCompare) {
				return nil, err
			}
			if err != nil || v.K != KindBool || !v.B {
				continue
			}
		}
		switch {
		case s.Star:
			row := make(Row, 0, width)
			for _, b := range scope {
				row = append(row, b.row...)
			}
			out.Data = append(out.Data, row)
		case aggs != nil:
			if err := t.foldAggregates(aggs, scope, args); err != nil {
				return nil, err
			}
		default:
			row := make(Row, len(s.Items))
			for i, item := range s.Items {
				v, err := t.eval(item.Expr, scope, args)
				if err != nil {
					if !errors.Is(err, errNullCompare) {
						return nil, err
					}
					v = Null()
				}
				row[i] = v
			}
			out.Data = append(out.Data, row)
		}
	}
	if aggs != nil {
		row := make(Row, len(aggs))
		for i := range aggs {
			row[i] = aggs[i].result()
		}
		out.Data = append(out.Data, row)
		return out, nil
	}

	if s.OrderBy != "" {
		oi := -1
		for i, c := range out.Cols {
			if strings.EqualFold(c, s.OrderBy) {
				oi = i
				break
			}
		}
		if oi < 0 {
			return nil, fmt.Errorf("sqlmini: ORDER BY column %q not in select list", s.OrderBy)
		}
		sort.SliceStable(out.Data, func(i, j int) bool {
			c, err := Compare(out.Data[i][oi], out.Data[j][oi])
			if err != nil {
				return false
			}
			if s.OrderDesc {
				return c > 0
			}
			return c < 0
		})
	}
	if s.Limit >= 0 && len(out.Data) > s.Limit {
		out.Data = out.Data[:s.Limit]
	}
	return out, nil
}

// cursor is one FROM table's matching rows and the position of the current
// one during a SELECT's enumeration.
type cursor struct {
	rows []Row
	at   int
}

// firstCombination puts every table on its first row; false when one has
// none.
func firstCombination(scope env, curs []cursor) bool {
	for i := range curs {
		if len(curs[i].rows) == 0 {
			return false
		}
		curs[i].at = 0
		scope[i].row = curs[i].rows[0]
	}
	return true
}

// nextCombination moves to the next combination, the last table turning
// fastest; false once every combination was visited.
func nextCombination(scope env, curs []cursor) bool {
	for i := len(curs) - 1; i >= 0; i-- {
		c := &curs[i]
		if c.at++; c.at == len(c.rows) {
			c.at = 0
		}
		scope[i].row = c.rows[c.at]
		if c.at != 0 {
			return true
		}
	}
	return false
}

func itemName(item SelectItem, i int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if c, ok := item.Expr.(*ColRef); ok {
		return c.Name
	}
	if c, ok := item.Expr.(*Call); ok {
		return c.Name
	}
	return fmt.Sprintf("col%d", i+1)
}

var aggregateNames = map[string]bool{"COUNT": true, "SUM": true, "MIN": true, "MAX": true, "AVG": true}

// aggState folds one aggregate item of the select list over the
// combinations as they are produced.
type aggState struct {
	call    *Call
	n       int64 // values folded in: NULLs are skipped
	sum     float64
	isFloat bool
	best    Value // MIN, MAX
}

// newAggStates returns one state per item when the select list aggregates,
// nil when it does not.
func newAggStates(items []SelectItem) ([]aggState, error) {
	aggregate := false
	for _, item := range items {
		if c, ok := item.Expr.(*Call); ok && aggregateNames[c.Name] {
			aggregate = true
		}
	}
	if !aggregate {
		return nil, nil
	}
	aggs := make([]aggState, len(items))
	for i, item := range items {
		c, ok := item.Expr.(*Call)
		if !ok || !aggregateNames[c.Name] {
			return nil, fmt.Errorf("sqlmini: mixing aggregates and plain columns needs GROUP BY (unsupported)")
		}
		if !c.Star && len(c.Args) != 1 {
			return nil, fmt.Errorf("sqlmini: %s takes one argument", c.Name)
		}
		aggs[i].call = c
	}
	return aggs, nil
}

// foldAggregates folds the current combination into every aggregate.
func (t *Txn) foldAggregates(aggs []aggState, scope env, args []Value) error {
	for i := range aggs {
		a := &aggs[i]
		v := Int(1) // COUNT(*)
		if !a.call.Star {
			var err error
			v, err = t.eval(a.call.Args[0], scope, args)
			if errors.Is(err, errNullCompare) || err == nil && v.IsNull() {
				continue
			}
			if err != nil {
				return err
			}
		}
		switch a.call.Name {
		case "SUM", "AVG":
			n, ok := v.numeric()
			if !ok {
				return fmt.Errorf("sqlmini: %s over non-numeric value", a.call.Name)
			}
			a.isFloat = a.isFloat || v.K == KindFloat
			a.sum += n
		case "MIN", "MAX":
			if a.n > 0 {
				c, err := Compare(v, a.best)
				if err != nil {
					return err
				}
				if a.call.Name == "MIN" && c < 0 || a.call.Name == "MAX" && c > 0 {
					a.best = v
				}
			} else {
				a.best = v
			}
		}
		a.n++
	}
	return nil
}

// result is the aggregate over everything folded in.
func (a *aggState) result() Value {
	switch a.call.Name {
	case "COUNT":
		return Int(a.n)
	case "SUM":
		if a.isFloat {
			return Float(a.sum)
		}
		return Int(int64(a.sum))
	case "AVG":
		if a.n == 0 {
			return Null()
		}
		return Float(a.sum / float64(a.n))
	default: // MIN, MAX
		if a.n == 0 {
			return Null()
		}
		return a.best
	}
}

// eval evaluates an expression in an environment. An empty env means no
// columns are in scope (INSERT values).
func (t *Txn) eval(e Expr, scope env, args []Value) (Value, error) {
	switch x := e.(type) {
	case *Lit:
		return x.V, nil
	case *Param:
		if x.Idx >= len(args) {
			return Value{}, fmt.Errorf("sqlmini: missing argument for placeholder %d", x.Idx+1)
		}
		return args[x.Idx], nil
	case *ColRef:
		if len(scope) == 0 {
			return Value{}, fmt.Errorf("sqlmini: column %q not allowed here", x.Name)
		}
		v, ok := scope.lookup(x)
		if !ok {
			return Value{}, fmt.Errorf("sqlmini: unknown column %q", x.Name)
		}
		return v, nil
	case *Unary:
		v, err := t.eval(x.X, scope, args)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return Null(), nil
			}
			if v.K != KindBool {
				return Value{}, fmt.Errorf("sqlmini: NOT over non-boolean")
			}
			return Bool(!v.B), nil
		case "-":
			switch v.K {
			case KindInt:
				return Int(-v.I), nil
			case KindFloat:
				return Float(-v.F), nil
			case KindNull:
				return Null(), nil
			default:
				return Value{}, fmt.Errorf("sqlmini: unary minus over %s", v.K)
			}
		}
		return Value{}, fmt.Errorf("sqlmini: unknown unary op %q", x.Op)
	case *IsNull:
		v, err := t.eval(x.X, scope, args)
		if err != nil {
			return Value{}, err
		}
		res := v.IsNull()
		if x.Not {
			res = !res
		}
		return Bool(res), nil
	case *Binary:
		return t.evalBinary(x, scope, args)
	case *Call:
		fn, ok := t.db.scalarFn(x.Name)
		if !ok {
			return Value{}, fmt.Errorf("sqlmini: unknown function %s", x.Name)
		}
		return t.call(fn, x.Args, scope, args)
	default:
		return Value{}, fmt.Errorf("sqlmini: unhandled expression %T", e)
	}
}

// fnArgs recycles the slices scalar-function arguments are evaluated into.
var fnArgs = sync.Pool{New: func() any { return new([]Value) }}

// call evaluates a function's arguments into a slice from fnArgs and calls
// it. The slice goes back after the call, cleared so it holds on to nothing;
// a call nested in an argument takes a slice of its own.
func (t *Txn) call(fn ScalarFn, argExprs []Expr, scope env, args []Value) (Value, error) {
	buf := fnArgs.Get().(*[]Value)
	defer fnArgs.Put(buf)
	vals := (*buf)[:0]
	for _, a := range argExprs {
		v, err := t.eval(a, scope, args)
		if err != nil {
			return Value{}, err
		}
		vals = append(vals, v)
	}
	*buf = vals
	v, err := fn(t, vals)
	clear(vals)
	return v, err
}

func (t *Txn) evalBinary(x *Binary, scope env, args []Value) (Value, error) {
	// AND/OR get three-valued logic with short-circuit.
	if x.Op == "AND" || x.Op == "OR" {
		l, err := t.eval(x.L, scope, args)
		if err != nil && !errors.Is(err, errNullCompare) {
			return Value{}, err
		}
		lTrue := err == nil && l.K == KindBool && l.B
		lFalse := err == nil && l.K == KindBool && !l.B
		if x.Op == "AND" && lFalse {
			return Bool(false), nil
		}
		if x.Op == "OR" && lTrue {
			return Bool(true), nil
		}
		r, rerr := t.eval(x.R, scope, args)
		if rerr != nil && !errors.Is(rerr, errNullCompare) {
			return Value{}, rerr
		}
		rTrue := rerr == nil && r.K == KindBool && r.B
		rFalse := rerr == nil && r.K == KindBool && !r.B
		switch x.Op {
		case "AND":
			if lTrue && rTrue {
				return Bool(true), nil
			}
			if rFalse {
				return Bool(false), nil
			}
			return Null(), errNullCompare
		default: // OR
			if rTrue {
				return Bool(true), nil
			}
			if lFalse && rFalse {
				return Bool(false), nil
			}
			return Null(), errNullCompare
		}
	}

	l, err := t.eval(x.L, scope, args)
	if err != nil {
		return Value{}, err
	}
	r, err := t.eval(x.R, scope, args)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		c, err := Compare(l, r)
		if err != nil {
			return Null(), err
		}
		switch x.Op {
		case "=":
			return Bool(c == 0), nil
		case "<>":
			return Bool(c != 0), nil
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Str(l.String() + r.String()), nil
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		ln, lok := l.numeric()
		rn, rok := r.numeric()
		if !lok || !rok {
			return Value{}, fmt.Errorf("sqlmini: arithmetic over non-numeric values")
		}
		var res float64
		switch x.Op {
		case "+":
			res = ln + rn
		case "-":
			res = ln - rn
		case "*":
			res = ln * rn
		case "/":
			if rn == 0 {
				return Value{}, fmt.Errorf("sqlmini: division by zero")
			}
			res = ln / rn
		}
		if l.K == KindInt && r.K == KindInt && x.Op != "/" {
			return Int(int64(res)), nil
		}
		if l.K == KindInt && r.K == KindInt && x.Op == "/" && rn != 0 && int64(ln)%int64(rn) == 0 {
			return Int(int64(res)), nil
		}
		return Float(res), nil
	default:
		return Value{}, fmt.Errorf("sqlmini: unknown operator %q", x.Op)
	}
}

// builtinFns is the default scalar function library, shared by every DB;
// a function a DB registers (RegisterFn) under the same name takes its place.
var builtinFns = map[string]ScalarFn{
	"LENGTH": func(_ *Txn, args []Value) (Value, error) {
		if len(args) != 1 {
			return Value{}, errors.New("LENGTH takes one argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Int(int64(len(args[0].String()))), nil
	},
	"UPPER": func(_ *Txn, args []Value) (Value, error) {
		if len(args) != 1 {
			return Value{}, errors.New("UPPER takes one argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Str(strings.ToUpper(args[0].String())), nil
	},
	"LOWER": func(_ *Txn, args []Value) (Value, error) {
		if len(args) != 1 {
			return Value{}, errors.New("LOWER takes one argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Str(strings.ToLower(args[0].String())), nil
	},
	"NOW": func(t *Txn, args []Value) (Value, error) {
		return Time(t.db.clock()), nil
	},
	// SQL/MED DATALINK scalar functions that need no engine context.
	"DLVALUE": func(_ *Txn, args []Value) (Value, error) {
		if len(args) != 1 || args[0].K != KindString {
			return Value{}, errors.New("DLVALUE takes one VARCHAR argument")
		}
		l, err := dlParse(args[0].S)
		if err != nil {
			return Value{}, err
		}
		return l, nil
	},
	"DLURLPATHONLY": func(_ *Txn, args []Value) (Value, error) {
		l, err := oneLinkArg(args)
		if err != nil {
			return Value{}, err
		}
		return Str(l.L.Path), nil
	},
	"DLURLSERVER": func(_ *Txn, args []Value) (Value, error) {
		l, err := oneLinkArg(args)
		if err != nil {
			return Value{}, err
		}
		return Str(l.L.Server), nil
	},
	"DLURLSCHEME": func(_ *Txn, args []Value) (Value, error) {
		if _, err := oneLinkArg(args); err != nil {
			return Value{}, err
		}
		return Str("dlfs"), nil
	},
	// Without a DataLinks engine attached, DLURLCOMPLETE degrades to the bare
	// URL (no token). The engine overrides this registration.
	"DLURLCOMPLETE": func(_ *Txn, args []Value) (Value, error) {
		l, err := oneLinkArg(args)
		if err != nil {
			return Value{}, err
		}
		return Str(l.L.URL()), nil
	},
}

func oneLinkArg(args []Value) (Value, error) {
	if len(args) != 1 || args[0].K != KindLink {
		return Value{}, errors.New("function takes one DATALINK argument")
	}
	return args[0], nil
}

func dlParse(url string) (Value, error) {
	v, err := CoerceTo(Str(url), KindLink)
	if err != nil {
		return Value{}, err
	}
	return v, nil
}
