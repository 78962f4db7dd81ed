package sqlmini

import (
	"errors"
	"fmt"
	"sort"
	"strings"
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
		return 0, t.execCreateTable(s)
	case *DropTableStmt:
		return 0, t.dropTable(s.Name)
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

func (t *Txn) execCreateTable(s *CreateTableStmt) error {
	seen := make(map[string]bool)
	pk := 0
	for _, c := range s.Columns {
		key := strings.ToLower(c.Name)
		if seen[key] {
			return fmt.Errorf("sqlmini: duplicate column %q", c.Name)
		}
		seen[key] = true
		if c.PrimaryKey {
			pk++
		}
		if c.Kind == KindLink && !c.DL.Mode.Valid() {
			return fmt.Errorf("sqlmini: invalid DATALINK mode on column %q", c.Name)
		}
	}
	if pk > 1 {
		return fmt.Errorf("sqlmini: at most one PRIMARY KEY column supported")
	}
	// The table keeps its own column slice: the statement may be a cached
	// one, shared with every other execution of the same text.
	return t.createTable(s.Name, append([]Column(nil), s.Columns...))
}

func (t *Txn) execCreateIndex(s *CreateIndexStmt) error {
	tbl, err := t.db.cat.get(s.Table)
	if err != nil {
		return err
	}
	return t.createIndex(tbl, s.Column)
}

// buildRow assembles a full-width row from an INSERT's column list.
func buildRow(tbl *Table, cols []string, vals []Value) (Row, error) {
	row := make(Row, len(tbl.Columns))
	if len(cols) == 0 {
		if len(vals) != len(tbl.Columns) {
			return nil, fmt.Errorf("sqlmini: %s has %d columns, %d values given", tbl.Name, len(tbl.Columns), len(vals))
		}
		copy(row, vals)
	} else {
		if len(cols) != len(vals) {
			return nil, fmt.Errorf("sqlmini: %d columns but %d values", len(cols), len(vals))
		}
		for i, c := range cols {
			ci := tbl.ColIndex(c)
			if ci < 0 {
				return nil, fmt.Errorf("sqlmini: no column %q in %s", c, tbl.Name)
			}
			row[ci] = vals[i]
		}
	}
	for i, c := range tbl.Columns {
		v, err := CoerceTo(row[i], c.Kind)
		if err != nil {
			return nil, fmt.Errorf("sqlmini: column %s: %w", c.Name, err)
		}
		row[i] = v
		if c.NotNull && row[i].IsNull() {
			return nil, fmt.Errorf("sqlmini: column %s is NOT NULL", c.Name)
		}
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
		vals := make([]Value, len(exprRow))
		for i, e := range exprRow {
			v, err := t.eval(e, nil, args)
			if err != nil {
				return n, err
			}
			vals[i] = v
		}
		row, err := buildRow(tbl, s.Columns, vals)
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
// simple equality predicates when available.
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
			v, err := t.eval(where, rowEnv(tbl, row), args)
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
		newRow := rows[i].Clone()
		for _, set := range s.Set {
			ci := tbl.ColIndex(set.Column)
			if ci < 0 {
				return n, fmt.Errorf("sqlmini: no column %q in %s", set.Column, s.Table)
			}
			v, err := t.eval(set.Value, rowEnv(tbl, rows[i]), args)
			if err != nil {
				return n, err
			}
			cv, err := CoerceTo(v, tbl.Columns[ci].Kind)
			if err != nil {
				return n, fmt.Errorf("sqlmini: column %s: %w", set.Column, err)
			}
			if tbl.Columns[ci].NotNull && cv.IsNull() {
				return n, fmt.Errorf("sqlmini: column %s is NOT NULL", set.Column)
			}
			newRow[ci] = cv
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

// env is the scope for expression evaluation: the current row of one table,
// chained to the rows of the tables before it in the FROM list. Column
// references resolve against the table's schema in place — no per-row name
// map is built.
type env struct {
	tbl  *Table
	row  Row
	next *env
}

func rowEnv(tbl *Table, row Row) *env { return &env{tbl: tbl, row: row} }

// lookup resolves a column reference, innermost (latest-joined) table first;
// a qualified reference only considers the table it names.
func (e *env) lookup(ref *ColRef) (Value, bool) {
	for ; e != nil; e = e.next {
		if ref.Table != "" && !strings.EqualFold(ref.Table, e.tbl.Name) {
			continue
		}
		if ci := e.tbl.ColIndex(ref.Name); ci >= 0 {
			return e.row[ci], true
		}
	}
	return Value{}, false
}

func (t *Txn) execSelect(s *SelectStmt, args []Value) (*Rows, error) {
	if len(s.Tables) == 0 {
		return nil, errors.New("sqlmini: SELECT needs FROM")
	}
	lockMode := LockS
	if s.ForUpdate {
		lockMode = LockX
	}
	// Gather the row sets of each table, then cross-join.
	type tableRows struct {
		tbl  *Table
		rows []Row
	}
	var sets []tableRows
	for i, name := range s.Tables {
		tbl, err := t.db.cat.get(name)
		if err != nil {
			return nil, err
		}
		// Push the WHERE down only for single-table queries; joins filter on
		// the joined row below.
		var where Expr
		if len(s.Tables) == 1 {
			where = s.Where
		}
		_, rows, err := t.matchRows(tbl, where, args, lockMode)
		if err != nil {
			return nil, err
		}
		sets = append(sets, tableRows{tbl: tbl, rows: rows})
		_ = i
	}

	// Build joined environments.
	var envs []*env
	var joinedRows [][]Row
	var build func(i int, acc *env, rowAcc []Row)
	build = func(i int, acc *env, rowAcc []Row) {
		if i == len(sets) {
			envs = append(envs, acc)
			joined := make([]Row, len(rowAcc))
			copy(joined, rowAcc)
			joinedRows = append(joinedRows, joined)
			return
		}
		for _, row := range sets[i].rows {
			build(i+1, &env{tbl: sets[i].tbl, row: row, next: acc}, append(rowAcc, row))
		}
	}
	build(0, nil, nil)

	// Join-level filtering for multi-table queries.
	if len(s.Tables) > 1 && s.Where != nil {
		var fe []*env
		var fr [][]Row
		for i, e := range envs {
			v, err := t.eval(s.Where, e, args)
			if err != nil {
				if errors.Is(err, errNullCompare) {
					continue
				}
				return nil, err
			}
			if v.K == KindBool && v.B {
				fe = append(fe, e)
				fr = append(fr, joinedRows[i])
			}
		}
		envs, joinedRows = fe, fr
	}

	// Column list for SELECT *.
	var out Rows
	if s.Star {
		for _, set := range sets {
			for _, c := range set.tbl.Columns {
				out.Cols = append(out.Cols, c.Name)
			}
		}
		for _, jr := range joinedRows {
			var row Row
			for _, r := range jr {
				row = append(row, r...)
			}
			out.Data = append(out.Data, row)
		}
	} else if isAggregate(s.Items) {
		row, err := t.evalAggregates(s.Items, envs, args)
		if err != nil {
			return nil, err
		}
		for i, item := range s.Items {
			out.Cols = append(out.Cols, itemName(item, i))
		}
		out.Data = append(out.Data, row)
		return &out, nil
	} else {
		for i, item := range s.Items {
			out.Cols = append(out.Cols, itemName(item, i))
		}
		for _, e := range envs {
			row := make(Row, len(s.Items))
			for i, item := range s.Items {
				v, err := t.eval(item.Expr, e, args)
				if err != nil {
					if errors.Is(err, errNullCompare) {
						v = Null()
					} else {
						return nil, err
					}
				}
				row[i] = v
			}
			out.Data = append(out.Data, row)
		}
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
	return &out, nil
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

func isAggregate(items []SelectItem) bool {
	for _, item := range items {
		if c, ok := item.Expr.(*Call); ok && aggregateNames[c.Name] {
			return true
		}
	}
	return false
}

func (t *Txn) evalAggregates(items []SelectItem, envs []*env, args []Value) (Row, error) {
	row := make(Row, len(items))
	for i, item := range items {
		c, ok := item.Expr.(*Call)
		if !ok || !aggregateNames[c.Name] {
			return nil, fmt.Errorf("sqlmini: mixing aggregates and plain columns needs GROUP BY (unsupported)")
		}
		var vals []Value
		for _, e := range envs {
			if c.Star {
				vals = append(vals, Int(1))
				continue
			}
			if len(c.Args) != 1 {
				return nil, fmt.Errorf("sqlmini: %s takes one argument", c.Name)
			}
			v, err := t.eval(c.Args[0], e, args)
			if err != nil {
				if errors.Is(err, errNullCompare) {
					continue
				}
				return nil, err
			}
			if !v.IsNull() {
				vals = append(vals, v)
			}
		}
		switch c.Name {
		case "COUNT":
			row[i] = Int(int64(len(vals)))
		case "SUM", "AVG":
			sum := 0.0
			isFloat := false
			for _, v := range vals {
				n, ok := v.numeric()
				if !ok {
					return nil, fmt.Errorf("sqlmini: %s over non-numeric value", c.Name)
				}
				if v.K == KindFloat {
					isFloat = true
				}
				sum += n
			}
			if c.Name == "AVG" {
				if len(vals) == 0 {
					row[i] = Null()
				} else {
					row[i] = Float(sum / float64(len(vals)))
				}
			} else if isFloat {
				row[i] = Float(sum)
			} else {
				row[i] = Int(int64(sum))
			}
		case "MIN", "MAX":
			if len(vals) == 0 {
				row[i] = Null()
				continue
			}
			best := vals[0]
			for _, v := range vals[1:] {
				cres, err := Compare(v, best)
				if err != nil {
					return nil, err
				}
				if (c.Name == "MIN" && cres < 0) || (c.Name == "MAX" && cres > 0) {
					best = v
				}
			}
			row[i] = best
		}
	}
	return row, nil
}

// eval evaluates an expression in an environment. A nil env means no columns
// are in scope (INSERT values).
func (t *Txn) eval(e Expr, scope *env, args []Value) (Value, error) {
	switch x := e.(type) {
	case *Lit:
		return x.V, nil
	case *Param:
		if x.Idx >= len(args) {
			return Value{}, fmt.Errorf("sqlmini: missing argument for placeholder %d", x.Idx+1)
		}
		return args[x.Idx], nil
	case *ColRef:
		if scope == nil {
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
		vals := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := t.eval(a, scope, args)
			if err != nil {
				return Value{}, err
			}
			vals[i] = v
		}
		return fn(t, vals)
	default:
		return Value{}, fmt.Errorf("sqlmini: unhandled expression %T", e)
	}
}

func (t *Txn) evalBinary(x *Binary, scope *env, args []Value) (Value, error) {
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

// registerBuiltins installs the default scalar function library.
func registerBuiltins(db *DB) {
	db.RegisterFn("LENGTH", func(_ *Txn, args []Value) (Value, error) {
		if len(args) != 1 {
			return Value{}, errors.New("LENGTH takes one argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Int(int64(len(args[0].String()))), nil
	})
	db.RegisterFn("UPPER", func(_ *Txn, args []Value) (Value, error) {
		if len(args) != 1 {
			return Value{}, errors.New("UPPER takes one argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Str(strings.ToUpper(args[0].String())), nil
	})
	db.RegisterFn("LOWER", func(_ *Txn, args []Value) (Value, error) {
		if len(args) != 1 {
			return Value{}, errors.New("LOWER takes one argument")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Str(strings.ToLower(args[0].String())), nil
	})
	db.RegisterFn("NOW", func(t *Txn, args []Value) (Value, error) {
		return Time(t.db.clock()), nil
	})
	// SQL/MED DATALINK scalar functions that need no engine context.
	db.RegisterFn("DLVALUE", func(_ *Txn, args []Value) (Value, error) {
		if len(args) != 1 || args[0].K != KindString {
			return Value{}, errors.New("DLVALUE takes one VARCHAR argument")
		}
		l, err := dlParse(args[0].S)
		if err != nil {
			return Value{}, err
		}
		return l, nil
	})
	db.RegisterFn("DLURLPATHONLY", func(_ *Txn, args []Value) (Value, error) {
		l, err := oneLinkArg(args)
		if err != nil {
			return Value{}, err
		}
		return Str(l.L.Path), nil
	})
	db.RegisterFn("DLURLSERVER", func(_ *Txn, args []Value) (Value, error) {
		l, err := oneLinkArg(args)
		if err != nil {
			return Value{}, err
		}
		return Str(l.L.Server), nil
	})
	db.RegisterFn("DLURLSCHEME", func(_ *Txn, args []Value) (Value, error) {
		if _, err := oneLinkArg(args); err != nil {
			return Value{}, err
		}
		return Str("dlfs"), nil
	})
	// Without a DataLinks engine attached, DLURLCOMPLETE degrades to the bare
	// URL (no token). The engine overrides this registration.
	db.RegisterFn("DLURLCOMPLETE", func(_ *Txn, args []Value) (Value, error) {
		l, err := oneLinkArg(args)
		if err != nil {
			return Value{}, err
		}
		return Str(l.L.URL()), nil
	})
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
