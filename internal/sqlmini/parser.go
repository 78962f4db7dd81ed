package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"datalinks/internal/datalink"
)

// ---- AST ----

// Stmt is any parsed SQL statement.
type Stmt interface{ stmt() }

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Name    string
	Columns []Column
}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct{ Name string }

// CreateIndexStmt is CREATE INDEX ON t (col).
type CreateIndexStmt struct {
	Table  string
	Column string
}

// InsertStmt is INSERT INTO t (cols) VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string // empty = all columns in order
	Rows    [][]Expr
}

// UpdateStmt is UPDATE t SET c=e,... [WHERE pred].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr // nil = all rows
}

// SetClause is one c = expr assignment.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM t [WHERE pred].
type DeleteStmt struct {
	Table string
	Where Expr
}

// SelectStmt is SELECT items FROM tables [WHERE] [ORDER BY] [LIMIT] [FOR UPDATE].
type SelectStmt struct {
	Items     []SelectItem
	Star      bool
	Tables    []string
	Where     Expr
	OrderBy   string
	OrderDesc bool
	Limit     int // -1 = none
	ForUpdate bool
}

// SelectItem is one projected expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

func (*CreateTableStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*CreateIndexStmt) stmt() {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*SelectStmt) stmt()      {}

// Expr is an expression tree node.
type Expr interface{ expr() }

// Lit is a literal value.
type Lit struct{ V Value }

// ColRef references a column, optionally table-qualified.
type ColRef struct{ Table, Name string }

// Param is a ? placeholder, bound positionally at execution.
type Param struct{ Idx int }

// Unary is NOT x or -x.
type Unary struct {
	Op string
	X  Expr
}

// Binary is a binary operator application.
type Binary struct {
	Op   string // = <> < <= > >= AND OR + - * / ||
	L, R Expr
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// Call is a scalar or aggregate function call. Star marks COUNT(*).
type Call struct {
	Name string
	Args []Expr
	Star bool
}

func (*Lit) expr()    {}
func (*ColRef) expr() {}
func (*Param) expr()  {}
func (*Unary) expr()  {}
func (*Binary) expr() {}
func (*IsNull) expr() {}
func (*Call) expr()   {}

// ---- Lexer ----

type tokKind uint8

const (
	tkEOF tokKind = iota
	tkIdent
	tkNumber
	tkString
	tkSymbol
)

type tok struct {
	kind tokKind
	text string // idents upper-cased; strings unquoted
	raw  string
}

type lexer struct {
	src  string
	pos  int
	toks []tok
}

func lex(src string) ([]tok, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, tok{kind: tkEOF})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			raw := l.src[start:l.pos]
			l.toks = append(l.toks, tok{kind: tkIdent, text: strings.ToUpper(raw), raw: raw})
		case c >= '0' && c <= '9':
			start := l.pos
			for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
				l.pos++
			}
			l.toks = append(l.toks, tok{kind: tkNumber, text: l.src[start:l.pos]})
		case c == '\'':
			l.pos++
			var sb strings.Builder
			for {
				if l.pos >= len(l.src) {
					return nil, fmt.Errorf("sqlmini: unterminated string literal")
				}
				if l.src[l.pos] == '\'' {
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
						sb.WriteByte('\'')
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				sb.WriteByte(l.src[l.pos])
				l.pos++
			}
			l.toks = append(l.toks, tok{kind: tkString, text: sb.String()})
		default:
			// multi-char symbols first
			two := ""
			if l.pos+1 < len(l.src) {
				two = l.src[l.pos : l.pos+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "||":
				l.toks = append(l.toks, tok{kind: tkSymbol, text: two})
				l.pos += 2
				continue
			}
			switch c {
			case '(', ')', ',', '=', '<', '>', '*', '+', '-', '/', '?', '.', ';':
				l.toks = append(l.toks, tok{kind: tkSymbol, text: string(c)})
				l.pos++
			default:
				return nil, fmt.Errorf("sqlmini: unexpected character %q", string(c))
			}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}
func isIdentPart(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

// ---- Parser ----

type parser struct {
	toks   []tok
	pos    int
	params int
}

// Parse turns one SQL statement into an AST. It reads no catalog and binds no
// placeholder (a ? becomes Param{Idx}, resolved at execution), so the AST is
// a function of the text alone.
func Parse(src string) (Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tkSymbol, ";")
	if !p.at(tkEOF, "") {
		return nil, fmt.Errorf("sqlmini: trailing input at %q", p.cur().text)
	}
	return st, nil
}

// stmtCache is a DB's parsed statements: Txn.Exec and Txn.Query parse a text
// once and execute the same AST ever after. Executors only read a Stmt, so
// one is shared by every transaction, and because Parse depends on nothing
// but the text, DDL invalidates nothing. The bounds are there for callers
// that put literals in the text (System.Exec takes user SQL): a full cache
// is emptied rather than policed, and a long text is never admitted.
type stmtCache struct {
	mu sync.Mutex
	m  map[string]Stmt
}

const (
	stmtCacheEntries = 512
	stmtCacheMaxText = 1024
)

// parse is Parse through the cache.
func (c *stmtCache) parse(src string) (Stmt, error) {
	c.mu.Lock()
	st, ok := c.m[src]
	c.mu.Unlock()
	if ok {
		return st, nil
	}
	st, err := Parse(src)
	if err != nil || len(src) > stmtCacheMaxText {
		return st, err
	}
	c.mu.Lock()
	if c.m == nil || len(c.m) >= stmtCacheEntries {
		c.m = make(map[string]Stmt)
	}
	c.m[src] = st
	c.mu.Unlock()
	return st, nil
}

func (p *parser) cur() tok { return p.toks[p.pos] }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (tok, error) {
	if p.at(kind, text) {
		t := p.cur()
		p.pos++
		return t, nil
	}
	return tok{}, fmt.Errorf("sqlmini: expected %q, found %q", text, p.cur().text)
}

func (p *parser) expectIdent() (tok, error) {
	if p.cur().kind == tkIdent {
		t := p.cur()
		p.pos++
		return t, nil
	}
	return tok{}, fmt.Errorf("sqlmini: expected identifier, found %q", p.cur().text)
}

func (p *parser) statement() (Stmt, error) {
	switch {
	case p.accept(tkIdent, "CREATE"):
		if p.accept(tkIdent, "TABLE") {
			return p.createTable()
		}
		if p.accept(tkIdent, "INDEX") {
			return p.createIndex()
		}
		return nil, fmt.Errorf("sqlmini: CREATE must be followed by TABLE or INDEX")
	case p.accept(tkIdent, "DROP"):
		if _, err := p.expect(tkIdent, "TABLE"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Name: name.raw}, nil
	case p.accept(tkIdent, "INSERT"):
		return p.insert()
	case p.accept(tkIdent, "UPDATE"):
		return p.update()
	case p.accept(tkIdent, "DELETE"):
		return p.delete()
	case p.accept(tkIdent, "SELECT"):
		return p.selectStmt()
	default:
		return nil, fmt.Errorf("sqlmini: unknown statement starting with %q", p.cur().text)
	}
}

func (p *parser) createTable() (Stmt, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	var cols []Column
	for {
		colName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typTok, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		col := Column{Name: colName.raw}
		switch typTok.text {
		case "INT", "INTEGER", "BIGINT":
			col.Kind = KindInt
		case "DOUBLE", "FLOAT", "REAL":
			col.Kind = KindFloat
		case "VARCHAR", "TEXT", "CHAR":
			col.Kind = KindString
			// optional (n)
			if p.accept(tkSymbol, "(") {
				if _, err := p.expect(tkNumber, ""); err == nil {
					if _, err := p.expect(tkSymbol, ")"); err != nil {
						return nil, err
					}
				} else {
					return nil, fmt.Errorf("sqlmini: VARCHAR length must be a number")
				}
			}
		case "BOOLEAN", "BOOL":
			col.Kind = KindBool
		case "TIMESTAMP", "DATETIME":
			col.Kind = KindTime
		case "DATALINK":
			col.Kind = KindLink
			col.DL = datalink.DefaultOptions
		default:
			return nil, fmt.Errorf("sqlmini: unknown type %q", typTok.raw)
		}
		// Column constraints / DATALINK options until , or )
		for {
			if p.accept(tkIdent, "PRIMARY") {
				if _, err := p.expect(tkIdent, "KEY"); err != nil {
					return nil, err
				}
				col.PrimaryKey = true
				col.NotNull = true
				continue
			}
			if p.accept(tkIdent, "NOT") {
				if _, err := p.expect(tkIdent, "NULL"); err != nil {
					return nil, err
				}
				col.NotNull = true
				continue
			}
			if col.Kind == KindLink && (p.at(tkIdent, "MODE") || p.at(tkIdent, "RECOVERY") || p.at(tkIdent, "TOKEN")) {
				// Collect option words until , or ) and hand to datalink.
				var words []string
				for !p.at(tkSymbol, ",") && !p.at(tkSymbol, ")") {
					t := p.cur()
					if t.kind != tkIdent && t.kind != tkNumber {
						return nil, fmt.Errorf("sqlmini: bad DATALINK option token %q", t.text)
					}
					words = append(words, t.text)
					p.pos++
				}
				opts, err := datalink.ParseColumnOptions(strings.Join(words, " "))
				if err != nil {
					return nil, err
				}
				col.DL = opts
				continue
			}
			break
		}
		cols = append(cols, col)
		if p.accept(tkSymbol, ",") {
			continue
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		break
	}
	return &CreateTableStmt{Name: name.raw, Columns: cols}, nil
}

func (p *parser) createIndex() (Stmt, error) {
	// CREATE INDEX [name] ON table (col) — the index name is optional noise.
	if !p.at(tkIdent, "ON") {
		if _, err := p.expectIdent(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tkIdent, "ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	col, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Table: table.raw, Column: col.raw}, nil
}

func (p *parser) insert() (Stmt, error) {
	if _, err := p.expect(tkIdent, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table.raw}
	if p.accept(tkSymbol, "(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c.raw)
			if p.accept(tkSymbol, ",") {
				continue
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if _, err := p.expect(tkIdent, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(tkSymbol, ",") {
				continue
			}
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			break
		}
		st.Rows = append(st.Rows, row)
		if p.accept(tkSymbol, ",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) update() (Stmt, error) {
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkIdent, "SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table.raw}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, SetClause{Column: col.raw, Value: e})
		if p.accept(tkSymbol, ",") {
			continue
		}
		break
	}
	if p.accept(tkIdent, "WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) delete() (Stmt, error) {
	if _, err := p.expect(tkIdent, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table.raw}
	if p.accept(tkIdent, "WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	st := &SelectStmt{Limit: -1}
	if p.accept(tkSymbol, "*") {
		st.Star = true
	} else {
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(tkIdent, "AS") {
				a, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = a.raw
			}
			st.Items = append(st.Items, item)
			if p.accept(tkSymbol, ",") {
				continue
			}
			break
		}
	}
	if _, err := p.expect(tkIdent, "FROM"); err != nil {
		return nil, err
	}
	for {
		t, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Tables = append(st.Tables, t.raw)
		if p.accept(tkSymbol, ",") {
			continue
		}
		break
	}
	if p.accept(tkIdent, "WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.accept(tkIdent, "ORDER") {
		if _, err := p.expect(tkIdent, "BY"); err != nil {
			return nil, err
		}
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.OrderBy = c.raw
		if p.accept(tkIdent, "DESC") {
			st.OrderDesc = true
		} else {
			p.accept(tkIdent, "ASC")
		}
	}
	if p.accept(tkIdent, "LIMIT") {
		n, err := p.expect(tkNumber, "")
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(n.text)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("sqlmini: bad LIMIT %q", n.text)
		}
		st.Limit = v
	}
	if p.accept(tkIdent, "FOR") {
		if _, err := p.expect(tkIdent, "UPDATE"); err != nil {
			return nil, err
		}
		st.ForUpdate = true
	}
	return st, nil
}

// ---- Expression parsing (precedence climbing) ----

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tkIdent, "OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tkIdent, "AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.accept(tkIdent, "NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.accept(tkIdent, "IS") {
		not := p.accept(tkIdent, "NOT")
		if _, err := p.expect(tkIdent, "NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Not: not}, nil
	}
	for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">"} {
		if p.accept(tkSymbol, op) {
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tkSymbol, "+"):
			op = "+"
		case p.accept(tkSymbol, "-"):
			op = "-"
		case p.accept(tkSymbol, "||"):
			op = "||"
		default:
			return l, nil
		}
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tkSymbol, "*"):
			op = "*"
		case p.accept(tkSymbol, "/"):
			op = "/"
		default:
			return l, nil
		}
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.accept(tkSymbol, "-") {
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tkNumber:
		p.pos++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlmini: bad number %q", t.text)
			}
			return &Lit{V: Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlmini: bad number %q", t.text)
		}
		return &Lit{V: Int(i)}, nil
	case t.kind == tkString:
		p.pos++
		return &Lit{V: Str(t.text)}, nil
	case p.accept(tkSymbol, "?"):
		e := &Param{Idx: p.params}
		p.params++
		return e, nil
	case p.accept(tkSymbol, "("):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tkIdent:
		switch t.text {
		case "NULL":
			p.pos++
			return &Lit{V: Null()}, nil
		case "TRUE":
			p.pos++
			return &Lit{V: Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &Lit{V: Bool(false)}, nil
		}
		p.pos++
		// function call?
		if p.accept(tkSymbol, "(") {
			call := &Call{Name: t.text}
			if p.accept(tkSymbol, "*") {
				call.Star = true
				if _, err := p.expect(tkSymbol, ")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if p.accept(tkSymbol, ")") {
				return call, nil
			}
			for {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.accept(tkSymbol, ",") {
					continue
				}
				if _, err := p.expect(tkSymbol, ")"); err != nil {
					return nil, err
				}
				break
			}
			return call, nil
		}
		// qualified column?
		if p.accept(tkSymbol, ".") {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: t.raw, Name: c.raw}, nil
		}
		return &ColRef{Name: t.raw}, nil
	default:
		return nil, fmt.Errorf("sqlmini: unexpected token %q in expression", t.text)
	}
}

func normalizeFnName(name string) string { return strings.ToUpper(strings.TrimSpace(name)) }
