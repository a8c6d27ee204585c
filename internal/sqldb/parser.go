package sqldb

import "fmt"

// AST node types.

// ColDef declares one column.
type ColDef struct {
	Name string
	Kind Kind
}

// Cond is one conjunct of a WHERE clause: column OP literal.
type Cond struct {
	Col string
	Op  string // = < > <= >= != <>
	Val Value
}

// CreateStmt is CREATE TABLE.
type CreateStmt struct {
	Table string
	Cols  []ColDef
	// PK is the primary-key column index (first column when undeclared).
	PK int
}

// InsertStmt is INSERT INTO ... VALUES.
type InsertStmt struct {
	Table string
	Cols  []string // empty: positional
	Vals  []Value
}

// SelectStmt is SELECT.
type SelectStmt struct {
	Table   string
	Cols    []string // nil: *
	Count   bool     // SELECT COUNT(*)
	Where   []Cond
	OrderBy string
	Desc    bool
	Limit   int // -1: none
}

// UpdateStmt is UPDATE ... SET.
type UpdateStmt struct {
	Table string
	Sets  []struct {
		Col string
		Val Value
	}
	Where []Cond
}

// DeleteStmt is DELETE FROM.
type DeleteStmt struct {
	Table string
	Where []Cond
}

// Stmt is any parsed statement.
type Stmt interface{ stmt() }

func (*CreateStmt) stmt() {}
func (*InsertStmt) stmt() {}
func (*SelectStmt) stmt() {}
func (*UpdateStmt) stmt() {}
func (*DeleteStmt) stmt() {}

// parser reads one token ahead: tok is the current token, and off is the
// offset just past it in src.
type parser struct {
	src string
	off int
	tok token
	// lexErr is the first lex error; tok stays tkEOF from there on.
	lexErr error
	// into, when set, holds the statements to parse into; otherwise each
	// statement is new.
	into *stmts
}

// stmts holds one statement of each kind for DB.Exec to parse into, so a
// query reuses the slices an earlier one grew.
type stmts struct {
	create CreateStmt
	insert InsertStmt
	sel    SelectStmt
	update UpdateStmt
	del    DeleteStmt
}

// reset empties every statement in s, keeping its slices' capacity, so s
// holds no text of the query parsed into it.
func (s *stmts) reset() {
	s.create = CreateStmt{Cols: emptied(s.create.Cols)}
	s.insert = InsertStmt{Cols: emptied(s.insert.Cols), Vals: emptied(s.insert.Vals)}
	s.sel = SelectStmt{Cols: emptied(s.sel.Cols), Where: emptied(s.sel.Where)}
	s.update = UpdateStmt{Sets: emptied(s.update.Sets), Where: emptied(s.update.Where)}
	s.del = DeleteStmt{Where: emptied(s.del.Where)}
}

// emptied zeroes the elements of s and returns it with length 0.
func emptied[S ~[]E, E any](s S) S {
	clear(s)
	return s[:0]
}

// newOrReused returns the statement to fill: into's statement of its kind,
// which reused picks, or a new one when the parser has no into.
func newOrReused[T any](p *parser, reused func(*stmts) *T) *T {
	if p.into == nil {
		return new(T)
	}
	return reused(p.into)
}

// Parse compiles one SQL statement into a new statement. Its text literals
// are copies, so a value kept from it does not keep sql alive; its names
// slice sql.
func Parse(sql string) (Stmt, error) {
	return parse(sql, nil)
}

// parse compiles sql into a new statement, or, when into is set, into the
// statement of its kind there.
func parse(sql string, into *stmts) (Stmt, error) {
	p := parser{src: sql, into: into}
	p.advance()
	var (
		st  Stmt
		err error
	)
	switch {
	case p.acceptKw("CREATE"):
		st, err = p.parseCreate()
	case p.acceptKw("INSERT"):
		st, err = p.parseInsert()
	case p.acceptKw("SELECT"):
		st, err = p.parseSelect()
	case p.acceptKw("UPDATE"):
		st, err = p.parseUpdate()
	case p.acceptKw("DELETE"):
		st, err = p.parseDelete()
	default:
		err = fmt.Errorf("sqldb: expected statement, got %q", p.tok.text)
	}
	if err == nil {
		p.acceptPunct(";")
		if p.tok.kind != tkEOF {
			err = fmt.Errorf("sqldb: trailing input at %q", p.tok.text)
		}
	}
	// A lex error anywhere in the input beats a parse error, as if the
	// whole statement were lexed before parsing.
	if lexErr := p.firstLexErr(); lexErr != nil {
		return nil, lexErr
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// advance moves to the next token.
func (p *parser) advance() {
	if p.lexErr != nil {
		return
	}
	tok, off, err := scan(p.src, p.off)
	if err != nil {
		p.lexErr, p.tok = err, token{kind: tkEOF}
		return
	}
	p.tok, p.off = tok, off
}

// firstLexErr returns the lex error advance stopped at, or else the first
// one in the input past the current token.
func (p *parser) firstLexErr() error {
	if p.lexErr != nil {
		return p.lexErr
	}
	for off := p.off; ; {
		tok, next, err := scan(p.src, off)
		if err != nil || tok.kind == tkEOF {
			return err
		}
		off = next
	}
}

func (p *parser) acceptKw(kw string) bool {
	if p.tok.kind == tkKeyword && p.tok.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return fmt.Errorf("sqldb: expected %s, got %q", kw, p.tok.text)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if p.tok.kind == tkPunct && p.tok.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return fmt.Errorf("sqldb: expected %q, got %q", s, p.tok.text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	if p.tok.kind != tkIdent {
		return "", fmt.Errorf("sqldb: expected identifier, got %q", p.tok.text)
	}
	name := p.tok.text
	p.advance()
	return name, nil
}

func (p *parser) literal() (Value, error) {
	t := p.tok
	switch t.kind {
	case tkInt:
		p.advance()
		return Int(t.i), nil
	case tkFloat:
		p.advance()
		return Float(t.f), nil
	case tkString:
		p.advance()
		return Text(t.text), nil
	case tkKeyword:
		if t.text == "NULL" {
			p.advance()
			return Null(), nil
		}
	}
	return Value{}, fmt.Errorf("sqldb: expected literal, got %q", t.text)
}

func (p *parser) parseCreate() (Stmt, error) {
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	st := newOrReused(p, func(s *stmts) *CreateStmt { return &s.create })
	st.Table = name
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		var kind Kind
		switch {
		case p.acceptKw("INT"), p.acceptKw("INTEGER"):
			kind = KInt
		case p.acceptKw("FLOAT"), p.acceptKw("REAL"):
			kind = KFloat
		case p.acceptKw("TEXT"), p.acceptKw("VARCHAR"):
			kind = KText
			if p.acceptPunct("(") { // VARCHAR(n): size ignored
				if _, err := p.literal(); err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("sqldb: unknown column type %q", p.tok.text)
		}
		if p.acceptKw("PRIMARY") {
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			st.PK = len(st.Cols)
		}
		st.Cols = append(st.Cols, ColDef{Name: col, Kind: kind})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	return st, p.expectPunct(")")
}

func (p *parser) parseInsert() (Stmt, error) {
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := newOrReused(p, func(s *stmts) *InsertStmt { return &s.insert })
	st.Table = name
	if p.acceptPunct("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		st.Vals = append(st.Vals, v)
		if !p.acceptPunct(",") {
			break
		}
	}
	return st, p.expectPunct(")")
}

// parseWhere appends the conditions of a WHERE clause, if one follows, to
// conds.
func (p *parser) parseWhere(conds []Cond) ([]Cond, error) {
	if !p.acceptKw("WHERE") {
		return conds, nil
	}
	for {
		col, err := p.ident()
		if err != nil {
			return conds, err
		}
		op := compareOp(p.tok)
		if op == "" {
			return conds, fmt.Errorf("sqldb: expected comparison operator, got %q", p.tok.text)
		}
		p.advance()
		v, err := p.literal()
		if err != nil {
			return conds, err
		}
		conds = append(conds, Cond{Col: col, Op: op, Val: v})
		if !p.acceptKw("AND") {
			break
		}
	}
	return conds, nil
}

// compareOps are the comparison operators a WHERE clause accepts.
var compareOps = [...]string{"=", "<", ">", "<=", ">=", "!=", "<>"}

// compareOp returns the operator t spells, from compareOps so a Cond never
// holds a slice of its query, or "" when t is not one.
func compareOp(t token) string {
	if t.kind == tkPunct {
		for _, op := range compareOps {
			if t.text == op {
				return op
			}
		}
	}
	return ""
}

func (p *parser) parseSelect() (Stmt, error) {
	st := newOrReused(p, func(s *stmts) *SelectStmt { return &s.sel })
	st.Limit = -1
	if p.acceptKw("COUNT") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if err := p.expectPunct("*"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		st.Count = true
	} else if !p.acceptPunct("*") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if st.Where, err = p.parseWhere(st.Where); err != nil {
		return nil, err
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		if st.OrderBy, err = p.ident(); err != nil {
			return nil, err
		}
		if p.acceptKw("DESC") {
			st.Desc = true
		} else {
			p.acceptKw("ASC")
		}
	}
	if p.acceptKw("LIMIT") {
		v, err := p.literal()
		if err != nil || v.Kind != KInt {
			return nil, fmt.Errorf("sqldb: LIMIT needs an integer")
		}
		st.Limit = int(v.I)
	}
	return st, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := newOrReused(p, func(s *stmts) *UpdateStmt { return &s.update })
	st.Table = name
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, struct {
			Col string
			Val Value
		}{col, v})
		if !p.acceptPunct(",") {
			break
		}
	}
	st.Where, err = p.parseWhere(st.Where)
	return st, err
}

func (p *parser) parseDelete() (Stmt, error) {
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := newOrReused(p, func(s *stmts) *DeleteStmt { return &s.del })
	st.Table = name
	st.Where, err = p.parseWhere(st.Where)
	return st, err
}
