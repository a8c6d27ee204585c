package sqldb

import (
	"fmt"
	"slices"
	"strings"
)

// DB is an in-memory database. It is not safe for concurrent use: Exec
// parses into a statement the DB owns, so its callers must issue one query
// at a time.
type DB struct {
	tables map[string]*table

	// Exec's working state, reused by every query so that a point query
	// allocates only what it stores or returns. Exec leaves none of it
	// holding text of its query.
	stmt  stmts  // the statement Exec parses into
	where []cond // the WHERE clause, resolved against its table
	cols  []int  // SELECT's projection, or UPDATE's SET columns
	ids   []int  // the rows the WHERE clause matched
}

type table struct {
	name string
	cols []ColDef
	pk   int
	// rows holds row storage; deleted rows are nil.
	rows  [][]Value
	index *BTree
	live  int
}

// cond is a WHERE condition resolved against its table: the column's index,
// and the literal coerced to the column's kind.
type cond struct {
	ci  int
	op  string
	val Value
}

// Result carries statement output. It shares nothing with the DB or the
// query: a later statement never changes it.
type Result struct {
	Columns  []string
	Rows     [][]Value
	Affected int
}

// New creates an empty database.
func New() *DB { return &DB{tables: make(map[string]*table)} }

// Exec parses and executes one statement. The statement's names slice sql
// and its text literals are copies; the executor copies the names the DB
// keeps (a new table's name and columns), and Exec then empties the
// statement, so the DB does not keep sql alive.
func (db *DB) Exec(sql string) (*Result, error) {
	defer db.release()
	st, err := parse(sql, &db.stmt)
	if err != nil {
		return nil, err
	}
	return db.execStmt(st)
}

// release empties Exec's working state of the query it ran.
func (db *DB) release() {
	db.stmt.reset()
	db.where = emptied(db.where)
}

// MustExec is Exec for statements that must succeed (setup code).
func (db *DB) MustExec(sql string) *Result {
	r, err := db.Exec(sql)
	if err != nil {
		panic(err)
	}
	return r
}

// execStmt executes a parsed statement. It may rewrite the statement's
// UPDATE values in place.
func (db *DB) execStmt(st Stmt) (*Result, error) {
	switch s := st.(type) {
	case *CreateStmt:
		return db.execCreate(s)
	case *InsertStmt:
		return db.execInsert(s)
	case *SelectStmt:
		return db.execSelect(s)
	case *UpdateStmt:
		return db.execUpdate(s)
	case *DeleteStmt:
		return db.execDelete(s)
	}
	return nil, fmt.Errorf("sqldb: unknown statement type %T", st)
}

func (db *DB) table(name string) (*table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("sqldb: no such table %q", name)
	}
	return t, nil
}

func (t *table) colIndex(name string) (int, error) {
	for i, c := range t.cols {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sqldb: table %s has no column %q", t.name, name)
}

func (db *DB) execCreate(s *CreateStmt) (*Result, error) {
	if _, exists := db.tables[s.Table]; exists {
		return nil, fmt.Errorf("sqldb: table %q already exists", s.Table)
	}
	if len(s.Cols) == 0 {
		return nil, fmt.Errorf("sqldb: table needs at least one column")
	}
	seen := map[string]bool{}
	for _, c := range s.Cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("sqldb: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	cols := make([]ColDef, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = ColDef{Name: strings.Clone(c.Name), Kind: c.Kind}
	}
	name := strings.Clone(s.Table)
	db.tables[name] = &table{name: name, cols: cols, pk: s.PK, index: NewBTree()}
	return &Result{}, nil
}

func (db *DB) execInsert(s *InsertStmt) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	row := make([]Value, len(t.cols))
	for i := range row {
		row[i] = Null()
	}
	if len(s.Cols) == 0 {
		if len(s.Vals) != len(t.cols) {
			return nil, fmt.Errorf("sqldb: %d values for %d columns", len(s.Vals), len(t.cols))
		}
		for i, v := range s.Vals {
			if row[i], err = coerce(v, t.cols[i].Kind); err != nil {
				return nil, err
			}
		}
	} else {
		if len(s.Cols) != len(s.Vals) {
			return nil, fmt.Errorf("sqldb: %d columns but %d values", len(s.Cols), len(s.Vals))
		}
		for i, cn := range s.Cols {
			ci, err := t.colIndex(cn)
			if err != nil {
				return nil, err
			}
			if row[ci], err = coerce(s.Vals[i], t.cols[ci].Kind); err != nil {
				return nil, err
			}
		}
	}
	key := row[t.pk]
	if key.Kind == KNull {
		return nil, fmt.Errorf("sqldb: NULL primary key")
	}
	if _, exists := t.index.Get(key); exists {
		return nil, fmt.Errorf("sqldb: duplicate primary key %s", key)
	}
	t.rows = append(t.rows, row)
	t.index.Set(key, len(t.rows)-1)
	t.live++
	return &Result{Affected: 1}, nil
}

// matchRows returns the ids of the rows satisfying the conjunctive
// conditions, using the primary-key index for point and range predicates on
// the PK. The ids are db.ids, valid until the next statement.
func (db *DB) matchRows(t *table, where []Cond) ([]int, error) {
	db.where = db.where[:0]
	for _, c := range where {
		ci, err := t.colIndex(c.Col)
		if err != nil {
			return nil, err
		}
		v, err := coerce(c.Val, t.cols[ci].Kind)
		if err != nil {
			return nil, err
		}
		db.where = append(db.where, cond{ci: ci, op: c.Op, val: v})
	}
	conds := db.where
	db.ids = db.ids[:0]

	// Index path: an equality on the PK resolves to at most one row.
	for _, c := range conds {
		if c.ci == t.pk && c.op == "=" {
			if id, ok := t.index.Get(c.val); ok && matches(t.rows[id], conds) {
				db.ids = append(db.ids, id)
			}
			return db.ids, nil
		}
	}
	// Index path: PK range predicates bound an ordered scan.
	var lo, hi *Value
	ranged := false
	for i := range conds {
		c := &conds[i]
		if c.ci != t.pk {
			continue
		}
		switch c.op {
		case ">", ">=":
			lo, ranged = &c.val, true
		case "<", "<=":
			hi, ranged = &c.val, true
		}
	}
	if ranged {
		t.index.ScanRange(lo, hi, func(_ Value, id int) bool {
			if matches(t.rows[id], conds) {
				db.ids = append(db.ids, id)
			}
			return true
		})
		return db.ids, nil
	}
	// Full scan.
	for id, row := range t.rows {
		if matches(row, conds) {
			db.ids = append(db.ids, id)
		}
	}
	return db.ids, nil
}

// matches reports whether row is live and satisfies every condition.
func matches(row []Value, conds []cond) bool {
	if row == nil {
		return false
	}
	for _, c := range conds {
		if !evalCond(row[c.ci], c.op, c.val) {
			return false
		}
	}
	return true
}

func evalCond(a Value, op string, b Value) bool {
	if a.Kind == KNull || b.Kind == KNull {
		return false // SQL three-valued logic: NULL compares unknown
	}
	c := Compare(a, b)
	switch op {
	case "=":
		return c == 0
	case "<":
		return c < 0
	case ">":
		return c > 0
	case "<=":
		return c <= 0
	case ">=":
		return c >= 0
	case "!=", "<>":
		return c != 0
	}
	return false
}

func (db *DB) execSelect(s *SelectStmt) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	ids, err := db.matchRows(t, s.Where)
	if err != nil {
		return nil, err
	}
	if s.Count {
		return &Result{Columns: []string{"COUNT(*)"}, Rows: [][]Value{{Int(int64(len(ids)))}}}, nil
	}
	// Projection; no columns named means *.
	proj := db.cols[:0]
	if len(s.Cols) == 0 {
		for i := range t.cols {
			proj = append(proj, i)
		}
	} else {
		for _, cn := range s.Cols {
			ci, err := t.colIndex(cn)
			if err != nil {
				return nil, err
			}
			proj = append(proj, ci)
		}
	}
	db.cols = proj
	if s.OrderBy != "" {
		oi, err := t.colIndex(s.OrderBy)
		if err != nil {
			return nil, err
		}
		slices.SortStableFunc(ids, func(a, b int) int {
			c := Compare(t.rows[a][oi], t.rows[b][oi])
			if s.Desc {
				return -c
			}
			return c
		})
	}
	if s.Limit >= 0 && len(ids) > s.Limit {
		ids = ids[:s.Limit]
	}
	// The names are the table's and the cells are copies of the stored
	// values, so the result shares no memory with the query.
	res := &Result{Columns: make([]string, len(proj))}
	for i, ci := range proj {
		res.Columns[i] = t.cols[ci].Name
	}
	if len(ids) > 0 {
		n := len(proj)
		cells := make([]Value, len(ids)*n)
		res.Rows = make([][]Value, len(ids))
		for r, id := range ids {
			out := cells[r*n : (r+1)*n : (r+1)*n]
			for i, ci := range proj {
				out[i] = t.rows[id][ci]
			}
			res.Rows[r] = out
		}
	}
	return res, nil
}

func (db *DB) execUpdate(s *UpdateStmt) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	ids, err := db.matchRows(t, s.Where)
	if err != nil {
		return nil, err
	}
	// Resolve every SET before changing a row.
	cols := db.cols[:0]
	for i, set := range s.Sets {
		ci, err := t.colIndex(set.Col)
		if err != nil {
			return nil, err
		}
		v, err := coerce(set.Val, t.cols[ci].Kind)
		if err != nil {
			return nil, err
		}
		s.Sets[i].Val = v
		cols = append(cols, ci)
	}
	db.cols = cols
	for _, id := range ids {
		for i, ci := range cols {
			v := s.Sets[i].Val
			if ci == t.pk {
				// Primary-key update: maintain the index.
				old := t.rows[id][t.pk]
				if Compare(old, v) != 0 {
					if _, exists := t.index.Get(v); exists {
						return nil, fmt.Errorf("sqldb: duplicate primary key %s", v)
					}
					t.index.Delete(old)
					t.index.Set(v, id)
				}
			}
			t.rows[id][ci] = v
		}
	}
	return &Result{Affected: len(ids)}, nil
}

func (db *DB) execDelete(s *DeleteStmt) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	ids, err := db.matchRows(t, s.Where)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		t.index.Delete(t.rows[id][t.pk])
		t.rows[id] = nil
		t.live--
	}
	return &Result{Affected: len(ids)}, nil
}

// NumRows reports the live row count of a table (tests, stats).
func (db *DB) NumRows(tableName string) (int, error) {
	t, err := db.table(tableName)
	if err != nil {
		return 0, err
	}
	return t.live, nil
}
