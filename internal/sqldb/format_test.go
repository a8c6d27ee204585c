package sqldb

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFormatRoundTrip(t *testing.T) {
	cases := []string{
		"CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score FLOAT)",
		"INSERT INTO t VALUES (1, 'a''b', 2.5)",
		"INSERT INTO t (id, name) VALUES (1, 'x')",
		"SELECT * FROM t",
		"SELECT COUNT(*) FROM t WHERE id > 3",
		"SELECT name, score FROM t WHERE id >= 1 AND name != 'q' ORDER BY score DESC LIMIT 5",
		"UPDATE t SET name = 'y', score = 1.0 WHERE id = 2",
		"DELETE FROM t WHERE score <= 0.5",
	}
	for _, sql := range cases {
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		out, err := FormatStmt(st)
		if err != nil {
			t.Fatalf("format %q: %v", sql, err)
		}
		st2, err := Parse(out)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", out, sql, err)
		}
		out2, err := FormatStmt(st2)
		if err != nil {
			t.Fatal(err)
		}
		if out != out2 {
			t.Fatalf("format not a fixed point: %q vs %q", out, out2)
		}
	}
}

// Property: formatting any INSERT with arbitrary text survives a
// parse/format round trip with the value intact.
func TestFormatTextProperty(t *testing.T) {
	f := func(s string) bool {
		// The lexer operates on bytes; restrict to valid single-byte text.
		clean := make([]byte, 0, len(s))
		for _, b := range []byte(s) {
			if b >= 0x20 && b < 0x7f {
				clean = append(clean, b)
			}
		}
		st := &InsertStmt{Table: "t", Vals: []Value{Int(1), Text(string(clean))}}
		sql, err := FormatStmt(st)
		if err != nil {
			return false
		}
		back, err := Parse(sql)
		if err != nil {
			return false
		}
		ins, ok := back.(*InsertStmt)
		return ok && len(ins.Vals) == 2 && ins.Vals[1].S == string(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFormatGrowsToExactLength checks that the size FormatStmt grows its
// builder to, stmtLen, is the length of the text it writes: for every
// statement the golden corpus parses, and for hand-built ones the parser
// never makes.
func TestFormatGrowsToExactLength(t *testing.T) {
	stmts := []Stmt{
		&CreateStmt{Table: "t", Cols: []ColDef{{"a", KInt}, {"b", KNull}, {"c", Kind(9)}}, PK: 5},
		&InsertStmt{Table: "t", Cols: []string{}, Vals: []Value{
			Int(math.MinInt64), Float(math.NaN()), Float(math.Inf(-1)), Float(-math.MaxFloat64),
			Float(5e-324), Float(math.Copysign(0, -1)), Float(1e21), Text(""), Text("''"), {Kind: Kind(9)},
		}},
		&SelectStmt{Table: "t", Cols: []string{}, Limit: math.MaxInt},
		&SelectStmt{Table: "t", Count: true, OrderBy: "a", Desc: true, Limit: 0},
		&UpdateStmt{Table: "t"},
		&DeleteStmt{Table: "t", Where: []Cond{{Col: "a", Op: "<>", Val: Text("it's")}, {Col: "b", Op: "=", Val: Null()}}},
	}
	for _, sql := range goldenInputs() {
		if st, err := Parse(sql); err == nil {
			stmts = append(stmts, st)
		}
	}
	for _, st := range stmts {
		text, err := FormatStmt(st)
		if err != nil {
			t.Fatalf("%#v: %v", st, err)
		}
		if n := stmtLen(st); n != len(text) {
			t.Errorf("FormatStmt grows to %d bytes and writes %d: %q", n, len(text), text)
		}
	}
}
