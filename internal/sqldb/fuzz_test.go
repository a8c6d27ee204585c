package sqldb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// The parser and executor must never panic, whatever bytes arrive — they
// sit on the enclave service's untrusted input path.

func mustNotPanic(t *testing.T, sql string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic on %q: %v", sql, r)
		}
	}()
	_, _ = preloaded().Exec(sql)
}

// preloaded returns the database the robustness checks run their input
// against: table t with four rows, neither their keys nor their values in
// insertion order, one value NULL.
func preloaded() *DB {
	db := New()
	db.MustExec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	db.MustExec("INSERT INTO t VALUES (3, 'x')")
	db.MustExec("INSERT INTO t VALUES (1, 'z')")
	db.MustExec("INSERT INTO t VALUES (4, NULL)")
	db.MustExec("INSERT INTO t VALUES (2, 'y')")
	return db
}

// robustnessCorpus is hostile input the parser and executor must survive;
// the golden test also pins what the parser makes of each entry.
var robustnessCorpus = []string{
	"", ";", "''", "'", "SELECT", "SELECT *", "SELECT * FROM",
	"SELECT * FROM t WHERE", "SELECT * FROM t WHERE id =",
	"SELECT * FROM t WHERE id = 'unterminated",
	"INSERT INTO t VALUES", "INSERT INTO t VALUES (",
	"INSERT INTO t VALUES ()", "INSERT INTO t (",
	"CREATE TABLE", "CREATE TABLE x", "CREATE TABLE x (",
	"CREATE TABLE x (y)", "CREATE TABLE x (y BLOB)",
	"UPDATE", "UPDATE t", "UPDATE t SET", "UPDATE t SET v",
	"DELETE", "DELETE FROM", "DELETE t",
	"SELECT COUNT( FROM t", "SELECT COUNT(*) FROM t WHERE id !",
	"SELECT * FROM t ORDER", "SELECT * FROM t ORDER BY",
	"SELECT * FROM t LIMIT", "SELECT * FROM t LIMIT LIMIT",
	"\x00\x01\x02", "🙂 FROM t", "--", "/* comment */ SELECT 1",
	"SELECT * FROM t WHERE id = 99999999999999999999999999",
	"SELECT * FROM t WHERE id = 1e999",
	"INSERT INTO t VALUES (1, '" + strings.Repeat("a", 100000) + "')",
	strings.Repeat("(", 10000),
	"SELECT " + strings.Repeat("a,", 5000) + "b FROM t",
}

func TestParserRobustnessCorpus(t *testing.T) {
	for _, sql := range robustnessCorpus {
		mustNotPanic(t, sql)
	}
}

func TestParserRobustnessRandom(t *testing.T) {
	f := func(b []byte) bool {
		db := New()
		db.MustExec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
		func() {
			defer func() { _ = recover() }() // a panic fails via the outer check
			_, _ = db.Exec(string(b))
		}()
		// The table must still work after any garbage input.
		if _, err := db.Exec("INSERT INTO t VALUES (1, 'ok')"); err != nil {
			return false
		}
		r, err := db.Exec("SELECT v FROM t WHERE id = 1")
		return err == nil && len(r.Rows) == 1 && r.Rows[0][0].S == "ok"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: quickRand(t)}); err != nil {
		t.Error(err)
	}
}

// TestParserRandomTokens assembles random sequences of legal tokens, which
// reach deeper parser states than raw bytes.
func TestParserRandomTokens(t *testing.T) {
	tokens := []string{
		"SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "TABLE", "FROM",
		"WHERE", "INTO", "VALUES", "SET", "AND", "ORDER", "BY", "LIMIT",
		"COUNT", "PRIMARY", "KEY", "INT", "TEXT", "FLOAT", "NULL",
		"t", "id", "v", "*", "(", ")", ",", ";", "=", "<", ">", "<=",
		">=", "!=", "<>", "1", "2.5", "'str'", "-3",
	}
	f := func(picks []uint8) bool {
		var parts []string
		for _, p := range picks {
			parts = append(parts, tokens[int(p)%len(tokens)])
		}
		sql := strings.Join(parts, " ")
		panicked := false
		func() {
			defer func() {
				if recover() != nil {
					panicked = true
					t.Logf("panic on %q", sql)
				}
			}()
			db := New()
			db.MustExec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
			_, _ = db.Exec(sql)
		}()
		return !panicked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500, Rand: quickRand(t)}); err != nil {
		t.Error(err)
	}
}

// FuzzParse feeds the parser arbitrary bytes, as the enclave service's
// untrusted input path does. Parse must not panic; an accepted statement's
// FormatStmt text must parse again, and formatting that second parse must
// give the same text, so one rewrite reaches a fixed point.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(sql)
		if err != nil {
			return
		}
		text, err := FormatStmt(st)
		if err != nil {
			t.Fatalf("format %q: %v", sql, err)
		}
		st2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse %q (formatted from %q): %v", text, sql, err)
		}
		text2, err := FormatStmt(st2)
		if err != nil {
			t.Fatalf("format reparsed %q: %v", text, err)
		}
		if text2 != text {
			t.Fatalf("format is not a fixed point: %q, then %q (from %q)", text, text2, sql)
		}
	})
}

// execPairs are query pairs whose second query reads differently if the
// first leaves a field behind in Exec's reused statement or scratch: a
// projection, COUNT, ORDER BY, DESC or LIMIT, a WHERE clause, INSERT
// columns, SET pairs, or a primary-key column, left by a query that
// succeeded or by one that failed part-way.
var execPairs = [][2]string{
	{"SELECT COUNT(*) FROM t WHERE v != 'x' ORDER BY id DESC LIMIT 1", "SELECT * FROM t"},
	{"SELECT v FROM t WHERE id > 1 ORDER BY v", "SELECT * FROM t"},
	{"SELECT v, id FROM t WHERE id < 4 ORDER BY v DESC LIMIT", "SELECT * FROM t WHERE id >= 2"},
	{"INSERT INTO t (v, id) VALUES ('q', 7)", "INSERT INTO t VALUES (8, 'r')"},
	{"INSERT INTO t (v, id) VALUES ('q', 1)", "INSERT INTO t VALUES (9, 'p')"},
	{"UPDATE t SET v = 'w', id = 9 WHERE id = 1", "UPDATE t SET v = 'u'"},
	{"UPDATE t SET v = 'w' WHERE v = 'y' AND nope = 1", "UPDATE t SET v = 'u' WHERE id > 2"},
	{"DELETE FROM t WHERE id = 2", "DELETE FROM t"},
	{"CREATE TABLE u (a TEXT, b INT PRIMARY KEY)", "CREATE TABLE w (c INT, d TEXT)"},
	{"CREATE TABLE t (a INT PRIMARY KEY)", "CREATE TABLE w (c INT)"},
}

// FuzzExec checks DB.Exec, which parses each query into the statement the
// DB reuses, against Parse, whose statement is new, and the statement
// executor on a twin database. It runs two queries, so what the first
// leaves behind in the reused statement or scratch shows in the second.
// Both queries must return equal Results and error texts, and the two
// databases must end with equal tables.
func FuzzExec(f *testing.F) {
	seeds := append(append([]string{}, robustnessCorpus...), goldenCases...)
	for i, sql := range seeds {
		f.Add(sql, seeds[(i+1)%len(seeds)])
	}
	for _, pair := range execPairs {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		db, twin := preloaded(), preloaded()
		for _, sql := range []string{a, b} {
			got, gotErr := db.Exec(sql)
			var want *Result
			st, wantErr := Parse(sql)
			if wantErr == nil {
				want, wantErr = twin.execStmt(st)
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%q then %q: Exec of %q fails with %v, Parse and execStmt with %v", a, b, sql, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q then %q: Exec of %q returns %#v, Parse and execStmt %#v", a, b, sql, got, want)
			}
		}
		if !reflect.DeepEqual(db.tables, twin.tables) {
			t.Fatalf("%q then %q: the tables differ after Exec and after Parse and execStmt", a, b)
		}
	})
}
