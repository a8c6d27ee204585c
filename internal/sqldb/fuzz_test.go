package sqldb

import (
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
	db := New()
	db.MustExec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	db.MustExec("INSERT INTO t VALUES (1, 'x')")
	_, _ = db.Exec(sql)
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
