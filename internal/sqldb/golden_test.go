package sqldb

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden test pins the front end's observable behaviour: for every
// input, the AST Parse builds (printed with %#v) or its error text, and the
// FormatStmt text of an accepted statement. The file was recorded once and
// must be reproduced byte for byte; regenerate it with -update only when the
// accepted language or an error message changes on purpose.

var updateGolden = flag.Bool("update", false, "rewrite testdata/parse_golden.txt from the current parser")

const goldenPath = "testdata/parse_golden.txt"

// goldenInputCount is the corpus size: the robustness corpus, the
// hand-written cases below, then seeded mutations up to this count.
const goldenInputCount = 2000

// goldenCases are hand-picked edges: a parse error that comes before a lex
// error (the lex error must win, as when the whole statement was lexed
// first), lex errors where the parse would otherwise succeed, trailing
// input, keyword case and length, Latin-1 identifier bytes, and number and
// quote forms.
var goldenCases = []string{
	"SELECT FROM t !",
	"DELETE t 'unterminated",
	"FROM t !",
	"CREATE TABLE x (y BLOB) 1e999",
	"INSERT INTO t VALUES (1, 2 'x",
	"UPDATE t SET = 1 WHERE id = 99999999999999999999",
	"SELECT * FROM t WHERE id = 1 ORDER BY 5 \xd7",
	"SELECT * FROM t LIMIT 'x' !",
	"SELECT * FROM t ; SELECT !",
	"SELECT * FROM t extra @",
	"SELECT * FROM t ; ;",
	"SELECT * FROM t WHERE id = 1 !",
	"SELECT * FROM t !",
	"SELECT * FROM t WHERE id ! 1",
	"SELECT * FROM t WHERE id = 1 AND 'x",
	"SELECT a FROM t WHERE id = -",
	"SELECT a FROM t WHERE id = - 1",
	"SELECT * FROM t WHERE id = 1 -",
	"select * from t where id = 1;",
	"sElEcT CoUnT(*) fRoM t WhErE id <> 3 oRdEr By id DeSc LiMiT 2",
	"SELECTED * FROM t",
	"SELECT1 FROM t",
	"SELECT * FROM t LIMIT 5abc",
	"CREATE TABLE t (a integer primary key, b varchar(12), c real, d text)",
	"CREATE TABLE t (a INTEGERS)",
	"CREATE TABLE t (a VARCHAR(x))",
	"CREATE TABLE t (a VARCHAR('n'))",
	"CREATE TABLE t (a INT PRIMARY KEY, b INT PRIMARY KEY)",
	"CREATE TABLE t (a INT PRIMARY)",
	"SELECT caf\xe9 FROM t",
	"SELECT \xaa\xb5\xba FROM t",
	"SELECT \xc0\xd6\xd8\xf6\xf8\xff FROM \xdf",
	"SELECT a\xd7 FROM t",
	"SELECT a\xf7 FROM t",
	"SELECT\xe9 * FROM t",
	"SELECT * FROM t\xb5",
	"\xc4\xb1nt",
	"SELECT _ FROM _t_1",
	"SELECT * FROM t WHERE a = 1e5e5",
	"SELECT * FROM t WHERE a = 1-2",
	"SELECT * FROM t WHERE a = 1.e",
	"SELECT * FROM t WHERE a = 1e+5 AND b = 2E-3 AND c = -0.0",
	"SELECT * FROM t WHERE a = 1.2.3",
	"SELECT * FROM t WHERE a = 9223372036854775807 AND b = -9223372036854775808",
	"SELECT * FROM t WHERE a = 9223372036854775808",
	"SELECT * FROM t WHERE a = 1e-400",
	"SELECT * FROM t WHERE a = 00012",
	"INSERT INTO t VALUES ('a''b', '''', '''''', 'it''s', '')",
	"INSERT INTO t VALUES (''')",
	"INSERT INTO t VALUES ('x'' y') z",
	"INSERT INTO t VALUES (NULL, null, 'NULL')",
	"INSERT INTO t (a) VALUES (1, 2, 3)",
	"INSERT INTO t () VALUES (1)",
	"UPDATE t SET a = 1, b = 'two', c = 3.5, d = NULL",
	"UPDATE t SET a = 1 WHERE b >= 'x' AND c != 2 AND d <= 1.5",
	"DELETE FROM t",
	"DELETE FROM t WHERE a < 0;",
	"SELECT * FROM t WHERE a <= 1 AND b >= 2 AND c < 3 AND d > 4",
	"SELECT * FROM t WHERE a = = 1",
	"SELECT * FROM t WHERE a => 1",
	"SELECT * FROM t WHERE a =< 1",
	"SELECT * FROM t WHERE a >< 1",
	"SELECT * FROM t ORDER BY a ASC LIMIT -1",
	"SELECT * FROM t ORDER BY a ASC DESC",
	"SELECT * FROM t LIMIT 2.5",
	"SELECT COUNT(*) , a FROM t",
	"SELECT COUNT FROM t",
	"\tSELECT\n*\rFROM\r\nt\t",
	"SELECT * FROM t\x00",
	"SELECT * FROM t;\x01",
	"SELECT 'a' FROM t",
	"SELECT * FROM 't'",
	"SELECT * FROM t WHERE 'a' = 1",
	"SELECT * FROM t WHERE a = b",
	"SELECT * FROM t WHERE a = 1 AND",
	"SELECT * FROM t WHERE a = 1 OR b = 2",
	"UPDATE t SET a = 1 b = 2",
	"UPDATE t SET a 1",
	"UPDATE t WHERE a = 1",
	"DELETE FROM t WHERE",
	"DELETE FROM t, u",
	"CREATE t (a INT)",
	"CREATE TABLE (a INT)",
	"CREATE TABLE t a INT",
	"CREATE TABLE t (a INT,)",
	"CREATE TABLE t (a INT, b TEXT",
	"INSERT t VALUES (1)",
	"INSERT INTO t VALUES 1",
	"INSERT INTO t VALUES (1,)",
	"INSERT INTO t VALUES (1) ;",
	"KEY", "NULL", "AND", "*", "(", ")", ",", "=", "<", ">", "<=", ">=", "!=", "<>", "!",
}

// goldenSeeds are well-formed statements over the whole grammar, written
// with a space between tokens so mutate can work token by token.
var goldenSeeds = []string{
	"CREATE TABLE t ( id INT PRIMARY KEY , name TEXT , score FLOAT )",
	"CREATE TABLE usertable ( ycsb_key INTEGER PRIMARY KEY , field0 VARCHAR ( 100 ) )",
	"CREATE TABLE m ( a REAL , b INT , c TEXT PRIMARY KEY )",
	"INSERT INTO t VALUES ( 1 , 'alice' , 9.5 )",
	"INSERT INTO t ( id , name ) VALUES ( 2 , 'bob' )",
	"INSERT INTO usertable VALUES ( 17 , 'qwertyuiopasdfghjkl' )",
	"INSERT INTO m VALUES ( -3.25e2 , NULL , 'it''s' ) ;",
	"SELECT * FROM t",
	"SELECT * FROM t WHERE id = 1",
	"SELECT field0 FROM usertable WHERE ycsb_key = 42",
	"SELECT name , score FROM t WHERE id >= 1 AND name != 'q' ORDER BY score DESC LIMIT 5",
	"SELECT COUNT ( * ) FROM t WHERE id > 3",
	"SELECT ycsb_key , field0 FROM usertable WHERE ycsb_key >= 10 AND ycsb_key <= 20 ORDER BY ycsb_key",
	"SELECT a FROM m WHERE b <> 7 ORDER BY a ASC",
	"SELECT a FROM m WHERE c < 'z' AND b <= -1 LIMIT 0",
	"UPDATE t SET name = 'y' , score = 1.0 WHERE id = 2",
	"UPDATE usertable SET field0 = 'zxcvbnm' WHERE ycsb_key = 7",
	"UPDATE m SET b = NULL",
	"DELETE FROM t WHERE score <= 0.5",
	"DELETE FROM m",
	"DELETE FROM t WHERE id > 1 AND id < 9 ;",
}

var (
	goldenIdents   = []string{"t", "id", "x1", "_k", "Name", "caf\xe9", "\xc0\xff", "usertable", "selectx", "tableau"}
	goldenLiterals = []string{
		"0", "7", "-12", "9223372036854775807", "2.5", "-0.0", "1e3", "1.5E-3",
		"'x'", "''", "'it''s'", "'two words'", "'\xe9\x00'", "NULL",
	}
	goldenOps     = []string{"=", "<", ">", "<=", ">=", "!=", "<>"}
	goldenHostile = []string{
		"!", "'open", "1e999", "99999999999999999999", "\x00", "\xd7", "-", "--",
		"1.2.3", "1e", "1e+", "@", "\"", "`", "()", "COUNT(*)", "*", ";", ",",
		"(", ")", "WHERE", "AND", "FROM", "LIMIT", "PRIMARY", "SET", "=",
	}
	goldenSeps = []string{" ", " ", " ", " ", "\t", "\n", "\r\n", "  "}
)

// mutate applies one to three seeded edits to a seed statement. Most edits
// keep the statement well formed (re-cased keywords, other identifiers,
// literals and operators, other whitespace); the rest delete, duplicate,
// swap or insert tokens, or cut or corrupt bytes.
func mutate(rng *rand.Rand, seed string) string {
	toks := strings.Fields(seed)
	hostile := rng.Intn(100) < 55
	for n := 1 + rng.Intn(3); n > 0; n-- {
		i := rng.Intn(len(toks))
		tok := toks[i]
		switch rng.Intn(4) {
		case 0: // re-case a word
			switch rng.Intn(3) {
			case 0:
				toks[i] = strings.ToLower(tok)
			case 1:
				toks[i] = strings.ToUpper(tok)
			default:
				b := []byte(tok)
				for j := range b {
					if rng.Intn(2) == 0 && b[j] >= 'a' && b[j] <= 'z' {
						b[j] -= 'a' - 'A'
					} else if b[j] >= 'A' && b[j] <= 'Z' {
						b[j] += 'a' - 'A'
					}
				}
				toks[i] = string(b)
			}
		case 1: // swap an identifier, literal or operator for another
			switch c := tok[0]; {
			case c == '\'' || c == '-' || c >= '0' && c <= '9' || tok == "NULL":
				toks[i] = goldenLiterals[rng.Intn(len(goldenLiterals))]
			case strings.ContainsRune("=<>!", rune(c)):
				toks[i] = goldenOps[rng.Intn(len(goldenOps))]
			case tok == strings.ToLower(tok) && c != '(' && c != ')' && c != ',' && c != '*':
				toks[i] = goldenIdents[rng.Intn(len(goldenIdents))]
			}
		default: // keep the token
		}
	}
	if hostile {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			i := rng.Intn(len(toks))
			switch rng.Intn(4) {
			case 0:
				toks = append(toks[:i], toks[i+1:]...)
			case 1:
				toks = append(toks[:i+1], toks[i:]...)
			case 2:
				j := rng.Intn(len(toks))
				toks[i], toks[j] = toks[j], toks[i]
			default:
				toks = append(toks[:i+1], toks[i:]...)
				toks[i] = goldenHostile[rng.Intn(len(goldenHostile))]
			}
			if len(toks) == 0 {
				toks = []string{";"}
			}
		}
	}
	var b strings.Builder
	for i, tok := range toks {
		if i > 0 {
			b.WriteString(goldenSeps[rng.Intn(len(goldenSeps))])
		}
		b.WriteString(tok)
	}
	s := b.String()
	if hostile && rng.Intn(4) == 0 {
		switch i := rng.Intn(len(s) + 1); rng.Intn(3) {
		case 0: // cut
			s = s[:i]
		case 1: // insert a byte
			s = s[:i] + string([]byte{byte(rng.Intn(256))}) + s[i:]
		default: // overwrite a byte
			if i < len(s) {
				s = s[:i] + string([]byte{byte(rng.Intn(256))}) + s[i+1:]
			}
		}
	}
	return s
}

func goldenInputs() []string {
	inputs := append([]string(nil), robustnessCorpus...)
	inputs = append(inputs, goldenCases...)
	rng := rand.New(rand.NewSource(1))
	for len(inputs) < goldenInputCount {
		inputs = append(inputs, mutate(rng, goldenSeeds[rng.Intn(len(goldenSeeds))]))
	}
	return inputs
}

// goldenRecord renders one input's outcome as tagged lines. A line longer
// than 200 bytes is stored as its length and SHA-256, which keeps the file
// small while still pinning every byte.
func goldenRecord(sql string) (rec []string, accepted bool) {
	line := func(tag, text string) string {
		if len(text) > 200 {
			return fmt.Sprintf("%s #%d:%x", tag, len(text), sha256.Sum256([]byte(text)))
		}
		return tag + " " + text
	}
	rec = append(rec, line("in ", fmt.Sprintf("%q", sql)))
	st, err := Parse(sql)
	if err != nil {
		return append(rec, line("err", fmt.Sprintf("%q", err.Error()))), false
	}
	rec = append(rec, line("ast", fmt.Sprintf("%#v", st)))
	text, err := FormatStmt(st)
	if err != nil {
		return append(rec, line("fmt-err", fmt.Sprintf("%q", err.Error()))), true
	}
	return append(rec, line("fmt", fmt.Sprintf("%q", text))), true
}

func TestParseGolden(t *testing.T) {
	var got []string
	accepted := 0
	for _, sql := range goldenInputs() {
		rec, ok := goldenRecord(sql)
		if ok {
			accepted++
		}
		got = append(got, rec...)
		got = append(got, "")
	}
	if accepted < 400 {
		t.Errorf("golden corpus has %d accepted statements, want at least 400", accepted)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d inputs, %d accepted", goldenPath, goldenInputCount, accepted)
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	i, bad := 0, 0
	for ; sc.Scan(); i++ {
		if i >= len(got) {
			t.Fatalf("golden file has more lines than the %d produced", len(got))
		}
		if sc.Text() != got[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], sc.Text())
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(got) {
		t.Fatalf("golden file has %d lines, the parser produced %d", i, len(got))
	}
	if bad > 0 {
		t.Fatalf("%d golden lines differ", bad)
	}
}
