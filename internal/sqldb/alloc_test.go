package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// ycsbDB returns a database holding YCSB's usertable with rows rows, keys 0
// to rows-1, each with a 100-byte field0, as the nested SQL service
// preloads it.
func ycsbDB(tb testing.TB, rows int) *DB {
	tb.Helper()
	db := New()
	db.MustExec("CREATE TABLE usertable (ycsb_key INT PRIMARY KEY, field0 TEXT)")
	value := strings.Repeat("v", 100)
	for k := 0; k < rows; k++ {
		db.MustExec(fmt.Sprintf("INSERT INTO usertable VALUES (%d, '%s')", k, value))
	}
	return db
}

// TestFrontEndAllocs pins the host allocations of the YCSB query shapes the
// nested SQL service parses twice per request (once in the client enclave,
// once in the engine) and formats once. Parse allocates the statement, one
// slice per list, and one copy per text literal; FormatStmt allocates only
// its output. DB.Exec parses into its own statement, so a point query
// allocates only its text literals' copies and what it returns.
func TestFrontEndAllocs(t *testing.T) {
	value := strings.Repeat("k", 100)
	cases := []struct {
		name, sql string
		parse     float64
	}{
		// UpdateStmt, Sets, the value's copy, Where.
		{"update", "UPDATE usertable SET field0 = '" + value + "' WHERE ycsb_key = 417", 4},
		// SelectStmt, Cols, Where.
		{"select", "SELECT field0 FROM usertable WHERE ycsb_key = 417", 3},
		// InsertStmt, Vals (grown once), the value's copy.
		{"insert", "INSERT INTO usertable VALUES (417, '" + value + "')", 4},
	}
	for _, c := range cases {
		st, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = Parse(c.sql) }); got != c.parse {
			t.Errorf("Parse(%s) allocates %.0f times, want %.0f", c.name, got, c.parse)
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = FormatStmt(st) }); got != 1 {
			t.Errorf("FormatStmt(%s) allocates %.0f times, want 1", c.name, got)
		}
	}

	db := ycsbDB(t, 1000)
	execs := []struct {
		name, sql string
		allocs    float64
	}{
		// The Result, its Columns, its Rows and the row's cells.
		{"point select", "SELECT field0 FROM usertable WHERE ycsb_key = 417", 4},
		{"point select, three conditions", "SELECT field0 FROM usertable WHERE ycsb_key = 417 AND ycsb_key >= 0 AND ycsb_key < 1000", 4},
		// A text literal is copied out of its query, stored or not.
		{"point select, text condition", "SELECT field0 FROM usertable WHERE ycsb_key = 417 AND field0 != 'x'", 5},
		// The stored value's copy and the Result.
		{"point update", "UPDATE usertable SET field0 = '" + value + "' WHERE ycsb_key = 417", 2},
		// An integer SET stores no text to copy.
		{"point update, two sets", "UPDATE usertable SET field0 = '" + value + "', ycsb_key = 417 WHERE ycsb_key = 417 AND ycsb_key >= 0", 2},
		{"point update, text condition", "UPDATE usertable SET field0 = '" + value + "' WHERE ycsb_key = 417 AND field0 != 'x'", 3},
	}
	for _, c := range execs {
		got := testing.AllocsPerRun(100, func() {
			if _, err := db.Exec(c.sql); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if got != c.allocs {
			t.Errorf("Exec(%s) allocates %.0f times, want %.0f", c.name, got, c.allocs)
		}
	}
}

// TestStoredTextDoesNotPinItsQuery runs statements through Exec, whose
// parsed names slice each query, and checks that no string
// the DB holds afterwards lies inside a query's bytes: table and column
// names, stored values, index keys (tombstoned ones too), and Exec's own
// reused statement and scratch, read up to their capacity. Nor may a
// Result: its names and cells must not alias a query, and a later
// statement that updates the row it read must not change it.
func TestStoredTextDoesNotPinItsQuery(t *testing.T) {
	db := New()
	var queries []string // kept, so no query's bytes are reused
	run := func(sql string) (*Result, error) {
		q := strings.Clone(sql) // a fresh string, as a service's string(bytes) is
		queries = append(queries, q)
		return db.Exec(q)
	}
	exec := func(sql string) *Result {
		t.Helper()
		r, err := run(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return r
	}
	inQuery := func(s string) bool {
		if len(s) == 0 {
			return false
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, q := range queries {
			start := uintptr(unsafe.Pointer(unsafe.StringData(q)))
			if p >= start && p < start+uintptr(len(q)) {
				return true
			}
		}
		return false
	}

	exec("CREATE TABLE kv (k TEXT PRIMARY KEY, v TEXT, n INT)")
	exec("INSERT INTO kv VALUES ('a', 'alpha', 1)")
	exec("INSERT INTO kv (n, k, v) VALUES (2, 'b', 'beta')")
	exec("INSERT INTO kv VALUES ('d', 'it''s', 3)")
	exec("UPDATE kv SET v = 'gamma' WHERE k = 'a'")
	exec("UPDATE kv SET k = 'c', v = 'delta' WHERE n = 2") // tombstones key 'b'
	exec("UPDATE kv SET v = 'epsilon' WHERE n < 10")       // one copy, three rows
	res := exec("SELECT v, k FROM kv WHERE k = 'c' AND v != 'x'")
	want := &Result{Columns: []string{"v", "k"}, Rows: [][]Value{{Text("epsilon"), Text("c")}}}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("SELECT returned %#v, want %#v", res, want)
	}
	exec("UPDATE kv SET v = 'zeta' WHERE k = 'c'")
	exec("DELETE FROM kv WHERE k = 'a'")
	for _, bad := range []string{
		"SELECT * FROM kv WHERE k = 'x' AND nope = 1",     // fails resolving
		"UPDATE kv SET v = 'y' WHERE k = 'c' AND",         // fails parsing
		"INSERT INTO kv VALUES ('c', 'duplicate key', 4)", // fails storing
	} {
		if _, err := run(bad); err == nil {
			t.Fatalf("%s: accepted", bad)
		}
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("a later UPDATE changed an earlier Result: %#v, want %#v", res, want)
	}

	stringsIn(reflect.ValueOf(res).Elem(), "Result", func(path, s string) {
		if inQuery(s) {
			t.Errorf("%s = %q lies inside a query", path, s)
		}
	})
	n := 0
	stringsIn(reflect.ValueOf(db).Elem(), "DB", func(path, s string) {
		n++
		if inQuery(s) {
			t.Errorf("%s = %q lies inside a query", path, s)
		}
	})
	if n < 20 {
		t.Fatalf("walked only %d strings of the DB", n)
	}
}

// stringsIn calls fn with every string v holds and its path, reading
// slices up to their capacity and following pointers and maps.
func stringsIn(v reflect.Value, path string, fn func(path, s string)) {
	switch v.Kind() {
	case reflect.String:
		fn(path, v.String())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			stringsIn(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			stringsIn(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			stringsIn(v.Elem(), path, fn)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			k := fmt.Sprintf("%s[%v]", path, it.Key())
			stringsIn(it.Key(), k+" (key)", fn)
			stringsIn(it.Value(), k, fn)
		}
	}
}

// BenchmarkExec is the engine alone on the nested SQL service's point
// queries, without the enclave round trip: a SELECT, and an UPDATE of a
// 100-byte value, by a random primary key of a 1,000-row YCSB table.
func BenchmarkExec(b *testing.B) {
	db := ycsbDB(b, 1000)
	rng := rand.New(rand.NewSource(1))
	value := strings.Repeat("u", 100)
	var selects, updates []string
	for range 1000 {
		k := rng.Intn(1000)
		selects = append(selects, fmt.Sprintf("SELECT field0 FROM usertable WHERE ycsb_key = %d", k))
		updates = append(updates, fmt.Sprintf("UPDATE usertable SET field0 = '%s' WHERE ycsb_key = %d", value, k))
	}
	for _, bc := range []struct {
		name    string
		queries []string
	}{{"select", selects}, {"update", updates}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(bc.queries[i%len(bc.queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
