package sqldb

import (
	"strings"
	"testing"
)

// TestFrontEndAllocs pins the host allocations of the YCSB query shapes the
// nested SQL service parses twice per request (once in the client enclave,
// once in the engine) and formats once. Parse allocates the statement, one
// slice per list, and one copy per text literal; FormatStmt allocates only
// its output.
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
}
