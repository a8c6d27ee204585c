package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func setup(t *testing.T) *DB {
	t.Helper()
	db := New()
	if _, err := db.Exec("CREATE TABLE users (id INT PRIMARY KEY, name TEXT, score FLOAT)"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := setup(t)
	if _, err := db.Exec("INSERT INTO users VALUES (1, 'alice', 9.5)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO users (id, name) VALUES (2, 'bob')"); err != nil {
		t.Fatal(err)
	}
	r, err := db.Exec("SELECT * FROM users WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][1].S != "alice" || r.Rows[0][2].F != 9.5 {
		t.Fatalf("rows: %v", r.Rows)
	}
	// NULL for omitted column.
	r = db.MustExec("SELECT score FROM users WHERE id = 2")
	if r.Rows[0][0].Kind != KNull {
		t.Fatalf("omitted column = %v", r.Rows[0][0])
	}
}

func TestProjectionAndOrder(t *testing.T) {
	db := setup(t)
	for i, name := range []string{"c", "a", "b"} {
		db.MustExec(fmt.Sprintf("INSERT INTO users VALUES (%d, '%s', %d.0)", i+1, name, 10-i))
	}
	r := db.MustExec("SELECT name FROM users ORDER BY name")
	got := []string{r.Rows[0][0].S, r.Rows[1][0].S, r.Rows[2][0].S}
	if strings.Join(got, "") != "abc" {
		t.Fatalf("order by: %v", got)
	}
	r = db.MustExec("SELECT name FROM users ORDER BY score DESC LIMIT 2")
	if len(r.Rows) != 2 || r.Rows[0][0].S != "c" {
		t.Fatalf("order desc limit: %v", r.Rows)
	}
	if r.Columns[0] != "name" {
		t.Fatalf("columns: %v", r.Columns)
	}
}

func TestWhereOperatorsAndConjunction(t *testing.T) {
	db := setup(t)
	for i := 1; i <= 10; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO users VALUES (%d, 'u%d', %d.0)", i, i, i))
	}
	cases := []struct {
		where string
		want  int
	}{
		{"id = 5", 1},
		{"id != 5", 9},
		{"id <> 5", 9},
		{"id < 3", 2},
		{"id <= 3", 3},
		{"id > 8", 2},
		{"id >= 8", 3},
		{"id > 2 AND id < 5", 2},
		{"id > 2 AND score < 4.5", 2},
		{"name = 'u7'", 1},
	}
	for _, c := range cases {
		r := db.MustExec("SELECT COUNT(*) FROM users WHERE " + c.where)
		if got := int(r.Rows[0][0].I); got != c.want {
			t.Errorf("WHERE %s: count %d, want %d", c.where, got, c.want)
		}
	}
}

func TestUpdateDelete(t *testing.T) {
	db := setup(t)
	for i := 1; i <= 5; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO users VALUES (%d, 'u%d', 0.0)", i, i))
	}
	r := db.MustExec("UPDATE users SET score = 7.5 WHERE id >= 4")
	if r.Affected != 2 {
		t.Fatalf("update affected %d", r.Affected)
	}
	r = db.MustExec("SELECT COUNT(*) FROM users WHERE score = 7.5")
	if r.Rows[0][0].I != 2 {
		t.Fatalf("updated rows: %v", r.Rows)
	}
	r = db.MustExec("DELETE FROM users WHERE id < 3")
	if r.Affected != 2 {
		t.Fatalf("delete affected %d", r.Affected)
	}
	n, _ := db.NumRows("users")
	if n != 3 {
		t.Fatalf("live rows %d", n)
	}
	// Deleted keys are gone from the index.
	r = db.MustExec("SELECT * FROM users WHERE id = 1")
	if len(r.Rows) != 0 {
		t.Fatal("deleted row returned")
	}
	// And can be reinserted.
	db.MustExec("INSERT INTO users VALUES (1, 'again', 0.0)")
	r = db.MustExec("SELECT name FROM users WHERE id = 1")
	if len(r.Rows) != 1 || r.Rows[0][0].S != "again" {
		t.Fatalf("reinsert: %v", r.Rows)
	}
}

func TestPrimaryKeyConstraints(t *testing.T) {
	db := setup(t)
	db.MustExec("INSERT INTO users VALUES (1, 'a', 0.0)")
	if _, err := db.Exec("INSERT INTO users VALUES (1, 'dup', 0.0)"); err == nil {
		t.Fatal("duplicate PK accepted")
	}
	if _, err := db.Exec("INSERT INTO users (name) VALUES ('nokey')"); err == nil {
		t.Fatal("NULL PK accepted")
	}
	// PK update maintains the index.
	db.MustExec("UPDATE users SET id = 42 WHERE id = 1")
	if r := db.MustExec("SELECT name FROM users WHERE id = 42"); len(r.Rows) != 1 {
		t.Fatal("row lost after PK update")
	}
	if r := db.MustExec("SELECT name FROM users WHERE id = 1"); len(r.Rows) != 0 {
		t.Fatal("stale index entry after PK update")
	}
	db.MustExec("INSERT INTO users VALUES (2, 'x', 0.0)")
	if _, err := db.Exec("UPDATE users SET id = 2 WHERE id = 42"); err == nil {
		t.Fatal("PK update onto existing key accepted")
	}
}

func TestDeclaredPrimaryKeyColumn(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE kv (payload TEXT, k INT PRIMARY KEY)")
	db.MustExec("INSERT INTO kv VALUES ('v1', 10)")
	if _, err := db.Exec("INSERT INTO kv VALUES ('v2', 10)"); err == nil {
		t.Fatal("duplicate declared PK accepted")
	}
	r := db.MustExec("SELECT payload FROM kv WHERE k = 10")
	if len(r.Rows) != 1 || r.Rows[0][0].S != "v1" {
		t.Fatalf("lookup on declared PK: %v", r.Rows)
	}
}

// TestLargeIntegerKeysStayDistinct stores two primary keys that differ
// only past float64's 53-bit mantissa: both insert, and each point lookup
// finds its own row. Compare orders ints exactly, and ints against floats
// without rounding the int.
func TestLargeIntegerKeysStayDistinct(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
	db.MustExec("INSERT INTO t VALUES (9007199254740992, 'a')")
	if _, err := db.Exec("INSERT INTO t VALUES (9007199254740993, 'b')"); err != nil {
		t.Fatalf("distinct key past 2^53 refused: %v", err)
	}
	for k, want := range map[string]string{"9007199254740992": "a", "9007199254740993": "b"} {
		r := db.MustExec("SELECT v FROM t WHERE k = " + k)
		if len(r.Rows) != 1 || r.Rows[0][0].S != want {
			t.Errorf("k = %s: rows %v, want %q", k, r.Rows, want)
		}
	}
	const big = 1 << 53
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(big), Int(big + 1), -1},
		{Int(big + 1), Float(big), 1},
		{Float(big), Int(big + 1), -1},
		{Int(big), Float(big), 0},
		{Int(2), Float(2.5), -1},
		{Int(-2), Float(-2.5), 1},
		{Int(-3), Float(-2.5), -1},
		{Int(math.MaxInt64), Float(1 << 63), -1},
		{Int(math.MinInt64), Float(-(1 << 63)), 0},
		{Int(math.MinInt64), Float(-(1 << 64)), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestErrors(t *testing.T) {
	db := setup(t)
	bad := []string{
		"SELECT * FROM missing",
		"INSERT INTO users VALUES (1, 'a')",               // arity
		"INSERT INTO users VALUES (1, 'a', 'notfloat')",   // type
		"SELECT nope FROM users",                          // column
		"UPDATE users SET nope = 1",                       // column
		"CREATE TABLE users (id INT)",                     // exists
		"CREATE TABLE t2 (id INT, id TEXT)",               // dup column
		"CREATE TABLE t3 ()",                              // empty — parse error
		"SELECT * FROM users WHERE id LIKE 3",             // unsupported op
		"FROB users",                                      // unknown statement
		"SELECT * FROM users WHERE id = 1 extra_tokens x", // trailing garbage
		"INSERT INTO users (id, name) VALUES (1)",         // col/val mismatch
		"SELECT * FROM users LIMIT 'x'",                   // bad limit
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("accepted: %s", sql)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	db := setup(t)
	db.MustExec("INSERT INTO users VALUES (1, 'o''brien', 0.0)")
	r := db.MustExec("SELECT name FROM users WHERE id = 1")
	if r.Rows[0][0].S != "o'brien" {
		t.Fatalf("escape: %q", r.Rows[0][0].S)
	}
}

func TestBTreeBasics(t *testing.T) {
	bt := NewBTree()
	const n = 2000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		if !bt.Set(Int(int64(k)), k) {
			t.Fatalf("duplicate insert reported for %d", k)
		}
	}
	if bt.Len() != n {
		t.Fatalf("len %d", bt.Len())
	}
	for i := 0; i < n; i++ {
		id, ok := bt.Get(Int(int64(i)))
		if !ok || id != i {
			t.Fatalf("get %d: %d %v", i, id, ok)
		}
	}
	// Ordered scan.
	prev := int64(-1)
	count := 0
	bt.Scan(func(k Value, id int) bool {
		if k.I <= prev {
			t.Fatalf("scan out of order at %d", k.I)
		}
		prev = k.I
		count++
		return true
	})
	if count != n {
		t.Fatalf("scan visited %d", count)
	}
	// Range scan.
	var got []int64
	lo, hi := Int(100), Int(110)
	bt.ScanRange(&lo, &hi, func(k Value, id int) bool {
		got = append(got, k.I)
		return true
	})
	if len(got) != 11 || got[0] != 100 || got[10] != 110 {
		t.Fatalf("range scan: %v", got)
	}
	// Delete.
	if !bt.Delete(Int(500)) {
		t.Fatal("delete existing failed")
	}
	if bt.Delete(Int(500)) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := bt.Get(Int(500)); ok {
		t.Fatal("deleted key resolvable")
	}
	if bt.Len() != n-1 {
		t.Fatalf("len after delete %d", bt.Len())
	}
	// Replace.
	if bt.Set(Int(7), 999) {
		t.Fatal("replace reported as insert")
	}
	if id, _ := bt.Get(Int(7)); id != 999 {
		t.Fatalf("replace lost: %d", id)
	}
}

// Property: the B-tree agrees with a reference map under random ops, and
// scans are always sorted.
// quickRand is the deterministic source for every testing/quick property in
// this package: the seed is fixed and logged so a property failure replays
// exactly; QUICK_SEED explores other generation schedules.
func quickRand(t *testing.T) *rand.Rand {
	t.Helper()
	seed := int64(1)
	if s := os.Getenv("QUICK_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			seed = v
		}
	}
	t.Logf("testing/quick seed %d (set QUICK_SEED to vary)", seed)
	return rand.New(rand.NewSource(seed))
}

func TestBTreeMatchesMapProperty(t *testing.T) {
	// An op sets or deletes the Run%32+1 keys from Key%512 on. Keys fall in
	// [-511, 542], so deletions hit live keys, tombstones come to outnumber
	// them and the tree rebuilds; runs make it several levels deep.
	type op struct {
		Key int16
		Run uint8
		Del bool
	}
	// rng is one ScanRange per case; an open bound is nil.
	type rng struct {
		Lo, Hi         int16
		OpenLo, OpenHi bool
	}
	f := func(ops []op, c rng) bool {
		bt := NewBTree()
		ref := map[int64]int{}
		for i, o := range ops {
			for k := int64(o.Key % 512); k <= int64(o.Key%512)+int64(o.Run%32); k++ {
				_, inRef := ref[k]
				if o.Del {
					if bt.Delete(Int(k)) != inRef {
						return false
					}
					delete(ref, k)
				} else {
					if bt.Set(Int(k), i) == inRef {
						return false
					}
					ref[k] = i
				}
			}
		}
		if bt.Len() != len(ref) || bt.dead > bt.size {
			return false
		}
		for k, v := range ref {
			id, ok := bt.Get(Int(k))
			if !ok || id != v {
				return false
			}
		}
		prev := int64(-1 << 62)
		sorted := true
		n := 0
		bt.Scan(func(k Value, id int) bool {
			if k.I <= prev {
				sorted = false
			}
			prev = k.I
			n++
			return true
		})
		if !sorted || n != len(ref) {
			return false
		}
		// One range scan, against the map's keys in the range.
		lo, hi := Int(int64(c.Lo%512)), Int(int64(c.Hi%512))
		var want []int64
		for k := range ref {
			if (c.OpenLo || k >= lo.I) && (c.OpenHi || k <= hi.I) {
				want = append(want, k)
			}
		}
		slices.Sort(want)
		var got []int64
		plo, phi := &lo, &hi
		if c.OpenLo {
			plo = nil
		}
		if c.OpenHi {
			phi = nil
		}
		bt.ScanRange(plo, phi, func(k Value, id int) bool {
			if id != ref[k.I] {
				return false
			}
			got = append(got, k.I)
			return true
		})
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: quickRand(t)}); err != nil {
		t.Error(err)
	}
}

// TestScanRangeSeeksToLo pins a range scan's cost at O(log n + k): on a
// 1,000-key tree an 11-key range examines 12 keys wherever it lies, the
// eleven it returns and the first past hi, which stops it. ScanRange is
// ascend from lo with that stop, so the keys are counted on ascend.
func TestScanRangeSeeksToLo(t *testing.T) {
	bt := NewBTree()
	for k := 0; k < 1000; k++ {
		bt.Set(Int(int64(k)), k)
	}
	for _, from := range []int64{0, 500, 980} {
		lo, hi := Int(from), Int(from+10)
		var got []int64
		bt.ScanRange(&lo, &hi, func(k Value, _ int) bool {
			got = append(got, k.I)
			return true
		})
		if len(got) != 11 || got[0] != from || got[10] != from+10 {
			t.Fatalf("ScanRange [%d,%d] returned %v", from, from+10, got)
		}
		examined := 0
		ascend(bt.root, &lo, func(k Value, _ int) bool {
			examined++
			return Compare(k, hi) <= 0
		})
		if examined > 12 {
			t.Errorf("a scan of [%d,%d] examines %d keys, want at most 12", from, from+10, examined)
		}
	}
}

// TestKeyUpdatesKeepIndexBounded: a primary-key UPDATE tombstones the old
// key and inserts the new one, so without rebuilds the index would grow by
// a key per statement. After every one of 1,000 such UPDATEs on a 100-row
// table the index holds at most twice its live keys.
func TestKeyUpdatesKeepIndexBounded(t *testing.T) {
	db := setup(t)
	for i := 0; i < 100; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO users VALUES (%d, 'u%d', 0.0)", i, i))
	}
	idx := db.tables["users"].index
	var keys func(n *btreeNode) int
	keys = func(n *btreeNode) int {
		k := len(n.keys)
		for _, c := range n.children {
			k += keys(c)
		}
		return k
	}
	for i := 0; i < 1000; i++ {
		db.MustExec(fmt.Sprintf("UPDATE users SET id = %d WHERE id = %d", i+100, i))
		if k := keys(idx.root); k > 2*idx.Len() {
			t.Fatalf("after UPDATE %d the index holds %d keys for %d live", i, k, idx.Len())
		}
	}
	r := db.MustExec("SELECT name FROM users WHERE id >= 1000 ORDER BY id")
	if idx.Len() != 100 || len(r.Rows) != 100 || r.Rows[0][0].S != "u0" || r.Rows[99][0].S != "u99" {
		t.Fatalf("after the UPDATEs: %d keys, rows %v", idx.Len(), r.Rows)
	}
}
