package main

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"nestedenclave"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/sqldb"
	"nestedenclave/internal/trace"
	"nestedenclave/internal/ycsb"
)

// The SQL workloads are Table VI's nested service (§VI-B): per-client inner
// enclaves parse each query and encrypt its text values, then forward it with
// n_ocall to the SQL engine in a shared outer enclave. SELECT results come
// back encrypted and are decrypted in the client enclave.

const (
	sqlRecords  = 1000
	sqlFieldLen = 100
	// sqlPool is the number of generated queries per client. A run replays
	// them cyclically; the oracle follows the replay, so a second pass checks
	// against the values the first pass wrote.
	sqlPool = 50_000
)

// ycsbA is YCSB workload A: 50% SELECT, 50% UPDATE, uniform keys.
var ycsbA = ycsb.Mix{Name: "YCSB-A", SelectP: 50, UpdateP: 50}

type sqlOp struct {
	query  []byte
	update bool
	key    int
	val    string // the plaintext an UPDATE writes
}

// sqlInputs is one client's generated stream and its oracle seed.
type sqlInputs struct {
	key   [16]byte
	setup [][]byte // CREATE TABLE and the preloading INSERTs
	init  []string // preloaded plaintext per key
	ops   []sqlOp
}

func genSQL(rng *rand.Rand) (*sqlInputs, error) {
	in := &sqlInputs{init: make([]string, sqlRecords)}
	rng.Read(in.key[:])
	w := ycsb.Generate(ycsbA, ycsb.Config{Records: sqlRecords, Operations: sqlPool, FieldLen: sqlFieldLen}, rng)
	for _, q := range w.Setup {
		st, err := sqldb.Parse(q)
		if err != nil {
			return nil, err
		}
		if ins, ok := st.(*sqldb.InsertStmt); ok {
			in.init[ins.Vals[0].I] = ins.Vals[1].S
		}
		in.setup = append(in.setup, []byte(q))
	}
	for _, q := range w.Queries {
		st, err := sqldb.Parse(q)
		if err != nil {
			return nil, err
		}
		op := sqlOp{query: []byte(q)}
		switch s := st.(type) {
		case *sqldb.SelectStmt:
			op.key = int(s.Where[0].Val.I)
		case *sqldb.UpdateStmt:
			op.update, op.key, op.val = true, int(s.Where[0].Val.I), s.Sets[0].Val.S
		default:
			return nil, fmt.Errorf("unexpected generated query %q", q)
		}
		in.ops = append(in.ops, op)
	}
	return in, nil
}

func prepareSQL(clients int) func(seed int64) (func() (service, error), error) {
	return func(seed int64) (func() (service, error), error) {
		rng := rand.New(rand.NewSource(seed))
		ins := make([]*sqlInputs, clients)
		for c := range ins {
			in, err := genSQL(rng)
			if err != nil {
				return nil, err
			}
			ins[c] = in
		}
		return func() (service, error) { return setupSQL(ins) }, nil
	}
}

type sqlClient struct {
	id    byte
	table string
	aead  cipher.AEAD
	enc   *nestedenclave.Enclave
	in    *sqlInputs
	vals  []string // oracle: the plaintext each key holds now
	next  int
	tr    *tracer
	_     [64]byte // keeps two clients' cursors off one cache line
}

type sqlService struct {
	sys *nestedenclave.System
	// mu serializes DB.Exec across clients, as SQLite's database lock does.
	mu      sync.Mutex
	db      *sqldb.DB
	clients []*sqlClient
}

func setupSQL(ins []*sqlInputs) (service, error) {
	sys, err := nestedenclave.NewSystemErr(nestedenclave.Options{Machine: sgx.SmallConfig()})
	if err != nil {
		return nil, err
	}
	s := &sqlService{sys: sys, db: sqldb.New()}
	outer := nestedenclave.NewImage("sqlite-svc", 0x2000_0000, nestedenclave.DefaultLayout())
	outer.RegisterNOCall("sql_exec", s.exec)
	order := []*nestedenclave.Image{outer}
	for c, in := range ins {
		block, err := aes.NewCipher(in.key[:])
		if err != nil {
			return nil, err
		}
		aead, err := cipher.NewGCM(block)
		if err != nil {
			return nil, err
		}
		cl := &sqlClient{
			id: byte(c), table: "usertable_" + strconv.Itoa(c), aead: aead, in: in,
			vals: append([]string(nil), in.init...),
		}
		img := nestedenclave.NewImage("sql-client-"+strconv.Itoa(c), uint64(0x1000_0000+c*0x2000_0000), nestedenclave.DefaultLayout())
		img.RegisterECall("query", cl.query)
		order = append(order, img)
		s.clients = append(s.clients, cl)
	}
	encs, err := loadNested(sys, outer, order)
	if err != nil {
		return nil, err
	}
	for c, cl := range s.clients {
		cl.enc = encs[1+c]
		// ycsb.Generate's setup is CREATE TABLE, then one INSERT per row.
		for i, q := range cl.in.setup {
			want := "affected=1"
			if i == 0 {
				want = "affected=0"
			}
			out, err := cl.enc.ECall("query", q)
			if err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
			if string(out) != want {
				return nil, fmt.Errorf("preload %q: got %q, want %q", q, out, want)
			}
		}
	}
	return s, nil
}

func (s *sqlService) recorder() *trace.Recorder { return s.sys.Recorder() }

func (s *sqlService) do(c int, tr *tracer) error {
	cl := s.clients[c]
	cl.tr = tr
	op := &cl.in.ops[cl.next%len(cl.in.ops)]
	cl.next++
	tr.begin(kECall)
	out, err := cl.enc.ECall("query", op.query)
	tr.end()
	if err != nil {
		return err
	}
	if op.update {
		if string(out) != "affected=1" {
			return fmt.Errorf("client %d: UPDATE of key %d returned %q", c, op.key, out)
		}
		cl.vals[op.key] = op.val
		return nil
	}
	if string(out) != cl.vals[op.key] {
		return fmt.Errorf("client %d: SELECT of key %d returned %q, want %q", c, op.key, out, cl.vals[op.key])
	}
	return nil
}

// query is the client enclave's entry point: stage the query through the
// trusted heap, parse it, move it to this client's table, encrypt its text
// values, and forward it to the engine; decrypt what a SELECT returns.
func (cl *sqlClient) query(env *nestedenclave.Env, args []byte) ([]byte, error) {
	tr := cl.tr
	q, err := stage(env, tr, args)
	if err != nil {
		return nil, err
	}
	tr.begin(kParse)
	st, err := sqldb.Parse(string(q))
	tr.end()
	if err != nil {
		return nil, err
	}
	isSelect := false
	switch s := st.(type) {
	case *sqldb.CreateStmt:
		s.Table = cl.table
	case *sqldb.InsertStmt:
		s.Table = cl.table
		for i, v := range s.Vals {
			if v.Kind == sqldb.KText {
				s.Vals[i] = sqldb.Text(cl.seal(v.S))
			}
		}
	case *sqldb.UpdateStmt:
		s.Table = cl.table
		for i, set := range s.Sets {
			if set.Val.Kind == sqldb.KText {
				s.Sets[i].Val = sqldb.Text(cl.seal(set.Val.S))
			}
		}
	case *sqldb.SelectStmt:
		s.Table = cl.table
		isSelect = true
	default:
		return nil, fmt.Errorf("unsupported statement %T", st)
	}
	tr.begin(kParse)
	text, err := sqldb.FormatStmt(st)
	tr.end()
	if err != nil {
		return nil, err
	}
	msg := make([]byte, 1+len(text))
	msg[0] = cl.id
	copy(msg[1:], text)
	tr.begin(kNOCall)
	out, err := env.NOCall("sql_exec", msg)
	tr.end()
	if err != nil || !isSelect {
		return out, err
	}
	return cl.open(out)
}

// seal encrypts a value deterministically (fixed nonce), the searchable
// encryption the case study uses so equality on stored values still works.
func (cl *sqlClient) seal(pt string) string {
	cl.tr.begin(kGCM)
	defer cl.tr.end()
	nonce := make([]byte, cl.aead.NonceSize())
	return hex.EncodeToString(cl.aead.Seal(nil, nonce, []byte(pt), nil))
}

func (cl *sqlClient) open(ct []byte) ([]byte, error) {
	cl.tr.begin(kGCM)
	defer cl.tr.end()
	raw := make([]byte, hex.DecodedLen(len(ct)))
	if _, err := hex.Decode(raw, ct); err != nil {
		return nil, err
	}
	nonce := make([]byte, cl.aead.NonceSize())
	return cl.aead.Open(raw[:0], nonce, raw, nil)
}

// exec is the shared engine's n_ocall entry. The first byte names the client.
func (s *sqlService) exec(env *nestedenclave.Env, args []byte) ([]byte, error) {
	if len(args) == 0 || int(args[0]) >= len(s.clients) {
		return nil, errors.New("sql_exec: bad client id")
	}
	tr := s.clients[args[0]].tr
	q, err := stage(env, tr, args[1:])
	if err != nil {
		return nil, err
	}
	tr.begin(kLockWait)
	s.mu.Lock()
	tr.end()
	tr.begin(kExec)
	res, err := s.db.Exec(string(q))
	tr.end()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if res.Columns == nil {
		return strconv.AppendInt([]byte("affected="), int64(res.Affected), 10), nil
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return nil, fmt.Errorf("sql_exec: SELECT returned %d rows", len(res.Rows))
	}
	return []byte(res.Rows[0][0].S), nil
}

// stage round-trips b through the enclave's trusted heap over the
// hardware-validated access path, so every request pays the TLB refills its
// transitions' flushes force.
func stage(env *nestedenclave.Env, tr *tracer, b []byte) ([]byte, error) {
	tr.begin(kHeap)
	p, err := env.Malloc(len(b))
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.beginAccess()
	err = env.Write(p, b)
	tr.end()
	var out []byte
	if err == nil {
		tr.beginAccess()
		out, err = env.Read(p, len(b))
		tr.end()
	}
	tr.begin(kHeap)
	ferr := env.Free(p)
	tr.end()
	if err != nil {
		return nil, err
	}
	return out, ferr
}
