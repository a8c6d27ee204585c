//nescheck:allow determinism Table VI QPS measurement reads host wall time by design; simulated costs are tracked separately via trace.Recorder cycles

package bench

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sqldb"
	"nestedenclave/internal/ycsb"
)

// This file implements the SQLite half of the §VI-B case study (Table VI):
// a shared SQL database service driven by YCSB workloads.
//
//   - Monolithic: the database engine and the client-facing query handling
//     share one enclave; queries execute directly.
//   - Nested: a per-client inner enclave parses each query and encrypts the
//     data values (so the shared service only ever stores ciphertext), then
//     forwards the rewritten query to the SQLite-like service in the outer
//     enclave via n_ocall; SELECT results are decrypted on the way back.
//
// Porting delta lines carry "// PORT:" markers for TableIII.

// SQLService is a deployed database service.
type SQLService struct {
	// Client is the enclave queries enter through.
	Client *sdk.Enclave

	db *sqldb.DB
}

// sqlAEAD is the client's AES-GCM for text values. Every deployment uses the
// same key, so the chaos soak's oracle can compute the ciphertexts its
// service stores.
func sqlAEAD() cipher.AEAD {
	block, err := aes.NewCipher((&[16]byte{7})[:])
	if err != nil {
		panic(err) // a 16-byte key is always accepted
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	return aead
}

// encryptTextDet seals a text value deterministically under the per-client
// key (deterministic so WHERE equality on encrypted fields keeps working —
// the standard searchable-deterministic-encryption trade-off).
func encryptTextDet(aead cipher.AEAD, pt string) string {
	nonce := make([]byte, aead.NonceSize())
	return hex.EncodeToString(aead.Seal(nil, nonce, []byte(pt), nil))
}

// rewriteEncrypted parses the SQL and encrypts every text literal — the
// inner enclave's "parse the queries and encrypt data" step.
func rewriteEncrypted(aead cipher.AEAD, sql string) (string, error) {
	st, err := sqldb.Parse(sql)
	if err != nil {
		return "", err
	}
	switch q := st.(type) {
	case *sqldb.InsertStmt:
		for i, v := range q.Vals {
			if v.Kind == sqldb.KText {
				q.Vals[i] = sqldb.Text(encryptTextDet(aead, v.S))
			}
		}
	case *sqldb.UpdateStmt:
		for i := range q.Sets {
			if q.Sets[i].Val.Kind == sqldb.KText {
				q.Sets[i].Val = sqldb.Text(encryptTextDet(aead, q.Sets[i].Val.S))
			}
		}
		for i := range q.Where {
			if q.Where[i].Val.Kind == sqldb.KText {
				q.Where[i].Val = sqldb.Text(encryptTextDet(aead, q.Where[i].Val.S))
			}
		}
	case *sqldb.SelectStmt:
		for i := range q.Where {
			if q.Where[i].Val.Kind == sqldb.KText {
				q.Where[i].Val = sqldb.Text(encryptTextDet(aead, q.Where[i].Val.S))
			}
		}
	}
	return sqldb.FormatStmt(st)
}

// execAndRender runs a query on the engine and flattens the result.
func execAndRender(db *sqldb.DB, sql string) ([]byte, error) {
	res, err := db.Exec(sql)
	if err != nil {
		return nil, err
	}
	out := fmt.Sprintf("affected=%d rows=%d", res.Affected, len(res.Rows))
	for _, row := range res.Rows {
		for _, v := range row {
			out += "|" + v.String()
		}
	}
	return []byte(out), nil
}

// BuildSQLService deploys the case study. With staged, the nested build
// round-trips every query through the trusted heap on both sides (see stage):
// the client before it parses and encrypts, the engine before it executes.
func BuildSQLService(r *Rig, nested, staged bool) (*SQLService, error) {
	s := &SQLService{db: sqldb.New()}

	if !nested {
		img := sdk.NewImage("sql-service", 0x1000_0000, sdk.DefaultLayout())
		img.RegisterECall("query", func(env *sdk.Env, args []byte) ([]byte, error) {
			return execAndRender(s.db, string(args))
		})
		e, err := r.LoadSolo(img)
		if err != nil {
			return nil, err
		}
		s.Client = e
		return s, nil
	}

	aead := sqlAEAD()
	svcImg := sdk.NewImage("sqlite-svc", 0x2000_0000, sdk.DefaultLayout())              // PORT: shared service image
	clientImg := sdk.NewImage("sql-client", 0x1000_0000, sdk.DefaultLayout())           // PORT: per-client image
	svcImg.RegisterNOCall("sql_exec", func(env *sdk.Env, args []byte) ([]byte, error) { // PORT: service entry via n_ocall
		if staged {
			var err error
			if args, err = stage(env, args, 0); err != nil {
				return nil, err
			}
		}
		return execAndRender(s.db, string(args))
	})
	clientImg.RegisterECall("query", func(env *sdk.Env, args []byte) ([]byte, error) {
		if staged {
			var err error
			if args, err = stage(env, args, 0); err != nil {
				return nil, err
			}
		}
		rewritten, err := rewriteEncrypted(aead, string(args)) // PORT: parse + encrypt values in the inner enclave
		if err != nil {                                        // PORT:
			return nil, err // PORT:
		}
		return env.NOCall("sql_exec", []byte(rewritten)) // PORT: forward to the shared service
	})
	client, _, err := r.LoadPair(clientImg, svcImg) // PORT: NASSO association
	if err != nil {
		return nil, err
	}
	s.Client = client
	return s, nil
}

// Query sends one SQL statement through the deployed service: clients ecall
// into their inner enclave, which forwards to the shared engine via n_ocall
// (the paper's §VI-B flow).
func (s *SQLService) Query(sql string) ([]byte, error) {
	return s.Client.ECall("query", []byte(sql))
}

// TableVIRow is one workload row of Table VI.
type TableVIRow struct {
	Workload   string
	MonoQPS    float64
	NestQPS    float64
	Normalized float64
	// OverheadUS is the absolute per-query cost the nested build adds
	// (transitions + parse/encrypt in the inner enclave).
	OverheadUS float64
	// SQLiteEquivNorm projects the normalized throughput onto a real
	// SQLite's per-query cost (~300 us on the paper's testbed): the same
	// absolute overhead against realistic engine work. This is the number
	// comparable to the paper's 0.98-0.99, since this repository's SQL
	// engine is over an order of magnitude faster than SQLite.
	SQLiteEquivNorm float64
}

// sqliteQueryUS is the reference per-query cost of real SQLite used for the
// paper-equivalent normalization.
const sqliteQueryUS = 300.0

// TableVI runs the four YCSB mixes with cfg (zero value: 1000 records,
// 10 000 operations — the paper's query count). seed fixes the generated
// query streams: the generator takes an injected RNG, and the bench layer
// is where the seed becomes one.
func TableVI(cfg ycsb.Config, seed int64) ([]TableVIRow, error) {
	if cfg.Operations == 0 {
		cfg = ycsb.DefaultConfig()
	}
	var rows []TableVIRow
	for _, mix := range ycsb.TableVIMixes() {
		w := ycsb.Generate(mix, cfg, rand.New(rand.NewSource(seed)))
		row := TableVIRow{Workload: mix.Name}
		best := [2][]time.Duration{make([]time.Duration, len(w.Queries)), make([]time.Duration, len(w.Queries))}
		for pass := range tableVIRuns {
			if err := tableVIPass(w, &best, pass == 0); err != nil {
				return nil, err
			}
		}
		row.MonoQPS, row.NestQPS = streamQPS(best[0]), streamQPS(best[1])
		row.Normalized = row.NestQPS / row.MonoQPS
		row.OverheadUS = 1e6/row.NestQPS - 1e6/row.MonoQPS
		row.SQLiteEquivNorm = sqliteQueryUS / (sqliteQueryUS + row.OverheadUS)
		rows = append(rows, row)
	}
	return rows, nil
}

// tableVIRuns is how many passes TableVI makes over each mix.
const tableVIRuns = 3

// tableVIPass loads a fresh service of each variant (0 monolithic, 1 nested)
// and runs w's stream through both, alternating query by query; best[v][i]
// keeps variant v's fastest time for query i. A query takes microseconds and
// the shape test's 400-query stream under a scheduler time slice: a slow
// stretch of the host falls on both variants alike, and a stall counts only
// if it hits the same query in every pass.
func tableVIPass(w *ycsb.Workload, best *[2][]time.Duration, first bool) error {
	var svc [2]*SQLService
	for v := range svc {
		r, err := NewRig(SmallMachine())
		if err != nil {
			return err
		}
		if svc[v], err = BuildSQLService(r, v == 1, false); err != nil {
			return err
		}
		for _, q := range w.Setup {
			if _, err := svc[v].Query(q); err != nil {
				return fmt.Errorf("%s setup (%s): %w", w.Mix.Name, variantName(v == 1), err)
			}
		}
	}
	for i, q := range w.Queries {
		for v, s := range svc {
			start := time.Now()
			if _, err := s.Query(q); err != nil {
				return fmt.Errorf("%s (%s): %w", w.Mix.Name, variantName(v == 1), err)
			}
			if d := time.Since(start); first || d < best[v][i] {
				best[v][i] = d
			}
		}
	}
	return nil
}

// RenderTableVI formats the rows.
func RenderTableVI(rows []TableVIRow) *Table {
	t := &Table{
		Title:   "Table VI — SQLite throughput with YCSB (uniform random requests), normalized to monolithic",
		Headers: []string{"Workload", "Mono q/s", "Nested q/s", "Normalized", "Overhead us/q", "SQLite-equiv norm"},
		Notes: []string{
			"paper: 0.99 / 0.99 / 0.98 / 0.98 — under 2% overhead from per-query encryption + transitions",
			"this repo's SQL engine runs queries in single-digit microseconds, so the same absolute overhead",
			fmt.Sprintf("shows as a larger ratio; the last column projects it onto a %v-us/query SQLite", sqliteQueryUS),
		},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, f2(r.MonoQPS), f2(r.NestQPS), f3(r.Normalized), f2(r.OverheadUS), f3(r.SQLiteEquivNorm))
	}
	return t
}
