package bench

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"fmt"

	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sqldb"
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
