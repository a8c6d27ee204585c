package bench

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/gob"
	"fmt"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/svm"
)

// This file implements the §VI-B machine-learning-as-a-service case study
// (Figure 8's architecture, measured in Figure 9): clients feed encrypted
// data to the service; a per-client component decrypts it and filters the
// privacy-sensitive features; LibSVM-equivalent training/prediction runs on
// the filtered data.
//
//   - Monolithic: decrypt + filter + SVM all in one enclave.
//   - Nested: decrypt + filter in a per-user inner enclave; the shared SVM
//     library in the outer enclave, reached via n_ocall with only the
//     privacy-filtered data. The outer library can never observe the raw
//     private features (TableVII checks exactly that).
//
// Porting delta lines are marked "// PORT:" for TableIII.

// mlRequest is the client's (serialized, then encrypted) payload.
type mlRequest struct {
	X [][]float64
	Y []int
	// Sensitive marks feature columns that must never leave the per-user
	// component (anonymization: they are zeroed before the SVM sees data).
	Sensitive []int
}

type mlFiltered struct {
	X [][]float64
	Y []int
}

func gobEncode(v any) []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		panic(err)
	}
	return b.Bytes()
}

func gobDecode(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

func mlAEAD(key [16]byte) cipher.AEAD {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	return aead
}

// decryptAndFilter is the per-user component: decrypt the client payload
// and zero the sensitive columns. Identical code in both builds; only its
// placement differs.
func decryptAndFilter(key [16]byte, ct []byte) (*mlFiltered, error) {
	aead := mlAEAD(key)
	pt, err := aead.Open(nil, make([]byte, aead.NonceSize()), ct, nil)
	if err != nil {
		return nil, fmt.Errorf("mlservice: client data authentication failed: %w", err)
	}
	var req mlRequest
	if err := gobDecode(pt, &req); err != nil {
		return nil, err
	}
	for _, x := range req.X {
		for _, col := range req.Sensitive {
			if col < len(x) {
				x[col] = 0
			}
		}
	}
	return &mlFiltered{X: req.X, Y: req.Y}, nil
}

func runSVM(f *mlFiltered, train bool, model **svm.MultiModel, testX [][]float64) ([]byte, error) {
	if train {
		mm, err := svm.TrainMulti(svm.Problem{X: f.X, Y: f.Y}, svm.Param{Kernel: svm.RBF, C: 4})
		if err != nil {
			return nil, err
		}
		*model = mm
		return le64(uint64(len(mm.Pairs))), nil
	}
	if *model == nil {
		return nil, fmt.Errorf("mlservice: predict before train")
	}
	preds := make([]int, len(testX))
	for i, x := range testX {
		preds[i] = (*model).Predict(x)
	}
	return gobEncode(preds), nil
}

// MLService is a deployed service.
type MLService struct {
	Nested bool
	// User is the enclave the client talks to (per-user inner enclave, or
	// the single enclave in the monolithic build).
	User *sdk.Enclave
	// Lib hosts the SVM library (outer enclave; == User when monolithic).
	Lib *sdk.Enclave

	key   [16]byte
	model *svm.MultiModel
}

// stashPrivate / libProbe are the Table VII probes: the user side stashes a
// raw private value in its enclave heap; the library side attempts to read
// it. In the monolithic build the library shares the enclave and succeeds —
// the exposure the paper motivates against; in the nested build the read
// returns abort-page bytes.
func registerStashPrivate(img *sdk.Image) {
	img.RegisterECall("stash_private", func(env *sdk.Env, args []byte) ([]byte, error) {
		addr, err := env.Malloc(len(args))
		if err != nil {
			return nil, err
		}
		if err := env.Write(addr, args); err != nil {
			return nil, err
		}
		return le64(uint64(addr)), nil
	})
}

func registerLibProbe(img *sdk.Image) {
	img.RegisterECall("lib_probe", func(env *sdk.Env, args []byte) ([]byte, error) {
		addr := isa.VAddr(readLE64(args[:8]))
		return env.Read(addr, int(readLE64(args[8:16])))
	})
}

// BuildMLService deploys the case study.
func BuildMLService(r *Rig, nested bool) (*MLService, error) {
	ms := &MLService{Nested: nested, key: [16]byte{0x42}}

	if !nested {
		img := sdk.NewImage("ml-service", 0x1000_0000, sdk.DefaultLayout())
		registerStashPrivate(img)
		registerLibProbe(img)
		img.RegisterECall("ml_train", func(env *sdk.Env, args []byte) ([]byte, error) {
			f, err := decryptAndFilter(ms.key, args)
			if err != nil {
				return nil, err
			}
			return runSVM(f, true, &ms.model, nil)
		})
		img.RegisterECall("ml_predict", func(env *sdk.Env, args []byte) ([]byte, error) {
			f, err := decryptAndFilter(ms.key, args)
			if err != nil {
				return nil, err
			}
			return runSVM(nil, false, &ms.model, f.X)
		})
		e, err := r.LoadSolo(img)
		if err != nil {
			return nil, err
		}
		ms.User, ms.Lib = e, e
		return ms, nil
	}

	libImg := sdk.NewImage("libsvm", 0x2000_0000, sdk.DefaultLayout())   // PORT: shared library image
	userImg := sdk.NewImage("ml-user", 0x1000_0000, sdk.DefaultLayout()) // PORT: per-user image
	registerStashPrivate(userImg)
	registerLibProbe(libImg)
	libImg.RegisterNOCall("svm_train", func(env *sdk.Env, args []byte) ([]byte, error) { // PORT: library entry via n_ocall
		var f mlFiltered
		if err := gobDecode(args, &f); err != nil { // PORT: filtered data crosses the boundary
			return nil, err
		}
		return runSVM(&f, true, &ms.model, nil)
	})
	libImg.RegisterNOCall("svm_predict", func(env *sdk.Env, args []byte) ([]byte, error) { // PORT:
		var f mlFiltered
		if err := gobDecode(args, &f); err != nil { // PORT:
			return nil, err
		}
		return runSVM(nil, false, &ms.model, f.X)
	})
	userImg.RegisterECall("ml_train", func(env *sdk.Env, args []byte) ([]byte, error) {
		f, err := decryptAndFilter(ms.key, args)
		if err != nil {
			return nil, err
		}
		return env.NOCall("svm_train", gobEncode(f)) // PORT: call the isolated library
	})
	userImg.RegisterECall("ml_predict", func(env *sdk.Env, args []byte) ([]byte, error) {
		f, err := decryptAndFilter(ms.key, args)
		if err != nil {
			return nil, err
		}
		return env.NOCall("svm_predict", gobEncode(f)) // PORT:
	})
	user, lib, err := r.LoadPair(userImg, libImg) // PORT: NASSO association
	if err != nil {
		return nil, err
	}
	ms.User, ms.Lib = user, lib
	return ms, nil
}

// Train submits an encrypted training request: the client ecalls into its
// per-user (inner) enclave, which reaches the library via n_ocall — the
// paper's Figure-8 flow.
func (ms *MLService) Train(ct []byte) ([]byte, error) {
	return ms.User.ECall("ml_train", ct)
}

// Predict submits an encrypted prediction request.
func (ms *MLService) Predict(ct []byte) ([]byte, error) {
	return ms.User.ECall("ml_predict", ct)
}

// EncryptRequest is the client side: serialize and seal a request.
func (ms *MLService) EncryptRequest(X [][]float64, Y []int, sensitive []int) []byte {
	aead := mlAEAD(ms.key)
	return aead.Seal(nil, make([]byte, aead.NonceSize()), gobEncode(mlRequest{X: X, Y: Y, Sensitive: sensitive}), nil)
}
