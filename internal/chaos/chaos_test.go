package chaos

import (
	"errors"
	"testing"

	"nestedenclave/internal/sgx"
)

// Same seed, same config → identical firing sequence.
func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Sites: map[Site]SiteConfig{
		SiteIPCDrop:  {Prob: 0.3},
		SiteEPCAlloc: {Prob: 0.1},
	}}
	a := New(cfg, nil)
	b := New(cfg, nil)
	for i := 0; i < 1000; i++ {
		site := SiteIPCDrop
		if i%3 == 0 {
			site = SiteEPCAlloc
		}
		if a.Fire(site) != b.Fire(site) {
			t.Fatalf("divergence at draw %d", i)
		}
	}
	if a.Rand(100) != b.Rand(100) {
		t.Fatalf("Rand diverged after identical draw sequence")
	}
}

func TestBudget(t *testing.T) {
	inj := New(Config{Seed: 7, Sites: map[Site]SiteConfig{
		SiteDRAMBitFlip: {Prob: 1, Budget: 3},
	}}, nil)
	fired := 0
	for i := 0; i < 100; i++ {
		if inj.Fire(SiteDRAMBitFlip) {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("budget 3 but fired %d times", fired)
	}
	if got := inj.Injected(SiteDRAMBitFlip); got != 3 {
		t.Fatalf("Injected = %d, want 3", got)
	}
}

// The runtime credits cures through From, which is nil on any platform
// other than the injector: recovery accounting must be a no-op then.
func TestNilInjectorIsInert(t *testing.T) {
	inj := From(sgx.Honest{})
	if inj != nil {
		t.Fatal("From found an injector on the honest platform")
	}
	inj.Recovered(SiteIPCDrop) // must not panic
	inj.RecoveredOn(SiteDRAMBitFlip, 0)
	if inj.RecoverFrom(&Injected{Site: SiteEPCAlloc, Transient: true}) {
		t.Fatal("nil injector credited a recovery")
	}
}

func TestProbabilityRoughlyCalibrated(t *testing.T) {
	inj := New(Config{Seed: 99, Sites: map[Site]SiteConfig{
		SiteIPCCorrupt: {Prob: 0.25},
	}}, nil)
	const n = 20000
	fired := 0
	for i := 0; i < n; i++ {
		if inj.Fire(SiteIPCCorrupt) {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("p=0.25 fired at rate %.3f", frac)
	}
}

func TestUnconfiguredSiteNeverFires(t *testing.T) {
	inj := New(Config{Seed: 1, Sites: map[Site]SiteConfig{
		SiteIPCDrop: {Prob: 1},
	}}, nil)
	for i := 0; i < 100; i++ {
		if inj.Fire(SiteSlowCore) {
			t.Fatal("unconfigured site fired")
		}
	}
}

func TestInjectedErrorClassification(t *testing.T) {
	tr := &Injected{Site: SiteEPCAlloc, Transient: true}
	if !errors.Is(tr, ErrTransient) {
		t.Fatal("transient injected error does not match ErrTransient")
	}
	perm := &Injected{Site: SiteDRAMBitFlip, Transient: false}
	if errors.Is(perm, ErrTransient) {
		t.Fatal("permanent injected error matches ErrTransient")
	}

	inj := New(Config{Seed: 5, Sites: map[Site]SiteConfig{
		SiteEPCAlloc: {Prob: 1},
	}}, nil)
	err := inj.FireErr(SiteEPCAlloc, true)
	if err == nil {
		t.Fatal("p=1 FireErr returned nil")
	}
	if !inj.RecoverFrom(err) {
		t.Fatal("RecoverFrom rejected its own injected error")
	}
	st := inj.Stats()["epc_alloc"]
	if st.Injected != 1 || st.Recovered != 1 {
		t.Fatalf("stats = %+v, want 1/1", st)
	}
}

func TestBurst(t *testing.T) {
	inj := New(Config{Seed: 3, Sites: map[Site]SiteConfig{
		SiteAEXStorm: {Prob: 1, Burst: 5},
	}}, nil)
	if got := inj.Burst(SiteAEXStorm); got != 5 {
		t.Fatalf("Burst = %d, want 5", got)
	}
	if got := inj.Burst(SiteIPCDup); got != 1 {
		t.Fatalf("default Burst = %d, want 1", got)
	}
}

func TestMixIsDeterministic(t *testing.T) {
	if Mix(123) != Mix(123) {
		t.Fatal("Mix not deterministic")
	}
	if Mix(1) == Mix(2) {
		t.Fatal("Mix(1) == Mix(2): suspicious")
	}
}
