package core_test

import (
	"bytes"
	"strings"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/kos"
	"nestedenclave/internal/measure"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

type rig struct {
	m    *sgx.Machine
	k    *kos.Kernel
	host *sdk.Host
}

func newRig(t *testing.T, nesting sgx.NestingConfig) *rig {
	t.Helper()
	cfg := sgx.SmallConfig()
	cfg.Nesting = nesting
	m := sgx.MustNew(cfg)
	k := kos.New(m)
	return &rig{m: m, k: k, host: sdk.NewHost(k)}
}

// sweepLLC evicts every line the LLC holds, writing dirty ones back through
// the MEE: core 0 reads, out of enclave mode, untrusted memory twice the
// LLC's size, after which each set's LRU ways hold only the sweep's clean
// lines.
func sweepLLC(t *testing.T, r *rig) {
	t.Helper()
	n := 2 * sgx.SmallConfig().LLC.SizeBytes
	buf, err := r.host.Proc.Mmap(n, isa.PermR)
	if err != nil {
		t.Fatal(err)
	}
	c := r.m.Core(0)
	if err := r.k.Schedule(c, r.host.Proc); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < n; off += isa.PageSize {
		if _, err := c.Read(buf+isa.VAddr(off), isa.PageSize); err != nil {
			t.Fatal(err)
		}
	}
}

// nestedFrames reports the core's enclave context as the current enclave
// and whether its TCS holds a suspended outer frame, the state a nested
// entry sets up and AEX/ERESUME must preserve.
func nestedFrames(c *sgx.Core) (cur *sgx.SECS, nested bool) {
	if cur = c.Current(); cur == nil {
		return nil, false
	}
	return cur, c.CurrentTCS().Ret()
}

// loadPair builds, signs (with mutual expectations) and loads an inner/outer
// pair plus associates them.
func loadPair(t *testing.T, r *rig, innerBase, outerBase isa.VAddr) (inner, outer *sdk.Enclave) {
	t.Helper()
	innerImg := sdk.NewImage("inner", innerBase, sdk.DefaultLayout())
	outerImg := sdk.NewImage("outer", outerBase, sdk.DefaultLayout())
	registerProbes(innerImg)
	registerProbes(outerImg)
	si := innerImg.Sign(measure.MustNewAuthor(), []measure.Digest{outerImg.Measure()}, nil)
	so := outerImg.Sign(measure.MustNewAuthor(), nil, []measure.Digest{innerImg.Measure()})
	var err error
	if outer, err = r.host.Load(so); err != nil {
		t.Fatal(err)
	}
	if inner, err = r.host.Load(si); err != nil {
		t.Fatal(err)
	}
	if err := r.host.Associate(inner, outer); err != nil {
		t.Fatalf("associate: %v", err)
	}
	return inner, outer
}

// registerProbes adds generic read/write entry points used across tests.
func registerProbes(img *sdk.Image) {
	img.RegisterECall("write", func(env *sdk.Env, args []byte) ([]byte, error) {
		// args: 8-byte little-endian vaddr followed by data.
		v := isa.VAddr(le64(args[:8]))
		return nil, env.Write(v, args[8:])
	})
	img.RegisterECall("read", func(env *sdk.Env, args []byte) ([]byte, error) {
		// args: 8-byte vaddr, 8-byte length.
		return env.Read(isa.VAddr(le64(args[:8])), int(le64(args[8:16])))
	})
}

func le64(b []byte) uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x |= uint64(b[i]) << (8 * i)
	}
	return x
}

func putLE64(x uint64) []byte {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte(x >> (8 * i))
	}
	return b
}

func readArgs(v isa.VAddr, n int) []byte {
	return append(putLE64(uint64(v)), putLE64(uint64(n))...)
}

func writeArgs(v isa.VAddr, data []byte) []byte {
	return append(putLE64(uint64(v)), data...)
}

func TestNASSORequiresInitializedEnclaves(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	s1, err := r.m.ECreate(0x100000, isa.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.m.ECreate(0x200000, isa.PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.m.NASSO(s1, s2); err == nil {
		t.Fatal("NASSO of uninitialized enclaves accepted")
	}
	if err := r.m.NASSO(nil, s2); err == nil {
		t.Fatal("NASSO with nil enclave accepted")
	}
	if err := r.m.NASSO(s1, s1); err == nil {
		t.Fatal("self-nesting accepted")
	}
}

func TestNASSODoubleAssociationRejected(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	inner, outer := loadPair(t, r, 0x1000_0000, 0x2000_0000)
	err := r.m.NASSO(inner.SECS(), outer.SECS())
	if err == nil || !strings.Contains(err.Error(), "already associated") {
		t.Fatalf("re-association: %v", err)
	}
}

func TestNASSOSingleOuterModel(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	innerImg := sdk.NewImage("inner", 0x1000_0000, sdk.DefaultLayout())
	o1Img := sdk.NewImage("o1", 0x2000_0000, sdk.DefaultLayout())
	o2Img := sdk.NewImage("o2", 0x3000_0000, sdk.DefaultLayout())
	si := innerImg.Sign(measure.MustNewAuthor(),
		[]measure.Digest{o1Img.Measure(), o2Img.Measure()}, nil)
	so1 := o1Img.Sign(measure.MustNewAuthor(), nil, []measure.Digest{innerImg.Measure()})
	so2 := o2Img.Sign(measure.MustNewAuthor(), nil, []measure.Digest{innerImg.Measure()})
	inner, _ := r.host.Load(si)
	o1, _ := r.host.Load(so1)
	o2, _ := r.host.Load(so2)
	if err := r.host.Associate(inner, o1); err != nil {
		t.Fatal(err)
	}
	err := r.host.Associate(inner, o2)
	if err == nil || !strings.Contains(err.Error(), "single-outer") {
		t.Fatalf("second outer in single-outer model: %v", err)
	}
}

func TestNASSOCycleRejected(t *testing.T) {
	// Unlimited depth so the depth check doesn't trip first.
	r := newRig(t, sgx.NestingConfig{})
	aImg := sdk.NewImage("a", 0x1000_0000, sdk.DefaultLayout())
	bImg := sdk.NewImage("b", 0x2000_0000, sdk.DefaultLayout())
	// Sign both directions so only the cycle check can refuse.
	sa := aImg.Sign(measure.MustNewAuthor(), []measure.Digest{bImg.Measure()}, []measure.Digest{bImg.Measure()})
	sb := bImg.Sign(measure.MustNewAuthor(), []measure.Digest{aImg.Measure()}, []measure.Digest{aImg.Measure()})
	a, err := r.host.Load(sa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.host.Load(sb)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.host.Associate(a, b); err != nil { // a inner of b
		t.Fatal(err)
	}
	err = r.host.Associate(b, a) // b inner of a: cycle
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle association: %v", err)
	}
}

func TestNASSODepthLimit(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	aImg := sdk.NewImage("a", 0x1000_0000, sdk.DefaultLayout())
	bImg := sdk.NewImage("b", 0x2000_0000, sdk.DefaultLayout())
	cImg := sdk.NewImage("c", 0x3000_0000, sdk.DefaultLayout())
	sa := aImg.Sign(measure.MustNewAuthor(), []measure.Digest{bImg.Measure()}, nil)
	sb := bImg.Sign(measure.MustNewAuthor(), []measure.Digest{cImg.Measure()}, []measure.Digest{aImg.Measure()})
	sc := cImg.Sign(measure.MustNewAuthor(), nil, []measure.Digest{bImg.Measure()})
	a, _ := r.host.Load(sa)
	b, _ := r.host.Load(sb)
	c, _ := r.host.Load(sc)
	if err := r.host.Associate(a, b); err != nil {
		t.Fatal(err)
	}
	err := r.host.Associate(b, c) // would make a 3-deep chain
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("over-deep association: %v", err)
	}
}

func TestNASSOOverlappingELRANGERejected(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	innerImg := sdk.NewImage("inner", 0x1000_0000, sdk.DefaultLayout())
	outerImg := sdk.NewImage("outer", 0x1000_0000, sdk.DefaultLayout()) // same base
	si := innerImg.Sign(measure.MustNewAuthor(), []measure.Digest{outerImg.Measure()}, nil)
	so := outerImg.Sign(measure.MustNewAuthor(), nil, []measure.Digest{innerImg.Measure()})
	// Load into two separate processes so the identical ELRANGEs can both
	// exist (the pages map at the same vaddr in different page tables).
	inner, err := r.host.Load(si)
	if err != nil {
		t.Fatal(err)
	}
	host2 := sdk.NewHost(r.k)
	outer, err := host2.Load(so)
	if err != nil {
		t.Fatal(err)
	}
	err = r.m.NASSO(inner.SECS(), outer.SECS())
	if err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlapping ELRANGE association: %v", err)
	}
}

func TestMultiLevelNesting(t *testing.T) {
	r := newRig(t, sgx.NestingConfig{}) // unlimited depth
	// C is outermost, B inside C, A inside B.
	aImg := sdk.NewImage("a", 0x1000_0000, sdk.DefaultLayout())
	bImg := sdk.NewImage("b", 0x2000_0000, sdk.DefaultLayout())
	cImg := sdk.NewImage("c", 0x3000_0000, sdk.DefaultLayout())
	registerProbes(aImg)
	registerProbes(bImg)
	registerProbes(cImg)
	sa := aImg.Sign(measure.MustNewAuthor(), []measure.Digest{bImg.Measure()}, nil)
	sb := bImg.Sign(measure.MustNewAuthor(), []measure.Digest{cImg.Measure()}, []measure.Digest{aImg.Measure()})
	sc := cImg.Sign(measure.MustNewAuthor(), nil, []measure.Digest{bImg.Measure()})
	a, _ := r.host.Load(sa)
	b, _ := r.host.Load(sb)
	c, _ := r.host.Load(sc)
	if err := r.host.Associate(b, c); err != nil {
		t.Fatal(err)
	}
	if err := r.host.Associate(a, b); err != nil {
		t.Fatal(err)
	}

	// Plant data in C's heap.
	secret := []byte("outermost-data-readable-by-all-inners")
	addr := cImg.HeapBase()
	if _, err := c.ECall("write", writeArgs(addr, secret)); err != nil {
		t.Fatal(err)
	}

	// A (two levels down) reads it through the chain traversal.
	got, err := a.ECall("read", readArgs(addr, len(secret)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("innermost read of outermost memory = %q", got)
	}
	if r.m.Rec.Get(trace.EvNestedValidate) == 0 {
		t.Fatal("nested validation branch never taken")
	}

	// The reverse direction stays blocked: C cannot read A's memory.
	aSecret := []byte("innermost-secret")
	if _, err := a.ECall("write", writeArgs(aImg.HeapBase(), aSecret)); err != nil {
		t.Fatal(err)
	}
	spy, err := c.ECall("read", readArgs(aImg.HeapBase(), len(aSecret)))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(spy, aSecret[:8]) {
		t.Fatal("outermost enclave read innermost memory")
	}
}

func TestMultipleOuterEnclaves(t *testing.T) {
	r := newRig(t, sgx.NestingConfig{MaxDepth: 2, AllowMultipleOuters: true})
	innerImg := sdk.NewImage("inner", 0x1000_0000, sdk.DefaultLayout())
	o1Img := sdk.NewImage("o1", 0x2000_0000, sdk.DefaultLayout())
	o2Img := sdk.NewImage("o2", 0x3000_0000, sdk.DefaultLayout())
	registerProbes(innerImg)
	registerProbes(o1Img)
	registerProbes(o2Img)
	si := innerImg.Sign(measure.MustNewAuthor(),
		[]measure.Digest{o1Img.Measure(), o2Img.Measure()}, nil)
	so1 := o1Img.Sign(measure.MustNewAuthor(), nil, []measure.Digest{innerImg.Measure()})
	so2 := o2Img.Sign(measure.MustNewAuthor(), nil, []measure.Digest{innerImg.Measure()})
	inner, _ := r.host.Load(si)
	o1, _ := r.host.Load(so1)
	o2, _ := r.host.Load(so2)
	if err := r.host.Associate(inner, o1); err != nil {
		t.Fatal(err)
	}
	if err := r.host.Associate(inner, o2); err != nil {
		t.Fatalf("second outer with lattice extension: %v", err)
	}

	// The inner enclave reads both outer enclaves' memory — two private
	// channels.
	d1 := []byte("channel-one-data")
	d2 := []byte("channel-two-data")
	if _, err := o1.ECall("write", writeArgs(o1Img.HeapBase(), d1)); err != nil {
		t.Fatal(err)
	}
	if _, err := o2.ECall("write", writeArgs(o2Img.HeapBase(), d2)); err != nil {
		t.Fatal(err)
	}
	g1, err := inner.ECall("read", readArgs(o1Img.HeapBase(), len(d1)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := inner.ECall("read", readArgs(o2Img.HeapBase(), len(d2)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g1, d1) || !bytes.Equal(g2, d2) {
		t.Fatalf("multi-outer reads: %q / %q", g1, g2)
	}

	// The two outer enclaves remain mutually isolated.
	spy, err := o1.ECall("read", readArgs(o2Img.HeapBase(), len(d2)))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(spy, d2[:8]) {
		t.Fatal("outer enclaves can read each other through the shared inner")
	}
}

func TestNEENTERChecks(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	inner, outer := loadPair(t, r, 0x1000_0000, 0x2000_0000)
	c := r.m.Core(0)
	if err := r.k.Schedule(c, r.host.Proc); err != nil {
		t.Fatal(err)
	}
	// NEENTER outside enclave mode is a #GP.
	tcsV := inner.Image().HeapBase() + isa.VAddr(inner.Image().HeapSize())
	if err := r.m.NEENTER(c, inner.SECS(), tcsV); err == nil {
		t.Fatal("NEENTER outside enclave accepted")
	}
	// NEEXIT outside enclave mode is a #GP.
	if err := r.m.NEEXIT(c); err == nil {
		t.Fatal("NEEXIT outside enclave accepted")
	}
	// An unrelated enclave is never a valid NEENTER target, in either
	// direction.
	strangerImg := sdk.NewImage("stranger", 0x6000_0000, sdk.DefaultLayout())
	stranger, err := r.host.Load(strangerImg.Sign(measure.MustNewAuthor(), nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	outerImg := outer.Image()
	inner.Image().RegisterECall("bad_neenter", func(env *sdk.Env, args []byte) ([]byte, error) {
		strangerTCS := strangerImg.HeapBase() + isa.VAddr(strangerImg.HeapSize())
		if err := r.m.NEENTER(env.C, stranger.SECS(), strangerTCS); err == nil {
			t.Error("NEENTER into unassociated enclave accepted")
		}
		// NEEXIT from a top-level entry is a #GP.
		if err := r.m.NEEXIT(env.C); err == nil {
			t.Error("NEEXIT without nested frame accepted")
		}
		// Upward NEENTER into the associated outer IS valid (it carries no
		// new authority — the inner already reads all outer memory).
		outerTCS := outerImg.HeapBase() + isa.VAddr(outerImg.HeapSize())
		if err := r.m.NEENTER(env.C, outer.SECS(), outerTCS); err != nil {
			t.Errorf("upward NEENTER into associated outer rejected: %v", err)
		} else if err := r.m.NEEXIT(env.C); err != nil {
			t.Errorf("NEEXIT back from upward entry: %v", err)
		}
		return nil, nil
	})
	if _, err := inner.ECall("bad_neenter", nil); err != nil {
		t.Fatal(err)
	}
}

// TestNestedTrackerRequiredForOuterEviction demonstrates §IV-E: a core
// running an inner enclave holds TLB translations for outer-enclave pages.
// The baseline thread tracker misses that core, the shootdown protocol
// under-flushes, and the hardware refuses EWB; the nested tracker finds it.
func TestNestedTrackerRequiredForOuterEviction(t *testing.T) {
	r := newRig(t, sgx.TwoLevel())
	inner, outer := loadPair(t, r, 0x1000_0000, 0x2000_0000)
	outerHeap := outer.Image().HeapBase()

	// Seed the outer page so it exists, and flush context.
	if _, err := outer.ECall("write", writeArgs(outerHeap, []byte("shared"))); err != nil {
		t.Fatal(err)
	}

	// Enter the inner enclave DIRECTLY from untrusted code (EENTER, not
	// NEENTER) and read outer memory, leaving the translation live in this
	// core's TLB; block inside the call so the context stays live.
	entered := make(chan struct{})
	release := make(chan struct{})
	inner.Image().RegisterECall("camp", func(env *sdk.Env, args []byte) ([]byte, error) {
		if _, err := env.Read(outerHeap, 6); err != nil {
			return nil, err
		}
		close(entered)
		<-release
		return nil, nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := inner.ECall("camp", nil)
		done <- err
	}()
	<-entered

	// With the BASELINE tracker the eviction protocol misses the camping
	// core: ETRACK reports nobody (no core has live context in the *outer*
	// enclave), so EWB sees the stale translation and refuses.
	r.m.Tracker = sgx.BaselineTracker{}
	err := r.k.Driver.EvictPage(r.host.Proc, outer.SECS(), outerHeap)
	if err == nil {
		t.Fatal("outer-page eviction succeeded despite a stale inner-core translation")
	}

	// With the nested-aware tracker the camping core is shot down and the
	// eviction completes.
	r.m.Tracker = sgx.InnerAwareTracker{}
	if err := r.k.Driver.EvictPage(r.host.Proc, outer.SECS(), outerHeap); err != nil {
		t.Fatalf("eviction with nested tracker: %v", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("camping ecall: %v", err)
	}
}

func TestValidationDepthCost(t *testing.T) {
	// §VIII: deeper nesting only increases validation time. Compare the
	// validate-step count for an inner access to outer memory at depth 2
	// vs depth 3.
	steps := func(depth int) int64 {
		r := newRig(t, sgx.NestingConfig{})
		imgs := make([]*sdk.Image, depth)
		encls := make([]*sdk.Enclave, depth)
		authors := make([]*measure.Author, depth)
		for i := range imgs {
			imgs[i] = sdk.NewImage(string(rune('a'+i)), isa.VAddr(0x1000_0000*(i+1)), sdk.DefaultLayout())
			registerProbes(imgs[i])
			authors[i] = measure.MustNewAuthor()
		}
		for i := range imgs {
			var outers, inners []measure.Digest
			if i+1 < depth {
				outers = append(outers, imgs[i+1].Measure())
			}
			if i > 0 {
				inners = append(inners, imgs[i-1].Measure())
			}
			si := imgs[i].Sign(authors[i], outers, inners)
			e, err := r.host.Load(si)
			if err != nil {
				t.Fatal(err)
			}
			encls[i] = e
		}
		for i := 0; i+1 < depth; i++ {
			if err := r.host.Associate(encls[i], encls[i+1]); err != nil {
				t.Fatal(err)
			}
		}
		target := imgs[depth-1].HeapBase()
		if _, err := encls[depth-1].ECall("write", writeArgs(target, []byte("x"))); err != nil {
			t.Fatal(err)
		}
		before := r.m.Rec.Get(trace.EvValidateStep)
		if _, err := encls[0].ECall("read", readArgs(target, 1)); err != nil {
			t.Fatal(err)
		}
		return r.m.Rec.Get(trace.EvValidateStep) - before
	}
	if s2, s3 := steps(2), steps(3); s3 <= s2 {
		t.Fatalf("deeper nesting did not cost more validation steps: depth2=%d depth3=%d", s2, s3)
	}
}
