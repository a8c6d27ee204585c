package bench

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// recordingHostile answers every decision point honestly and counts each
// call.
type recordingHostile struct {
	sgx.Honest
	mu    sync.Mutex
	calls map[string]int
}

func (h *recordingHostile) count(point string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls[point]++
}

func (h *recordingHostile) Preempt(c *sgx.Core) error {
	h.count("Preempt")
	return h.Honest.Preempt(c)
}

func (h *recordingHostile) Disturb(ct []byte) {
	h.count("Disturb")
	h.Honest.Disturb(ct)
}

func (h *recordingHostile) AllocEPC() error {
	h.count("AllocEPC")
	return h.Honest.AllocEPC()
}

func (h *recordingHostile) DeliverIPI(victim isa.EID, core int) bool {
	h.count("DeliverIPI")
	return h.Honest.DeliverIPI(victim, core)
}

func (h *recordingHostile) Evicted(owner isa.EID, vpage isa.VAddr, blob *sgx.EvictedPage) {
	h.count("Evicted")
	h.Honest.Evicted(owner, vpage, blob)
}

func (h *recordingHostile) Reload(owner isa.EID, vpage isa.VAddr, genuine *sgx.EvictedPage) *sgx.EvictedPage {
	h.count("Reload")
	return h.Honest.Reload(owner, vpage, genuine)
}

func (h *recordingHostile) Remap(owner isa.EID, vpage isa.VAddr, loaded isa.PAddr) isa.PAddr {
	h.count("Remap")
	return h.Honest.Remap(owner, vpage, loaded)
}

func (h *recordingHostile) Route(channel string, log [][]byte, msg []byte) [][]byte {
	h.count("Route")
	return h.Honest.Route(channel, log, msg)
}

// hostilePlaneWorkload drives a rig through all eight decision points, with
// h installed as its platform (nil leaves it at Honest), and returns the
// rig's recorder.
func hostilePlaneWorkload(t *testing.T, h sgx.Hostile) *trace.Recorder {
	t.Helper()
	// The tiny LLC keeps line fills flowing through the MEE (Disturb).
	r, err := NewRig(chaosMachine())
	if err != nil {
		t.Fatal(err)
	}
	if h != nil {
		r.M.SetHostile(h)
	}
	kv, err := buildKV(r, "victim", 0x1000_0000) // EADD (AllocEPC)
	if err != nil {
		t.Fatal(err)
	}
	want := kvPayload(0x5A)
	if _, err := kv.encl.ECall("put", want); err != nil {
		t.Fatal(err)
	}
	c, err := pinReader(r, kv, want)
	if err != nil {
		t.Fatal(err)
	}
	// ETRACK names the pinned reader's core (DeliverIPI); EWB stores the
	// blob (Evicted).
	if err := r.K.Driver.EvictPage(r.Host.Proc, kv.encl.SECS(), kv.vpage()); err != nil {
		t.Fatal(err)
	}
	// The reader's next access faults into ELDU (Reload, Remap).
	got, err := c.Read(kv.bufV, kvBytes)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after reload: %v", err)
	}
	if err := r.M.EExit(c, true); err != nil {
		t.Fatal(err)
	}
	tx, rx, err := advChannelPair(r, "plane", 8)
	if err != nil {
		t.Fatal(err)
	}
	tx.Send([]byte("ping")) // Route
	if pt, ok, err := rx.Recv(); err != nil || !ok || string(pt) != "ping" {
		t.Fatalf("channel recv: %q ok=%v err=%v", pt, ok, err)
	}
	return r.M.Rec
}

// TestHostilePlaneCoverage shows that every decision point consults the one
// installed platform, and that a platform embedding Honest behaves exactly
// like the default: same simulated cycles, same event counters.
func TestHostilePlaneCoverage(t *testing.T) {
	rec := &recordingHostile{calls: make(map[string]int)}
	got := hostilePlaneWorkload(t, rec)
	points := reflect.TypeOf((*sgx.Hostile)(nil)).Elem()
	for i := 0; i < points.NumMethod(); i++ {
		if name := points.Method(i).Name; rec.calls[name] == 0 {
			t.Errorf("decision point %s was never consulted", name)
		}
	}
	t.Logf("calls: %v", rec.calls)
	honest := hostilePlaneWorkload(t, nil)
	if got.Cycles() != honest.Cycles() {
		t.Errorf("recording platform ran %d cycles, honest %d", got.Cycles(), honest.Cycles())
	}
	if g, h := got.Snapshot(), honest.Snapshot(); !reflect.DeepEqual(g, h) {
		t.Errorf("counters differ:\n recording %v\n honest    %v", g, h)
	}
}
