package talloc

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"nestedenclave/internal/isa"
)

// heapModel is the reference allocator: the same first fit, but a free
// list kept by appending each extent, sorting by address, and coalescing
// touching neighbours.
type heapModel struct {
	free []extent
	live map[isa.VAddr]uint64
}

func (m *heapModel) insert(e extent) {
	m.free = append(m.free, e)
	sort.Slice(m.free, func(i, j int) bool { return m.free[i].addr < m.free[j].addr })
	out := m.free[:0]
	for _, e := range m.free {
		if len(out) > 0 && out[len(out)-1].addr+isa.VAddr(out[len(out)-1].len) == e.addr {
			out[len(out)-1].len += e.len
		} else {
			out = append(out, e)
		}
	}
	m.free = out
}

func (m *heapModel) alloc(n int) (isa.VAddr, bool) {
	need := (uint64(n) + 7) &^ 7
	for i := range m.free {
		if m.free[i].len >= need {
			addr := m.free[i].addr
			m.free[i].addr += isa.VAddr(need)
			m.free[i].len -= need
			if m.free[i].len == 0 {
				m.free = append(m.free[:i], m.free[i+1:]...)
			}
			m.live[addr] = need
			return addr, true
		}
	}
	return 0, false
}

func (m *heapModel) extend(addr isa.VAddr, size uint64) bool {
	overlaps := func(a isa.VAddr, n uint64) bool {
		return uint64(addr) < uint64(a)+n && uint64(a) < uint64(addr)+size
	}
	for _, e := range m.free {
		if overlaps(e.addr, e.len) {
			return false
		}
	}
	for a, n := range m.live {
		if overlaps(a, n) {
			return false
		}
	}
	m.insert(extent{addr: addr, len: size})
	return true
}

// TestFreeListMatchesSortModel: random Alloc/Free/Extend sequences return
// the same addresses and errors as the sort-and-coalesce model, and leave
// the same free list after every step. Frees pick any live allocation, so
// extents merge with the left, the right, both, or neither neighbour;
// extensions land touching the heap's top or bottom, past a gap, or on top
// of existing memory.
func TestFreeListMatchesSortModel(t *testing.T) {
	type op struct {
		Kind uint8
		Size uint16
		Pick uint8
	}
	const base, size = isa.VAddr(0x10_0000), uint64(0x1000)
	f := func(ops []op) bool {
		h := New(base, size)
		m := &heapModel{free: []extent{{addr: base, len: size}}, live: map[isa.VAddr]uint64{}}
		var live []isa.VAddr
		lo, hi := base, base+isa.VAddr(size)
		for step, o := range ops {
			switch o.Kind % 4 {
			case 0, 1:
				n := int(o.Size%300) + 1
				got, err := h.Alloc(n)
				want, ok := m.alloc(n)
				if (err == nil) != ok || got != want {
					t.Logf("step %d: Alloc(%d) = %#x, %v; model %#x, %v", step, n, uint64(got), err, uint64(want), ok)
					return false
				}
				if ok {
					live = append(live, got)
				}
			case 2:
				if len(live) == 0 {
					continue
				}
				i := int(o.Pick) % len(live)
				a := live[i]
				live = append(live[:i], live[i+1:]...)
				if err := h.Free(a); err != nil {
					t.Logf("step %d: Free(%#x): %v", step, uint64(a), err)
					return false
				}
				m.insert(extent{addr: a, len: m.live[a]})
				delete(m.live, a)
			default:
				n := uint64(o.Size%4+1) * 64
				gap := isa.VAddr(o.Pick/3%2) * 32
				var at isa.VAddr
				switch o.Pick % 3 {
				case 0: // above the top
					at = hi + gap
				case 1: // below the bottom
					at = lo - gap - isa.VAddr(n)
				default: // over existing memory
					at = lo + isa.VAddr(o.Size)%(hi-lo)
				}
				err := h.Extend(at, n)
				if ok := m.extend(at, n); (err == nil) != ok {
					t.Logf("step %d: Extend(%#x, %d) = %v; model accepted %v", step, uint64(at), n, err, ok)
					return false
				}
				if err == nil {
					lo, hi = min(lo, at), max(hi, at+isa.VAddr(n))
				}
			}
			if !reflect.DeepEqual(h.free, m.free) {
				t.Logf("step %d: free list %v; model %v", step, h.free, m.free)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
