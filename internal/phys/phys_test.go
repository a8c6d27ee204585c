package phys

import (
	"bytes"
	"testing"

	"nestedenclave/internal/isa"
)

func small() Layout {
	return Layout{DRAMSize: 8 << 20, PRMBase: 2 << 20, PRMSize: 4 << 20}
}

func TestLayoutValidate(t *testing.T) {
	if err := small().Validate(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	bad := []Layout{
		{DRAMSize: 0, PRMBase: 0, PRMSize: isa.PageSize},
		{DRAMSize: 1 << 20, PRMBase: 100, PRMSize: isa.PageSize},
		{DRAMSize: 1 << 20, PRMBase: 0, PRMSize: 100},
		{DRAMSize: 1 << 20, PRMBase: 0, PRMSize: 2 << 20},
		{DRAMSize: 1<<20 + 1, PRMBase: 0, PRMSize: isa.PageSize},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad layout %d accepted", i)
		}
	}
}

func TestReadWrite(t *testing.T) {
	m := MustNew(small())
	data := []byte("hello physical world")
	m.Write(0x1000, data)
	if got := m.Read(0x1000, len(data)); !bytes.Equal(got, data) {
		t.Errorf("read back %q", got)
	}
	dst := make([]byte, len(data))
	m.ReadInto(0x1000, dst)
	if !bytes.Equal(dst, data) {
		t.Errorf("ReadInto %q", dst)
	}
	m.Zero(0x1000, 5)
	if got := m.Read(0x1000, 5); !bytes.Equal(got, make([]byte, 5)) {
		t.Errorf("Zero left %v", got)
	}
}

func TestInPRM(t *testing.T) {
	m := MustNew(small())
	l := small()
	if m.InPRM(l.PRMBase - 1) {
		t.Error("byte before PRM reported inside")
	}
	if !m.InPRM(l.PRMBase) {
		t.Error("PRM base reported outside")
	}
	last := isa.PAddr(uint64(l.PRMBase) + l.PRMSize - 1)
	if !m.InPRM(last) {
		t.Error("last PRM byte reported outside")
	}
	if m.InPRM(last + 1) {
		t.Error("byte after PRM reported inside")
	}
	if !m.PageInPRM(l.PRMBase + 123) {
		t.Error("PageInPRM for interior offset")
	}
}

func TestContains(t *testing.T) {
	m := MustNew(small())
	if !m.Contains(0, int(m.Size())) {
		t.Error("full range not contained")
	}
	if m.Contains(isa.PAddr(m.Size()-1), 2) {
		t.Error("overflow range contained")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := MustNew(small())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	m.Read(isa.PAddr(m.Size()), 1)
}

func TestTamperByte(t *testing.T) {
	m := MustNew(small())
	m.Write(0x2000, []byte{0xAA})
	m.TamperByte(0x2000, 0xFF)
	if got := m.Read(0x2000, 1)[0]; got != 0x55 {
		t.Errorf("tampered byte = %#x, want 0x55", got)
	}
}

func TestLine(t *testing.T) {
	m := MustNew(small())
	m.Write(0x3000, bytes.Repeat([]byte{0xAB}, isa.LineSize))
	line := m.Line(0x3020) // interior address, same line
	if len(line) != isa.LineSize {
		t.Fatalf("line length %d", len(line))
	}
	for _, b := range line {
		if b != 0xAB {
			t.Fatalf("line content %v", line[:8])
		}
	}
}

func TestAccessAcrossFrameBoundary(t *testing.T) {
	m := MustNew(small())
	// Three frames: the write starts 10 bytes before the end of the first
	// and ends 10 bytes into the third.
	p := isa.PAddr(0x5000 - 10)
	data := make([]byte, 10+isa.PageSize+10)
	for i := range data {
		data[i] = byte(i%251) + 1
	}
	m.Write(p, data)
	if got := m.Read(p, len(data)); !bytes.Equal(got, data) {
		t.Fatal("Read across frames differs from what was written")
	}
	dst := make([]byte, len(data)+20)
	m.ReadInto(p-10, dst)
	if !bytes.Equal(dst[10:len(data)+10], data) || !bytes.Equal(dst[:10], make([]byte, 10)) ||
		!bytes.Equal(dst[len(data)+10:], make([]byte, 10)) {
		t.Fatal("ReadInto across frames differs from what was written")
	}
	m.Zero(p+5, len(data)-10)
	want := append(append(append([]byte(nil), data[:5]...), make([]byte, len(data)-10)...), data[len(data)-5:]...)
	if got := m.Read(p, len(data)); !bytes.Equal(got, want) {
		t.Fatal("Zero across frames cleared the wrong bytes")
	}
}

func TestUnwrittenFrameReadsZero(t *testing.T) {
	m := MustNew(small())
	m.Write(0x6000, []byte{0xAA}) // a neighbour exists; 0x7000's frame does not
	zero := make([]byte, isa.PageSize)
	if got := m.Read(0x7000, isa.PageSize); !bytes.Equal(got, zero) {
		t.Error("Read of an unwritten frame is not zero")
	}
	dst := bytes.Repeat([]byte{0xFF}, isa.PageSize)
	m.ReadInto(0x7000, dst)
	if !bytes.Equal(dst, zero) {
		t.Error("ReadInto of an unwritten frame left stale bytes in dst")
	}
	if got := m.Line(0x7040); !bytes.Equal(got, zero[:isa.LineSize]) {
		t.Error("Line of an unwritten frame is not zero")
	}
	if m.frames[0x7] != nil {
		t.Error("reading an unwritten frame allocated it")
	}
}

func TestTamperUnwrittenFrame(t *testing.T) {
	m := MustNew(small())
	m.TamperByte(0x8010, 0x5A)
	got := m.Read(0x8000, isa.LineSize)
	for i, b := range got {
		want := byte(0)
		if i == 0x10 {
			want = 0x5A
		}
		if b != want {
			t.Fatalf("byte %#x = %#x, want %#x", i, b, want)
		}
	}
}

func TestZeroAllocatesNothing(t *testing.T) {
	m := MustNew(small())
	m.Write(0x9000, bytes.Repeat([]byte{0xAB}, isa.PageSize))
	if n := testing.AllocsPerRun(100, func() { m.Zero(0x9000, isa.PageSize) }); n != 0 {
		t.Errorf("Zero of an existing frame: %v allocs", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.Zero(0xA000, isa.PageSize) }); n != 0 {
		t.Errorf("Zero of an unwritten frame: %v allocs", n)
	}
	if m.frames[0x9] == nil {
		t.Error("Zero freed an existing frame")
	}
	if m.frames[0xA] != nil {
		t.Error("Zero allocated an unwritten frame")
	}
}
