package bench

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"nestedenclave/internal/cache"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/phys"
	"nestedenclave/internal/sdk"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// This file reproduces Figure 11 (§VI-C): the throughput of inter-enclave
// communication through the shared outer enclave's memory (protected by the
// MEE below the cache — "MEE") versus the conventional enclave-to-enclave
// channel through untrusted memory with software AES-GCM ("GCM").
//
// Following the paper's methodology, one side writes chunk-sized messages
// across a footprint-sized buffer and the peer reads them back:
//
//   - MEE: the buffer lives in outer-enclave memory shared by two inner
//     enclaves; the hardware protects it, no software crypto runs, and while
//     the footprint fits in the LLC the memory encryption engine is never
//     invoked at all.
//   - GCM: the buffer lives in untrusted memory between two monolithic
//     enclaves; every message is sealed and opened with AES-GCM.
//
// Throughput is computed from the simulated cycle clock: the memory system
// charges LLC hits/misses and MEE line operations as they happen, and the
// GCM variant additionally charges the software-crypto cost model
// (trace.GCMCycles). The crypto also actually executes, so the reader's
// authentication doubles as a correctness check.

// Figure11Row is one point group.
type Figure11Row struct {
	FootprintMB int
	ChunkBytes  int
	MEEGBps     float64
	GCMGBps     float64
	// Speedup is MEE/GCM (the paper reports up to 29.9x for small chunks).
	Speedup float64
}

// Figure11Chunks are the default message sizes.
func Figure11Chunks() []int { return []int{64, 256, 1024, 4096, 16384, 65536} }

// Figure11Footprints returns footprints in MB around the 8 MiB LLC.
func Figure11Footprints() []int { return []int{4, 16} }

func figure11Machine(footprintMB int) sgx.Config {
	prm := uint64(footprintMB+48) << 20
	return sgx.Config{
		Cores: 4,
		Phys: phys.Layout{
			DRAMSize: prm + (96 << 20),
			PRMBase:  32 << 20,
			PRMSize:  prm,
		},
		LLC:     cache.DefaultConfig(), // 8 MiB
		Nesting: sgx.TwoLevel(),
	}
}

// pumpArgs packs the pump parameters. Messages are written into
// chunk-aligned slots cycling across the footprint; start is the global
// message index of the first message in this round, so each write/read
// round covers at most slots messages and never overwrites an unread slot.
func pumpArgs(base isa.VAddr, footprint, stride, count, start int) []byte {
	b := make([]byte, 40)
	binary.LittleEndian.PutUint64(b[0:], uint64(base))
	binary.LittleEndian.PutUint64(b[8:], uint64(footprint))
	binary.LittleEndian.PutUint64(b[16:], uint64(stride))
	binary.LittleEndian.PutUint64(b[24:], uint64(count))
	binary.LittleEndian.PutUint64(b[32:], uint64(start))
	return b
}

func unpackPump(args []byte) (base isa.VAddr, footprint, stride, count, start int) {
	return isa.VAddr(binary.LittleEndian.Uint64(args[0:])),
		int(binary.LittleEndian.Uint64(args[8:])),
		int(binary.LittleEndian.Uint64(args[16:])),
		int(binary.LittleEndian.Uint64(args[24:])),
		int(binary.LittleEndian.Uint64(args[32:]))
}

// registerMEEPump installs plain write/read pumps (no software crypto).
func registerMEEPump(img *sdk.Image) {
	img.RegisterECall("pump_write", func(env *sdk.Env, args []byte) ([]byte, error) {
		base, footprint, stride, count, start := unpackPump(args)
		slots := footprint / stride
		payload := bytes.Repeat([]byte{0x5c}, stride)
		for j := 0; j < count; j++ {
			i := start + j
			off := (i % slots) * stride
			payload[0] = byte(i)
			if err := env.Write(base+isa.VAddr(off), payload); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	img.RegisterECall("pump_read", func(env *sdk.Env, args []byte) ([]byte, error) {
		base, footprint, stride, count, start := unpackPump(args)
		slots := footprint / stride
		// One buffer for every message: a Read result would stay on the
		// core's stack until the call returns, up to the whole footprint.
		got := make([]byte, stride)
		for j := 0; j < count; j++ {
			i := start + j
			off := (i % slots) * stride
			if err := env.ReadInto(base+isa.VAddr(off), got); err != nil {
				return nil, err
			}
			if got[0] != byte(i) || got[stride-1] != 0x5c {
				return nil, fmt.Errorf("comm: message %d corrupted", i)
			}
		}
		return nil, nil
	})
}

// registerGCMPump installs pumps that seal/open each message with AES-GCM
// and charge the software-crypto cycle model.
func registerGCMPump(img *sdk.Image, key [16]byte, rec *trace.Recorder) {
	newAEAD := func() cipher.AEAD {
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
	nonce := func(i int) []byte {
		n := make([]byte, 12)
		binary.LittleEndian.PutUint64(n, uint64(i))
		return n
	}
	img.RegisterECall("pump_write", func(env *sdk.Env, args []byte) ([]byte, error) {
		base, footprint, stride, count, start := unpackPump(args)
		chunk := stride - 16 // AES-GCM tag overhead
		slots := footprint / stride
		aead := newAEAD()
		payload := bytes.Repeat([]byte{0x5c}, chunk)
		for j := 0; j < count; j++ {
			i := start + j
			off := (i % slots) * stride
			payload[0] = byte(i)
			ct := aead.Seal(nil, nonce(i), payload, nil)
			rec.Advance(trace.GCMCycles(chunk))
			if err := env.Write(base+isa.VAddr(off), ct); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	img.RegisterECall("pump_read", func(env *sdk.Env, args []byte) ([]byte, error) {
		base, footprint, stride, count, start := unpackPump(args)
		chunk := stride - 16
		slots := footprint / stride
		aead := newAEAD()
		ct := make([]byte, stride) // reused, as in the plain pump
		for j := 0; j < count; j++ {
			i := start + j
			off := (i % slots) * stride
			if err := env.ReadInto(base+isa.VAddr(off), ct); err != nil {
				return nil, err
			}
			pt, err := aead.Open(nil, nonce(i), ct, nil)
			rec.Advance(trace.GCMCycles(chunk))
			if err != nil {
				return nil, fmt.Errorf("comm: GCM authentication failed at message %d: %w", i, err)
			}
			if pt[0] != byte(i) {
				return nil, fmt.Errorf("comm: message %d corrupted", i)
			}
		}
		return nil, nil
	})
}

// figure11MEE measures the outer-memory channel, returning cycles consumed.
func figure11MEE(footprint, chunk, count int) (int64, error) {
	r, err := NewRig(figure11Machine(footprint >> 20))
	if err != nil {
		return 0, err
	}
	heapPages := footprint/isa.PageSize + 8
	outerImg := sdk.NewImage("ch-outer", 0x40_0000_0000, sdk.Layout{CodePages: 2, DataPages: 2, HeapPages: heapPages, NumTCS: 2})
	prodImg := sdk.NewImage("producer", 0x1000_0000, sdk.DefaultLayout())
	consImg := sdk.NewImage("consumer", 0x5000_0000, sdk.DefaultLayout())
	registerMEEPump(prodImg)
	registerMEEPump(consImg)
	_, peers, err := r.LoadShared(outerImg, prodImg, consImg)
	if err != nil {
		return 0, err
	}
	base := outerImg.HeapBase()
	start := r.M.Rec.Cycles()
	if err := runPump(peers[0], peers[1], base, footprint, chunk, count); err != nil {
		return 0, err
	}
	return r.M.Rec.Cycles() - start, nil
}

// runPump drives write/read rounds sized to the slot count, so no unread
// slot is ever overwritten.
func runPump(prod, cons *sdk.Enclave, base isa.VAddr, footprint, stride, count int) error {
	slots := footprint / stride
	if slots == 0 {
		return fmt.Errorf("comm: footprint %d too small for stride %d", footprint, stride)
	}
	for start := 0; start < count; start += slots {
		n := min(slots, count-start)
		if _, err := prod.ECall("pump_write", pumpArgs(base, footprint, stride, n, start)); err != nil {
			return err
		}
		if _, err := cons.ECall("pump_read", pumpArgs(base, footprint, stride, n, start)); err != nil {
			return err
		}
	}
	return nil
}

// figure11GCM measures the untrusted-memory + AES-GCM channel.
func figure11GCM(footprint, chunk, count int) (int64, error) {
	r, err := NewRig(figure11Machine(footprint >> 20))
	if err != nil {
		return 0, err
	}
	key := [16]byte{9}
	prodImg := sdk.NewImage("producer", 0x1000_0000, sdk.DefaultLayout())
	consImg := sdk.NewImage("consumer", 0x5000_0000, sdk.DefaultLayout())
	registerGCMPump(prodImg, key, r.M.Rec)
	registerGCMPump(consImg, key, r.M.Rec)
	prod, err := r.LoadSolo(prodImg)
	if err != nil {
		return 0, err
	}
	cons, err := r.LoadSolo(consImg)
	if err != nil {
		return 0, err
	}
	// The shared buffer lives in untrusted memory. The stride accounts for
	// the per-message GCM tag.
	base, err := r.Host.Proc.Mmap(footprint+isa.PageSize, isa.PermRW)
	if err != nil {
		return 0, err
	}
	start := r.M.Rec.Cycles()
	if err := runPump(prod, cons, base, footprint, chunk+16, count); err != nil {
		return 0, err
	}
	return r.M.Rec.Cycles() - start, nil
}

// Figure11 runs the sweep. bytesPerRun bounds the traffic per measurement
// (zero: 2x the footprint, so the buffer fully cycles).
func Figure11(footprintsMB, chunks []int, bytesPerRun int) ([]Figure11Row, error) {
	if len(footprintsMB) == 0 {
		footprintsMB = Figure11Footprints()
	}
	if len(chunks) == 0 {
		chunks = Figure11Chunks()
	}
	var rows []Figure11Row
	for _, fp := range footprintsMB {
		footprint := fp << 20
		for _, chunk := range chunks {
			traffic := bytesPerRun
			if traffic <= 0 {
				traffic = 2 * footprint
			}
			count := max(traffic/chunk, 16)
			meeCycles, err := figure11MEE(footprint, chunk, count)
			if err != nil {
				return nil, fmt.Errorf("MEE fp=%dMB chunk=%d: %w", fp, chunk, err)
			}
			gcmCycles, err := figure11GCM(footprint, chunk, count)
			if err != nil {
				return nil, fmt.Errorf("GCM fp=%dMB chunk=%d: %w", fp, chunk, err)
			}
			bytesMoved := float64(count * chunk * 2) // write + read
			toGBps := func(cycles int64) float64 {
				seconds := float64(cycles) / (CPUFreqGHz * 1e9)
				return bytesMoved / seconds / 1e9
			}
			row := Figure11Row{
				FootprintMB: fp,
				ChunkBytes:  chunk,
				MEEGBps:     toGBps(meeCycles),
				GCMGBps:     toGBps(gcmCycles),
			}
			row.Speedup = row.MEEGBps / row.GCMGBps
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderFigure11 formats the rows.
func RenderFigure11(rows []Figure11Row) *Table {
	t := &Table{
		Title:   "Figure 11 — intra-enclave channel (MEE) vs AES-GCM over untrusted memory",
		Headers: []string{"Footprint", "Chunk", "MEE GB/s", "GCM GB/s", "MEE/GCM"},
		Notes: []string{
			"simulated-cycle throughput at 4 GHz; LLC is 8 MiB",
			"paper: up to 29.9x for small chunks; advantage largest while the footprint fits in the cache",
		},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%dMB", r.FootprintMB), byteSize(r.ChunkBytes),
			f2(r.MEEGBps), f2(r.GCMGBps), f2(r.Speedup))
	}
	return t
}
