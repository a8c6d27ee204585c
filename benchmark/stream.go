package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"

	"nestedenclave"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
	"nestedenclave/internal/trace"
)

// outer-stream is Figure 11's channel (§VI-C): two inner enclaves share their
// outer enclave's heap. Per request the producer writes one batch of
// messages into the next slot of a footprint four times the LLC, and the
// consumer reads the batch back, checks every message's stamp and returns a
// checksum of the payloads.

const (
	streamMsgs      = 64
	streamMsgBytes  = 256
	streamBatch     = streamMsgs * streamMsgBytes
	streamFootprint = 4 << 20 // on SmallConfig's 1 MiB LLC
	streamSlots     = streamFootprint / streamBatch
	// streamBatches is the number of distinct generated batches; requests
	// cycle through them.
	streamBatches = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type streamService struct {
	sys        *nestedenclave.System
	prod, cons *nestedenclave.Enclave
	base       isa.VAddr
	// args[b] is the producer's argument for batch b: an 8-byte request
	// number, patched per request, then the batch's messages.
	args [][]byte
	sums []uint32 // oracle: payload checksum of each batch
	next uint64
	tr   *tracer
}

func prepareStream(seed int64) (func() (service, error), error) {
	rng := rand.New(rand.NewSource(seed))
	args := make([][]byte, streamBatches)
	sums := make([]uint32, streamBatches)
	for b := range args {
		a := make([]byte, 8+streamBatch)
		rng.Read(a[8:])
		var sum uint32
		for j := 0; j < streamMsgs; j++ {
			msg := a[8+j*streamMsgBytes : 8+(j+1)*streamMsgBytes]
			clear(msg[:8]) // the producer stamps these bytes
			sum = crc32.Update(sum, castagnoli, msg[8:])
		}
		args[b], sums[b] = a, sum
	}
	return func() (service, error) { return setupStream(args, sums) }, nil
}

func setupStream(args [][]byte, sums []uint32) (service, error) {
	sys, err := nestedenclave.NewSystemErr(nestedenclave.Options{Machine: sgx.SmallConfig()})
	if err != nil {
		return nil, err
	}
	s := &streamService{sys: sys, args: args, sums: sums}
	outer := nestedenclave.NewImage("ch-outer", 0x40_0000_0000,
		nestedenclave.Layout{CodePages: 2, DataPages: 2, HeapPages: streamFootprint / isa.PageSize, NumTCS: 2})
	prod := nestedenclave.NewImage("producer", 0x1000_0000, nestedenclave.DefaultLayout())
	cons := nestedenclave.NewImage("consumer", 0x5000_0000, nestedenclave.DefaultLayout())
	prod.RegisterECall("produce", s.produce)
	cons.RegisterECall("consume", s.consume)
	encs, err := loadNested(sys, outer, []*nestedenclave.Image{outer, prod, cons})
	if err != nil {
		return nil, err
	}
	s.prod, s.cons, s.base = encs[1], encs[2], outer.HeapBase()
	return s, nil
}

func (s *streamService) recorder() *trace.Recorder { return s.sys.Recorder() }

func (s *streamService) do(_ int, tr *tracer) error {
	s.tr = tr
	r := s.next
	s.next++
	b := r % streamBatches
	args := s.args[b]
	binary.LittleEndian.PutUint64(args, r)
	tr.begin(kECall)
	_, err := s.prod.ECall("produce", args)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin(kECall)
	out, err := s.cons.ECall("consume", args[:8])
	tr.end()
	if err != nil {
		return err
	}
	if len(out) != 4 || binary.LittleEndian.Uint32(out) != s.sums[b] {
		return fmt.Errorf("request %d: consumer checksum %x, want %08x", r, out, s.sums[b])
	}
	return nil
}

func (s *streamService) slot(r uint64) isa.VAddr {
	return s.base + isa.VAddr(r%streamSlots*streamBatch)
}

// produce writes request r's messages, each stamped with its global message
// number, into slot r of the shared outer heap.
func (s *streamService) produce(env *nestedenclave.Env, args []byte) ([]byte, error) {
	r := binary.LittleEndian.Uint64(args)
	at := s.slot(r)
	for j := 0; j < streamMsgs; j++ {
		msg := args[8+j*streamMsgBytes : 8+(j+1)*streamMsgBytes]
		binary.LittleEndian.PutUint64(msg, r*streamMsgs+uint64(j))
		s.tr.beginAccess()
		err := env.Write(at+isa.VAddr(j*streamMsgBytes), msg)
		s.tr.end()
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// consume reads request r's messages back, checks each stamp and returns the
// payload checksum.
func (s *streamService) consume(env *nestedenclave.Env, args []byte) ([]byte, error) {
	r := binary.LittleEndian.Uint64(args)
	at := s.slot(r)
	var sum uint32
	for j := 0; j < streamMsgs; j++ {
		s.tr.beginAccess()
		msg, err := env.Read(at+isa.VAddr(j*streamMsgBytes), streamMsgBytes)
		s.tr.end()
		if err != nil {
			return nil, err
		}
		if got, want := binary.LittleEndian.Uint64(msg), r*streamMsgs+uint64(j); got != want {
			return nil, fmt.Errorf("message %d carries stamp %d", want, got)
		}
		sum = crc32.Update(sum, castagnoli, msg[8:])
	}
	return binary.LittleEndian.AppendUint32(nil, sum), nil
}
