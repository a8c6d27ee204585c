// Fast communication (paper §VI-C): two peer inner enclaves exchange
// messages through a ring buffer in their shared outer enclave's memory —
// hardware-protected, so no software encryption is needed and the kernel
// has no interposition point.
//
// For contrast, the same exchange runs over the monolithic-SGX path: a
// kernel IPC channel with AES-GCM, where the kernel can silently drop the
// initialization message (the Panoply attack the paper describes in
// §VII-B), leaving the receiver none the wiser.
//
// Run:  go run ./examples/fastchannel
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"

	ne "nestedenclave"
	"nestedenclave/internal/channel"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/sgx"
)

const ringSize = 4096

// dropIPC is a kernel whose IPC router drops every send.
type dropIPC struct{ sgx.Honest }

func (dropIPC) Route(string, [][]byte, []byte) [][]byte { return nil }

func chanArgs(base isa.VAddr, payload []byte) []byte {
	b := make([]byte, 16, 16+len(payload))
	binary.LittleEndian.PutUint64(b[0:], uint64(base))
	binary.LittleEndian.PutUint64(b[8:], ringSize)
	return append(b, payload...)
}

func registerRing(img *ne.Image) {
	decode := func(args []byte) (*channel.OuterChannel, []byte, error) {
		base := isa.VAddr(binary.LittleEndian.Uint64(args[:8]))
		size := binary.LittleEndian.Uint64(args[8:16])
		ch, err := channel.NewOuter(base, size)
		return ch, args[16:], err
	}
	img.RegisterECall("init", func(env *ne.Env, args []byte) ([]byte, error) {
		ch, _, err := decode(args)
		if err != nil {
			return nil, err
		}
		return nil, ch.Init(env.C)
	})
	img.RegisterECall("send", func(env *ne.Env, args []byte) ([]byte, error) {
		ch, payload, err := decode(args)
		if err != nil {
			return nil, err
		}
		ok, err := ch.Send(env.C, payload)
		if err != nil || !ok {
			return nil, fmt.Errorf("send failed: ok=%v err=%v", ok, err)
		}
		return nil, nil
	})
	img.RegisterECall("recv", func(env *ne.Env, args []byte) ([]byte, error) {
		ch, _, err := decode(args)
		if err != nil {
			return nil, err
		}
		payload, ok, err := ch.Recv(env.C)
		if err != nil {
			return nil, err
		}
		if !ok {
			return []byte{0}, nil
		}
		return append([]byte{1}, payload...), nil
	})
}

func main() {
	sys := ne.NewSystem()
	author := ne.NewAuthor()

	outerImg := ne.NewImage("channel-host", 0x9000_0000, ne.DefaultLayout())
	aImg := ne.NewImage("peer-a", 0x1000_0000, ne.DefaultLayout())
	bImg := ne.NewImage("peer-b", 0x2000_0000, ne.DefaultLayout())
	for _, img := range []*ne.Image{outerImg, aImg, bImg} {
		registerRing(img)
	}

	so := outerImg.Sign(author, nil, []ne.Digest{aImg.Measure(), bImg.Measure()})
	sa := aImg.Sign(author, []ne.Digest{outerImg.Measure()}, nil)
	sb := bImg.Sign(author, []ne.Digest{outerImg.Measure()}, nil)
	outer, err := sys.Load(so)
	if err != nil {
		log.Fatal(err)
	}
	peerA, err := sys.Load(sa)
	if err != nil {
		log.Fatal(err)
	}
	peerB, err := sys.Load(sb)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Associate(peerA, outer); err != nil {
		log.Fatal(err)
	}
	if err := sys.Associate(peerB, outer); err != nil {
		log.Fatal(err)
	}

	base := outerImg.HeapBase()
	if _, err := outer.ECall("init", chanArgs(base, nil)); err != nil {
		log.Fatal(err)
	}

	// --- The nested path: through protected outer-enclave memory. ---
	msg := []byte("INIT: register certificate verification callback")
	if _, err := peerA.ECall("send", chanArgs(base, msg)); err != nil {
		log.Fatal(err)
	}
	// The kernel tries to snoop the channel.
	c := sys.Machine.Core(0)
	if err := sys.Kernel.Schedule(c, sys.Host.Proc); err != nil {
		log.Fatal(err)
	}
	snoop, err := c.Read(base, 48)
	if err != nil {
		log.Fatal(err)
	}
	got, err := peerB.ECall("recv", chanArgs(base, nil))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("outer-enclave channel:")
	fmt.Printf("  peer B received: %v (%q)\n", got[0] == 1, got[1:])
	fmt.Printf("  kernel snoop:    % x ...\n", snoop[:12])

	// --- The monolithic-SGX path: kernel IPC + AES-GCM. ---
	// The kernel selectively drops the very message that registers the
	// verification callback.
	sys.Machine.SetHostile(dropIPC{})
	key := [16]byte{7}
	tx, err := channel.NewGCM(sys.Kernel.IPC, "verify", key)
	if err != nil {
		log.Fatal(err)
	}
	rx, err := channel.NewGCM(sys.Kernel.IPC, "verify", key)
	if err != nil {
		log.Fatal(err)
	}
	tx.Send(msg)
	_, ok, rerr := rx.Recv()
	fmt.Println("\nGCM-over-kernel-IPC channel (monolithic SGX):")
	fmt.Printf("  peer B received: %v, error: %v\n", ok, rerr)
	fmt.Println("  the drop is silent — the receiver cannot distinguish it from 'nothing sent yet',")
	fmt.Println("  so the certificate check is silently bypassed (the Panoply attack).")

	if ok || !bytes.Equal(got[1:], msg) {
		log.Fatal("unexpected outcome")
	}
}
