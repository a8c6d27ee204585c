package bench

import (
	"encoding/binary"

	"nestedenclave/internal/channel"
	"nestedenclave/internal/isa"
	"nestedenclave/internal/sdk"
)

// newChannelRig deploys an outer enclave hosting a ring-buffer channel and
// two peer inner enclaves that use it, plus a kernel-side snoop hook.
func newChannelRig(r *Rig) (*deployedChannel, error) {
	const ringSize = 4096
	outerImg := sdk.NewImage("ch-outer", 0x2000_0000, sdk.DefaultLayout())
	in1Img := sdk.NewImage("ch-in1", 0x1000_0000, sdk.DefaultLayout())
	in2Img := sdk.NewImage("ch-in2", 0x4000_0000, sdk.DefaultLayout())
	for _, img := range []*sdk.Image{outerImg, in1Img, in2Img} {
		registerChannelEntries(img)
	}
	outer, peers, err := r.LoadShared(outerImg, in1Img, in2Img)
	if err != nil {
		return nil, err
	}

	base := outerImg.HeapBase()
	argsFor := func(payload []byte) []byte {
		b := make([]byte, 16, 16+len(payload))
		binary.LittleEndian.PutUint64(b[0:], uint64(base))
		binary.LittleEndian.PutUint64(b[8:], ringSize)
		return append(b, payload...)
	}
	if _, err := outer.ECall("ch_init", argsFor(nil)); err != nil {
		return nil, err
	}
	return &deployedChannel{
		in1:     peers[0].ECall,
		in2:     peers[1].ECall,
		argsFor: argsFor,
		snoopBase: func(n int) ([]byte, error) {
			c := r.M.Core(0)
			if err := r.K.Schedule(c, r.Host.Proc); err != nil {
				return nil, err
			}
			return c.Read(base, n)
		},
	}, nil
}

// registerChannelEntries installs init/send/recv entry points operating an
// OuterChannel whose base and ring size arrive in the arguments.
func registerChannelEntries(img *sdk.Image) {
	decode := func(args []byte) (*channel.OuterChannel, []byte, error) {
		base := isa.VAddr(binary.LittleEndian.Uint64(args[:8]))
		size := binary.LittleEndian.Uint64(args[8:16])
		ch, err := channel.NewOuter(base, size)
		return ch, args[16:], err
	}
	img.RegisterECall("ch_init", func(env *sdk.Env, args []byte) ([]byte, error) {
		ch, _, err := decode(args)
		if err != nil {
			return nil, err
		}
		return nil, ch.Init(env.C)
	})
	img.RegisterECall("ch_send", func(env *sdk.Env, args []byte) ([]byte, error) {
		ch, payload, err := decode(args)
		if err != nil {
			return nil, err
		}
		ok, err := ch.Send(env.C, payload)
		if err != nil {
			return nil, err
		}
		if !ok {
			return []byte{0}, nil
		}
		return []byte{1}, nil
	})
	img.RegisterECall("ch_recv", func(env *sdk.Env, args []byte) ([]byte, error) {
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
