package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bch"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ecstripe"
	"repro/internal/pcmarray"
)

// ladder holds the replay rungs' results. Layers below the device
// boundary have no hook in the served path, so the device-call stream
// recorded during the traced run is replayed single-threaded through a
// bare device.Device, then through core.Arch, then the codecs run at
// the workload's parameters on the workload's blocks.
type ladder struct {
	deviceSelfUs               float64
	coreWriteUs, coreReadUs    float64
	allocsPerWrite, allocsRead float64
	bytesPerWrite              float64
	bchEncodeUs, bchDecodeUs   float64
	ecEncodeUs, ecReconUs      float64
}

// newArch builds the core architecture a classic shard device of the
// workload uses, with the options device.New gives it.
func newArch(w workload, blocks int, seed uint64) core.Arch {
	opt := pcmarray.DefaultOptions(seed)
	opt.EnduranceMean = 0 // wear-out off, as in the served devices
	if w.arch == device.FourLC {
		return core.NewFourLC(blocks, core.FourLCConfig{Array: opt})
	}
	return core.NewThreeLC(blocks, core.ThreeLCConfig{Array: opt})
}

// blockOp is the part of one device call that falls in one block.
type blockOp struct {
	write bool
	block int
	// lo, hi is the byte range of the block the call writes.
	lo, hi int
	data   []byte // the call's bytes for that range
}

// blockOps splits a device call at block boundaries.
func blockOps(c devCall) []blockOp {
	var ops []blockOp
	end := c.off + int64(len(c.data))
	for b := c.off / blockBytes; b*blockBytes < end; b++ {
		lo := max(c.off, b*blockBytes) - b*blockBytes
		hi := min(end, (b+1)*blockBytes) - b*blockBytes
		src := c.data[b*blockBytes+lo-c.off : b*blockBytes+hi-c.off]
		ops = append(ops, blockOp{write: c.write, block: int(b), lo: int(lo), hi: int(hi), data: src})
	}
	return ops
}

// runLadder replays calls (one shard's recorded stream) and runs the
// codec rungs on the workload's prefill blocks.
func runLadder(w workload, seed uint64, calls []devCall) (ladder, error) {
	var l ladder
	if !w.live && len(calls) > 0 {
		if err := l.replay(w, seed, calls); err != nil {
			return l, err
		}
		l.codecBCH(w, seed)
	}
	if w.coding == "rs:4+2" {
		if err := l.codecRS(w, seed); err != nil {
			return l, err
		}
	}
	return l, nil
}

// touched returns every block the calls touch, in first-touch order.
func touched(calls []devCall) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range calls {
		for _, o := range blockOps(c) {
			if !seen[o.block] {
				seen[o.block] = true
				out = append(out, o.block)
			}
		}
	}
	return out
}

func (l *ladder) replay(w workload, seed uint64, calls []devCall) error {
	blocks := w.nodeBytes / blockBytes / w.shards // one shard, as recorded
	initial := touched(calls)

	// Device rung: a bare device. Core rung: the block ops device.Device
	// performs for each call (a read per block read; for a write, a read
	// of each partly covered block, then a program per block). Both
	// start from an untimed write of every block the stream touches, and
	// the rungs alternate call by call so that machine noise hits both.
	dev, err := device.New(device.Config{
		Kind: w.arch, Blocks: blocks, Seed: derive(seed, w.name, "replay"), DisableWearout: true,
	})
	if err != nil {
		return err
	}
	arch := newArch(w, blocks, derive(seed, w.name, "replay"))
	for _, b := range initial {
		data := blockData(derive(seed, "replay-init", b))
		if _, err := dev.WriteAt(data, int64(b)*blockBytes); err != nil {
			return fmt.Errorf("replay init: %w", err)
		}
		if err := arch.Write(b, data); err != nil {
			return fmt.Errorf("core init: %w", err)
		}
	}
	var devTime, writeT, readT time.Duration
	var nWrite, nRead int
	for _, c := range calls {
		buf := c.data
		t := time.Now()
		if c.write {
			_, err = dev.WriteAt(buf, c.off)
		} else {
			buf = make([]byte, len(c.data))
			_, err = dev.ReadAt(buf, c.off)
		}
		devTime += time.Since(t)
		if err != nil {
			return fmt.Errorf("device replay: %w", err)
		}
		for _, o := range blockOps(c) {
			var cur []byte
			if !o.write || o.hi-o.lo < blockBytes {
				t := time.Now()
				cur, err = arch.Read(o.block)
				readT += time.Since(t)
				nRead++
				if err != nil {
					return fmt.Errorf("core read: %w", err)
				}
			}
			if !o.write {
				continue
			}
			next := make([]byte, blockBytes)
			copy(next, cur)
			copy(next[o.lo:o.hi], o.data)
			t := time.Now()
			err = arch.Write(o.block, next)
			writeT += time.Since(t)
			nWrite++
			if err != nil {
				return fmt.Errorf("core write: %w", err)
			}
		}
	}
	l.deviceSelfUs = float64(devTime-writeT-readT) / 1e3 / float64(len(calls))
	l.coreWriteUs = ratio(float64(writeT)/1e3, float64(nWrite))
	l.coreReadUs = ratio(float64(readT)/1e3, float64(nRead))

	// Allocation counts of steady-state core ops over the touched blocks.
	const allocOps = 64
	n := min(allocOps, len(initial))
	data := make([][]byte, n)
	for i := range data {
		data[i] = blockData(derive(seed, "replay-alloc", i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := arch.Write(initial[i], data[i]); err != nil {
			return fmt.Errorf("core write: %w", err)
		}
	}
	runtime.ReadMemStats(&after)
	l.allocsPerWrite = float64(after.Mallocs-before.Mallocs) / float64(n)
	l.bytesPerWrite = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := arch.Read(initial[i]); err != nil {
			return fmt.Errorf("core read: %w", err)
		}
	}
	runtime.ReadMemStats(&after)
	l.allocsRead = float64(after.Mallocs-before.Mallocs) / float64(n)
	return nil
}

// codecBCH times the arch's transient-error code: BCH-10 over 512 bits
// (4LCo) or BCH-1 over 708 bits (3LC), on prefill blocks.
func (l *ladder) codecBCH(w workload, seed uint64) {
	code := bch.Must(10, 1, 708)
	if w.arch == device.FourLC {
		code = bch.Must(10, 10, 512)
	}
	const n = 64
	msgs := make([]bitvec.Vector, n)
	for i := range msgs {
		b := blockData(derive(seed, w.name, "prefill", int64(i)))
		b = append(b, b...) // 128 bytes cover either message length
		msgs[i] = bitvec.FromBytes(b, code.MsgBits)
	}
	parity := make([]bitvec.Vector, n)
	t0 := time.Now()
	for i, m := range msgs {
		parity[i] = code.Encode(m)
	}
	l.bchEncodeUs = float64(time.Since(t0)) / 1e3 / n
	t0 = time.Now()
	for i, m := range msgs {
		code.Decode(m, parity[i])
	}
	l.bchDecodeUs = float64(time.Since(t0)) / 1e3 / n
}

// codecRS times the 4+2 Reed-Solomon encode of prefill blocks, and
// their reconstruction from K fragments with two data fragments lost.
func (l *ladder) codecRS(w workload, seed uint64) error {
	codec, err := ecstripe.NewCodec(4, 2)
	if err != nil {
		return err
	}
	const n = 2048
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = blockData(derive(seed, w.name, "prefill", int64(i)))
	}
	stripes := make([][]ecstripe.Fragment, n)
	t0 := time.Now()
	for i, b := range blocks {
		data, err := codec.Split(b)
		if err != nil {
			return err
		}
		parity, err := codec.Encode(data)
		if err != nil {
			return err
		}
		stripes[i] = []ecstripe.Fragment{
			{Index: 2, Data: data[2]}, {Index: 3, Data: data[3]},
			{Index: 4, Data: parity[0]}, {Index: 5, Data: parity[1]},
		}
	}
	l.ecEncodeUs = float64(time.Since(t0)) / 1e3 / n
	recovered := make([][][]byte, n)
	t0 = time.Now()
	for i, frags := range stripes {
		if recovered[i], err = codec.Reconstruct(frags); err != nil {
			return err
		}
	}
	l.ecReconUs = float64(time.Since(t0)) / 1e3 / n
	for i, data := range recovered {
		if !bytes.Equal(bytes.Join(data, nil), blocks[i]) {
			return fmt.Errorf("ecstripe reconstruct returned wrong data for block %d", i)
		}
	}
	return nil
}
