package pcmcluster

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/ecstripe"
)

// TestCodedSweepBatchesPartition plants three faults in one rs:4+2
// partition — a stale fragment on its first stripe, a misaligned
// fragment index in the middle, and a corrupt fragment on its last
// stripe — and checks that one sweepPartition call repairs all three
// while reading each replica's share of the partition with a single
// span read: K+M read RPCs, not one per fragment.
func TestCodedSweepBatchesPartition(t *testing.T) {
	const partSlots = 8
	c, _ := codedTestCluster(t, func(cfg *Config) {
		cfg.PartitionSlots = partSlots
	})
	ctx := context.Background()
	const part = int64(2)
	lo, n := c.partSpan(part)
	if n != partSlots {
		t.Fatalf("partition %d holds %d slots, want %d", part, n, partSlots)
	}
	content := func(b int64) []byte { return bytes.Repeat([]byte{byte(b*5 + 3)}, DataBytes) }
	for b := lo; b < lo+n; b++ {
		if err := c.WriteBlock(ctx, b, content(b)); err != nil {
			t.Fatalf("write %d: %v", b, err)
		}
	}
	reps := codedReps(c, lo)
	first, mid, last := lo, lo+n/2, lo+n-1

	// Stale: position 1 holds its own index at an older version of
	// different bytes.
	_, fm, _ := readNodeFrag(t, c, reps[1].addr, first)
	writeNodeFrag(t, c, reps[1].addr, first,
		forgeFragSlot(t, c, bytes.Repeat([]byte{0xEE}, DataBytes), 1, fm.Version-1))
	// Misaligned: position 2 holds fragment index 3 at the current version.
	_, mm, _ := readNodeFrag(t, c, reps[2].addr, mid)
	writeNodeFrag(t, c, reps[2].addr, mid, forgeFragSlot(t, c, content(mid), 3, mm.Version))
	// Corrupt: position 4's slot is garbage.
	writeNodeFrag(t, c, reps[4].addr, last, bytes.Repeat([]byte{0xFF}, int(c.slotBytes)))

	before := c.Stats()
	c.sweepPartition(part)
	after := c.Stats()

	if got, want := after.AntiEntropyReadRPCs-before.AntiEntropyReadRPCs, uint64(c.rf); got != want {
		t.Errorf("anti-entropy read RPCs: got %d, want %d (one per replica)", got, want)
	}
	if got, want := after.AntiEntropySlotsRead-before.AntiEntropySlotsRead, uint64(c.rf)*partSlots; got != want {
		t.Errorf("anti-entropy slots read: got %d, want %d", got, want)
	}
	if got := after.AntiEntropyRepairs - before.AntiEntropyRepairs; got != 2 {
		t.Errorf("anti-entropy repairs: got %d, want 2 (stale + corrupt)", got)
	}
	if got := after.ECFragmentsRealigned - before.ECFragmentsRealigned; got != 1 {
		t.Errorf("realigned fragments: got %d, want 1", got)
	}

	for _, f := range []struct {
		b   int64
		pos int
	}{{first, 1}, {mid, 2}, {last, 4}} {
		dataFrags, err := c.codec.Split(content(f.b))
		if err != nil {
			t.Fatal(err)
		}
		frag, m, st := readNodeFrag(t, c, reps[f.pos].addr, f.b)
		if st != ecstripe.FragOK || int(m.Index) != f.pos || !bytes.Equal(frag, mustParityOrData(t, c, dataFrags, f.pos)) {
			t.Errorf("block %d position %d not repaired: status %v index %d", f.b, f.pos, st, m.Index)
		}
	}
}

// mustParityOrData returns the canonical fragment at placement
// position pos: a data fragment for pos < K, a parity fragment above.
func mustParityOrData(t *testing.T, c *Cluster, dataFrags [][]byte, pos int) []byte {
	if pos < c.codec.K {
		return dataFrags[pos]
	}
	return mustParity(t, c, dataFrags, pos)
}

// TestMirroredSweepBatchesPartition is the mirrored fallback's
// counterpart: with the Merkle exchange disabled, one partition sweep
// costs RF read RPCs however many slots the partition holds, and still
// repairs a stale first slot and a corrupt last slot.
func TestMirroredSweepBatchesPartition(t *testing.T) {
	const partSlots = 4
	c, nodes := testCluster(t, 3, func(cfg *Config) {
		cfg.DisableMerkleExchange = true
		cfg.PartitionSlots = partSlots
	})
	mirror := fillCluster(t, c)
	const part = int64(1)
	lo, n := c.partSpan(part)

	_, meta, _ := readNodeSlot(t, nodes[0].addr, lo)
	stale := make([]byte, SlotBytes)
	encodeSlot(stale, bytes.Repeat([]byte{0xEE}, DataBytes), meta.Version-1)
	writeNodeSlot(t, nodes[0].addr, lo, stale)
	writeNodeSlot(t, nodes[1].addr, lo+n-1, bytes.Repeat([]byte{0xFF}, SlotBytes))

	before := c.Stats()
	c.sweepPartition(part)
	after := c.Stats()

	if got, want := after.AntiEntropyReadRPCs-before.AntiEntropyReadRPCs, uint64(c.rf); got != want {
		t.Errorf("anti-entropy read RPCs: got %d, want %d (one per replica)", got, want)
	}
	if got, want := after.AntiEntropySlotsRead-before.AntiEntropySlotsRead, uint64(c.rf)*partSlots; got != want {
		t.Errorf("anti-entropy slots read: got %d, want %d", got, want)
	}
	if got := after.MerkleFallbackSweeps - before.MerkleFallbackSweeps; got != 1 {
		t.Errorf("fallback sweeps: got %d, want 1", got)
	}
	for _, f := range []struct {
		addr string
		b    int64
	}{{nodes[0].addr, lo}, {nodes[1].addr, lo + n - 1}} {
		data, _, st := readNodeSlot(t, f.addr, f.b)
		if st != slotOK || !bytes.Equal(data, mirror[f.b]) {
			t.Errorf("block %d on %s not repaired: status %v", f.b, f.addr, st)
		}
	}
}

// TestSweepSpanConfinesUncorrectableBlock: one uncorrectable device
// block fails a node's whole span read, so the sweep must re-read that
// node slot by slot and still repair its other divergent slots, as a
// per-slot sweep would.
func TestSweepSpanConfinesUncorrectableBlock(t *testing.T) {
	c, nodes := testCluster(t, 3, func(cfg *Config) {
		cfg.DisableMerkleExchange = true
		cfg.PartitionSlots = 4
	})
	mirror := fillCluster(t, c)
	// Partition 1 is slots 4..7, bytes [320, 640) of shard 0 on every
	// node; device block 9 (bytes [576, 640)) lies inside slot 7 alone.
	const part = int64(1)
	lo, n := c.partSpan(part)
	if lo != 4 || n != 4 {
		t.Fatalf("partition %d spans [%d, %d), want [4, 8)", part, lo, lo+n)
	}
	_, meta, _ := readNodeSlot(t, nodes[0].addr, lo)
	stale := make([]byte, SlotBytes)
	encodeSlot(stale, bytes.Repeat([]byte{0xEE}, DataBytes), meta.Version-1)
	writeNodeSlot(t, nodes[0].addr, lo, stale)
	nodes[0].fis[0].CorruptBlock(9)

	before := c.Stats()
	c.sweepPartition(part)
	after := c.Stats()

	data, _, st := readNodeSlot(t, nodes[0].addr, lo)
	if st != slotOK || !bytes.Equal(data, mirror[lo]) {
		t.Errorf("stale slot %d beside an uncorrectable block not repaired: status %v", lo, st)
	}
	// Three span reads, plus one per slot on the node that failed.
	if got, want := after.AntiEntropyReadRPCs-before.AntiEntropyReadRPCs, uint64(c.rf)+uint64(n); got != want {
		t.Errorf("anti-entropy read RPCs: got %d, want %d", got, want)
	}
}

// TestCodedSweepThrottledInChunks sets the sweep budget below one
// partition's span across all replicas (16 slots × 6 × 33 B = 3168 B)
// but above one slot's. A whole-partition TryTake could never be
// granted; the chunked sweep must take the budget chunk by chunk,
// throttle, and repair a stale fragment on the partition's last
// stripe, which only the second chunk reads.
func TestCodedSweepThrottledInChunks(t *testing.T) {
	const partSlots, rate = 16, 2 << 10
	c, _ := codedTestCluster(t, func(cfg *Config) {
		cfg.PartitionSlots = partSlots
		cfg.AntiEntropySweepBytesPerSec = rate
	})
	perSlot := int64(c.rf) * c.slotBytes
	if partSlots*perSlot <= rate || perSlot > rate {
		t.Fatalf("one slot costs %d B and the partition %d B; the test needs slot <= %d < partition",
			perSlot, partSlots*perSlot, rate)
	}
	ctx := context.Background()
	b := int64(partSlots - 1) // last stripe of partition 0
	data := bytes.Repeat([]byte{0x3C}, DataBytes)
	if err := c.WriteBlock(ctx, b, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	reps := codedReps(c, b)
	_, fm, _ := readNodeFrag(t, c, reps[0].addr, b)
	writeNodeFrag(t, c, reps[0].addr, b,
		forgeFragSlot(t, c, bytes.Repeat([]byte{0xC3}, DataBytes), 0, fm.Version-1))

	before := c.Stats()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.sweepPartition(0)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("partition sweep never finished: a chunk the budget can never grant?")
	}
	after := c.Stats()

	if after.AntiEntropyThrottled == before.AntiEntropyThrottled {
		t.Error("sweep never waited on the budget")
	}
	// Chunks of rate/perSlot = 10 slots, then 6: two reads per replica.
	chunk := int64(rate) / perSlot
	chunks := (partSlots + chunk - 1) / chunk
	if got, want := after.AntiEntropyReadRPCs-before.AntiEntropyReadRPCs, uint64(chunks)*uint64(c.rf); got != want {
		t.Errorf("anti-entropy read RPCs: got %d, want %d (%d chunks of <= %d slots)", got, want, chunks, chunk)
	}
	dataFrags, err := c.codec.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	frag, m, st := readNodeFrag(t, c, reps[0].addr, b)
	if st != ecstripe.FragOK || m.Version != fm.Version || !bytes.Equal(frag, dataFrags[0]) {
		t.Errorf("stale fragment on block %d not repaired: status %v version %d", b, st, m.Version)
	}
}
