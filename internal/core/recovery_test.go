package core

import (
	"bytes"
	"testing"

	"hyperion/internal/netsim"
	"hyperion/internal/seg"
	"hyperion/internal/sim"
	"hyperion/internal/storage/bptree"
	"hyperion/internal/storage/kvssd"
)

// TestCrashRecoveryEndToEnd exercises the §2.1 durability story across
// the whole stack: durable structures are built on a DPU, the segment
// table checkpoints to the control area, the DPU "loses power" (DRAM
// and fabric state gone, flash intact), reboots, recovers the table,
// and the structures reopen with their data.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	eng := sim.NewEngine(1)
	net := netsim.New(eng, netsim.DefaultConfig())
	cfg := DefaultConfig("phoenix")
	cfg.NVMe.Blocks = 1 << 20
	cfg.Seg.DRAMBytes = 64 << 20
	cfg.Seg.CheckpointEvery = 0 // explicit checkpointing below
	d1, _, err := Boot(eng, net, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Durable B+ tree and KV store.
	tree, err := bptree.Create(d1.View, seg.OID(0xD0D0, 0), true)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3000; i++ {
		if err := tree.Insert(i, i*7); err != nil {
			t.Fatal(err)
		}
	}
	kv, err := kvssd.Create(d1.View, seg.OID(0xD0D1, 0), kvssd.BackendBTree, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put([]byte("survive"), []byte("the crash")); err != nil {
		t.Fatal(err)
	}
	// An ephemeral DRAM object that must NOT survive.
	if _, err := d1.Store.Alloc(seg.OID(0xDEAD, 1), 4096, false, seg.HintHot); err != nil {
		t.Fatal(err)
	}

	// Checkpoint the segment table, then crash.
	if err := d1.Store.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	d2, enum, err := Reboot(eng, net, d1)
	if err != nil {
		t.Fatal(err)
	}
	if len(enum) != 4 {
		t.Fatalf("re-enumeration lines = %d", len(enum))
	}
	n, err := d2.Store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("recovered zero segments")
	}
	if _, err := d2.Store.Stat(seg.OID(0xDEAD, 1)); err == nil {
		t.Fatal("ephemeral DRAM object survived the crash")
	}

	// Reopen the structures on the rebooted DPU.
	tree2, err := bptree.Open(d2.View, seg.OID(0xD0D0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{0, 1499, 2999} {
		got, ok, err := tree2.Get(k)
		if err != nil || !ok || got != k*7 {
			t.Fatalf("recovered Get(%d) = %d,%v,%v", k, got, ok, err)
		}
	}
	kv2, err := kvssd.Open(d2.View, seg.OID(0xD0D1, 0))
	if err != nil {
		t.Fatal(err)
	}
	val, ok, err := kv2.Get([]byte("survive"))
	if err != nil || !ok || !bytes.Equal(val, []byte("the crash")) {
		t.Fatalf("recovered kv = %q,%v,%v", val, ok, err)
	}

	// The rebooted DPU is fully operational: new writes work.
	if err := tree2.Insert(999999, 1); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := tree2.Get(999999); !ok || got != 1 {
		t.Fatal("post-recovery insert lost")
	}
	// And its network identity is back: the same addresses, attached
	// to the new instance's ports (Reboot detached the old ones, so the
	// boot's Attach of each succeeded).
	if d2.DataAddr() != d1.DataAddr() || d2.ControlAddr() != d1.ControlAddr() {
		t.Fatal("addresses changed across reboot")
	}
	if d2.ControlAddr() != "phoenix-q1" || d2.Control.Addr != d2.ControlAddr() || d2.Data.Addr != d2.DataAddr() {
		t.Fatalf("control address %q on port %q, data port %q", d2.ControlAddr(), d2.Control.Addr, d2.Data.Addr)
	}
}

// TestRebootWithoutCheckpointLosesUncheckpointedTable shows the
// contract: segments allocated after the last checkpoint are not in the
// recovered table (their blocks are unreferenced).
func TestRebootWithoutCheckpointLosesUncheckpointedTable(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig("amnesia")
	cfg.NVMe.Blocks = 1 << 20
	cfg.Seg.DRAMBytes = 64 << 20
	cfg.Seg.CheckpointEvery = 0
	d1, _, err := Boot(eng, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Store.Alloc(seg.OID(1, 1), 4096, true, seg.HintAuto); err != nil {
		t.Fatal(err)
	}
	if err := d1.Store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Allocated after the checkpoint: gone after reboot.
	if _, err := d1.Store.Alloc(seg.OID(1, 2), 4096, true, seg.HintAuto); err != nil {
		t.Fatal(err)
	}
	d2, _, err := Reboot(eng, nil, d1)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := d2.Store.Recover(); err != nil || n != 1 {
		t.Fatalf("recovered %d segments (%v), want 1", n, err)
	}
	if _, err := d2.Store.Stat(seg.OID(1, 2)); err == nil {
		t.Fatal("uncheckpointed segment resurrected")
	}
}
