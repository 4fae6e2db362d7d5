package faultinject

import (
	"errors"
	"testing"
	"time"

	"nvmcache/internal/core"
	"nvmcache/internal/kv"
)

// absorbShape decodes the fuzzer's shape byte into an absorption
// configuration — one of the two shapes a blocking serial stream can
// drive. Threshold 1 folds every counter op into its own commit
// (AbsorbThresholdCommit sites); the high bit flips to the
// deadline-driven shape — a threshold that never fires and a deadline
// short enough that the shard's timer commits each parked op
// (AbsorbDeadlineCommit sites). Thresholds between the two are
// unreachable here: parked acks are deferred until the accumulator
// commits, so a serial client blocks on its first parked op and a >1
// threshold just waits out the deadline (the randomized concurrent mode
// covers multi-op windows).
func absorbShape(b byte) KVOptions {
	o := KVOptions{
		Shards:          2,
		Keys:            4,
		Policy:          core.SoftCacheOnline,
		Config:          core.DefaultConfig(),
		Absorb:          true,
		AbsorbThreshold: 1,
		AbsorbDeadline:  time.Second,
	}
	if b&0x80 != 0 {
		o.AbsorbThreshold = 1 << 20
		o.AbsorbDeadline = 300 * time.Microsecond
	}
	return o
}

// bytesToKVOps maps fuzz bytes onto a PUT/DEL/INCR/DECR stream over a
// 4-key space: two bits pick the verb, two the key — so even random
// inputs overwrite, delete, and fold counters on the same keys, which is
// where absorption (and its undo logging) has to work hardest. Length is
// capped because every op is a full group-commit round trip.
func bytesToKVOps(data []byte) []kvOp {
	const maxOps = 24
	if len(data) > maxOps {
		data = data[:maxOps]
	}
	ops := make([]kvOp, len(data))
	for i, b := range data {
		op := kvOp{key: uint64(b>>2) % 4}
		switch b & 0x03 {
		case 0:
			op.kind, op.val = kvPut, 0xF022_0000+uint64(i)+1
		case 1:
			op.kind = kvDel
		case 2:
			op.kind, op.val = kvIncr, uint64(b>>4)+1
		case 3:
			op.kind, op.val = kvDecr, uint64(b>>4)+1
		}
		ops[i] = op
	}
	return ops
}

// FuzzAbsorb fuzzes the absorption layer's crash contract: decode an
// arbitrary PUT/DEL/INCR/DECR stream and an absorption shape, enumerate
// the stream's injection sites with a counting run, crash one armed run
// at a fuzz-chosen site, recover, and hold the recovered store to the
// exact-state oracle (applyOps) — every acked op present with its exact
// value, the nacked op fully rolled back (or, at an ack boundary, fully
// applied). The differential oracle is what makes this a fuzz target
// rather than a stress test: any stream whose net-delta commit, undo
// replay, or ack accounting disagrees with the serial model fails loudly.
// Seed corpus in testdata/fuzz/FuzzAbsorb.
func FuzzAbsorb(f *testing.F) {
	f.Add(byte(0), uint16(0), []byte{})
	f.Add(byte(0), uint16(3), []byte{0, 4, 8, 12, 0})                 // puts cycling all keys
	f.Add(byte(1), uint16(7), []byte{6, 7})                           // incr/decr net-null pair on key 1
	f.Add(byte(0x80), uint16(12), []byte{2, 6, 10, 14, 2, 6, 10, 14}) // counter-only, deadline shape
	f.Add(byte(2), uint16(100), []byte{0, 2, 5, 3, 6, 1, 0, 7, 2, 2, 9, 14, 4, 3})
	f.Fuzz(func(t *testing.T, shape byte, site uint16, stream []byte) {
		o := absorbShape(shape).withDefaults()
		ops := bytesToKVOps(stream)
		if len(ops) == 0 {
			return
		}
		counter := NewCounting()
		_, acked, err := kvSeqRun(o, ops, counter)
		if err != nil {
			t.Fatalf("counting run: %v", err)
		}
		if acked != len(ops) {
			t.Fatalf("counting run acked %d/%d ops", acked, len(ops))
		}
		n := counter.Sites()
		if n == 0 {
			return
		}
		target := int(site) % n
		inj := NewArmed(target)
		h, acked, err := kvSeqRun(o, ops, inj)
		if !errors.Is(err, errInjected) {
			t.Fatalf("site %d of %d never fired (err %v); enumeration not deterministic?", target, n, err)
		}
		crash, _ := inj.Fired()
		if _, _, err := recoverAndVerifyKV(o, h, ops, acked, crash); err != nil {
			t.Fatalf("contract violated after %v (acked %d/%d ops): %v", crash, acked, len(ops), err)
		}
	})
}

// FuzzRecoverCrash fuzzes the crash contract of serving and of recovery
// differentially against the serial model: decode an arbitrary
// PUT/DEL/INCR/DECR stream, a fuzz-chosen serving crash site, and (when
// rsite is nonzero) a fuzz-chosen recovery crash site. The serving run
// crashes at the chosen boundary; then, for the recovery-crash half of the
// space, the first kv.Recover is itself cut at the chosen recovery
// boundary and must leave the heap quiesced. The final clean Recover is
// held to the exact-state oracle (applyOps): every acked op present with
// its exact value, the nacked op rolled back or (ack boundary) fully
// applied. Seed corpus in testdata/fuzz/FuzzRecoverCrash.
func FuzzRecoverCrash(f *testing.F) {
	f.Add(uint16(0), uint16(0), []byte{})
	f.Add(uint16(9), uint16(0), []byte{0, 4, 8, 12, 0, 4})       // serving crash only
	f.Add(uint16(60), uint16(3), []byte{0, 1, 4, 5, 8, 2, 6, 0}) // crash the recovery too
	f.Add(uint16(120), uint16(8), []byte{2, 6, 10, 14, 0, 4, 8, 12})
	f.Add(uint16(36), uint16(1), []byte{0, 4, 0, 4, 1, 5, 0, 4, 0, 4, 3, 7})
	f.Fuzz(func(t *testing.T, site, rsite uint16, stream []byte) {
		o := DefaultKVOptions() // bytesToKVOps spans its 4 keys
		ops := bytesToKVOps(stream)
		if len(ops) == 0 {
			return
		}
		counter := NewCounting()
		_, acked, err := kvSeqRun(o, ops, counter)
		if err != nil {
			t.Fatalf("counting run: %v", err)
		}
		if acked != len(ops) {
			t.Fatalf("counting run acked %d/%d ops", acked, len(ops))
		}
		n := counter.Sites()
		if n == 0 {
			return
		}
		target := int(site) % n
		h, acked, crash, err := genCrashedKVHeap(o, ops, target)
		if err != nil {
			t.Fatalf("armed run: %v", err)
		}
		if rsite != 0 {
			// Enumerate the recovery's own boundaries (this consumes the
			// heap — the counting Recover repairs it), regenerate the
			// identical crash, and cut the recovery at the chosen site.
			rcount := NewCounting()
			rcount.Enable()
			st, _, err := kv.Recover(h, o.storeOptions(rcount))
			rcount.Disable()
			if err != nil {
				t.Fatalf("counting recovery after %v: %v", crash, err)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close after counting recovery: %v", err)
			}
			rn := rcount.Sites()
			if rn == 0 {
				return
			}
			if h, _, _, err = genCrashedKVHeap(o, ops, target); err != nil {
				t.Fatalf("regenerate crashed heap: %v", err)
			}
			rtarget := int(rsite) % rn
			rinj := NewArmed(rtarget)
			rinj.Enable()
			_, _, rerr := kv.Recover(h, o.storeOptions(rinj))
			rinj.Disable()
			if !errors.Is(rerr, kv.ErrCrashed) {
				t.Fatalf("recovery site %d of %d never fired (err %v); recovery not deterministic?", rtarget, rn, rerr)
			}
		}
		if _, _, err := recoverAndVerifyKV(o, h, ops, acked, crash); err != nil {
			t.Fatalf("contract violated after %v (acked %d/%d ops): %v", crash, acked, len(ops), err)
		}
	})
}
