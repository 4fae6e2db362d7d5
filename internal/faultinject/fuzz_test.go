package faultinject

import (
	"errors"
	"testing"

	"nvmcache/internal/kv"
)

// bytesToKVOps maps fuzz bytes onto a PUT/DEL/INCR/DECR stream over a
// 4-key space: two bits pick the verb, two the key — so even random
// inputs overwrite, delete, and count on the same keys, switching between
// in-place and copy-on-write commits. Length is capped because every op is
// a full group-commit round trip.
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
		counter := newRecording()
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
		if _, _, err := recoverAndVerifyKV(o, h, ops, acked, crash, counter.Sequence()); err != nil {
			t.Fatalf("contract violated after %v (acked %d/%d ops): %v", crash, acked, len(ops), err)
		}
	})
}
