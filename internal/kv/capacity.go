package kv

import (
	"nvmcache/internal/core"
	"nvmcache/internal/locality"
	"nvmcache/internal/pmem"
	"nvmcache/internal/trace"
)

// capacity.go carries each shard's adapted software-cache capacity across
// Recover. The online policy sizes its cache once, from one sampled burst of
// a thread's stores; a recovered thread would otherwise restart at the
// default capacity and pay a second burst and MRC analysis for a stream it
// already measured. So every shard owns one advisory word next to the shard
// directory, rewritten whenever the capacity in effect changes, and Recover
// hands a valid word back to the new thread's policy.
//
// The word is advice, not state: it is written with a plain
// WriteUint64+Persist outside any FASE (no undo logging, no numbered fault
// site), it guards itself with its own complement so a torn or foreign value
// is recognized, and anything unrecognized just means sampling online as a
// fresh store does.

// dirBytes is the shard directory's size: the shard count and one meta
// address per shard, padded to a line, then one line per shard for its
// capacity word — a line each, because shard writers flush them
// independently.
func dirBytes(shards int) uint64 {
	return capOff(shards) + uint64(shards)*trace.LineSize
}

func capOff(shards int) uint64 {
	return (8 + 8*uint64(shards) + trace.LineSize - 1) &^ (trace.LineSize - 1)
}

func capWord(capacity int) uint64 {
	return uint64(uint32(capacity)) | uint64(^uint32(capacity))<<32
}

// savedCapacity decodes an advisory word; ok is false for a word that was
// never written, is torn, or names a capacity outside [1, limit].
func savedCapacity(w uint64, limit int) (capacity int, ok bool) {
	c := uint32(w)
	if uint32(w>>32) != ^c || c == 0 || int(c) > limit {
		return 0, false
	}
	return int(c), true
}

// capSlot is one shard's advisory word and the policy it describes. The
// zero value (a policy without a resizable cache) does nothing.
type capSlot struct {
	cc    core.CapacityControlled
	addr  uint64
	saved int // the capacity the word holds, or the policy's starting capacity while unwritten
}

// openCapSlot binds shard id's advisory word to its freshly created thread.
// With adopt set (Recover) a valid word is handed to the thread's policy —
// before the thread's first store, so recovery's own rebuild already runs
// at the adopted capacity.
func openCapSlot(heap *pmem.Heap, dir uint64, opts Options, id int, policy core.Policy, adopt bool) capSlot {
	cc, ok := policy.(core.CapacityControlled)
	if !ok {
		return capSlot{}
	}
	cs := capSlot{cc: cc, addr: dir + capOff(opts.Shards) + uint64(id)*trace.LineSize}
	if adopt {
		limit := opts.Config.Knee.MaxSize
		if limit <= 0 {
			limit = locality.DefaultKneeConfig().MaxSize
		}
		if c, ok := savedCapacity(heap.ReadUint64(cs.addr), limit); ok {
			cc.AdoptCapacity(c)
		}
	}
	cs.saved = cc.CacheSize()
	return cs
}

// save rewrites the advisory word when the capacity in effect has changed
// since it was last written. Writer goroutine, between FASEs.
func (cs *capSlot) save(heap *pmem.Heap) {
	if cs.cc == nil {
		return
	}
	c := cs.cc.CacheSize()
	if c == cs.saved {
		return
	}
	heap.WriteUint64(cs.addr, capWord(c))
	heap.Persist(cs.addr, 8)
	cs.saved = c
}
