package atlas

import (
	"fmt"

	"nvmcache/internal/pmem"
	"nvmcache/internal/trace"
)

// Undo logging gives FASEs their all-or-nothing guarantee: before a word
// of persistent data is overwritten inside a FASE, its old value is
// appended to a write-ahead log and persisted; at FASE end, after the
// persistence policy has drained the data writes, the log is truncated
// (commit). Recovery finds logs whose status is still active — the crash
// hit mid-FASE — and applies their entries backwards, restoring the
// pre-FASE state.
//
// Log layout in the persistent heap (all words little-endian):
//
//	base+0:  status (logActive during a FASE, logIdle otherwise)
//	base+8:  entry count
//	base+16: capacity in entries
//	base+64: entries, 16 bytes each: data address, old value
//
// Logs are registered in a registry block pointed to by the heap's Meta
// slot, so recovery can find them without any volatile state:
//
//	reg+0:  number of registered logs
//	reg+8:  log entries, 8 bytes each: base address | regRetired
//
// A log belongs to one thread of one runtime incarnation. Recovery retires
// every log it finds — the threads that owned them are gone — by setting
// the flag in its registry entry, and a new thread claims a retired log of
// sufficient capacity before it allocates one, so a heap that crashes and
// recovers forever keeps a registry no larger than its busiest
// incarnation's. The flag lives in the registry, not in the log, because a
// thread being created reads the flags while other threads of its runtime
// write their own log headers: the registry is touched only under the
// runtime's thread-creation lock and by recovery on a quiesced heap.
const (
	logHeaderSize = trace.LineSize
	logEntrySize  = 16
	registryCap   = 1024
	registrySize  = 8 + 8*registryCap
	logStatusOff  = 0
	logCountOff   = 8
	logCapOff     = 16
	logIdle       = 0 // status: no FASE in flight
	logActive     = 1 // status: a FASE in flight, which recovery rolls back
	// regRetired flags a registry entry whose log no live thread owns (log
	// bases are line-aligned, so the low bit is free).
	regRetired = 1
	// smallDedup is how many distinct words a FASE logs before its dedupe
	// set moves from a scanned array to a map.
	smallDedup = 8
)

// UndoOp names an undo-log persistence point for Options.UndoHook. Each is
// a boundary at which a crash leaves the log in a distinct intermediate
// state, which is why fault injection enumerates them separately.
type UndoOp uint8

const (
	// UndoBegin fires before the log is marked active, at the FASE's first
	// record (a crash here leaves the previous, committed log state). A
	// FASE that logs nothing never crosses it.
	UndoBegin UndoOp = iota
	// UndoRecord fires before an entry's address/old-value words are
	// written (a crash here loses the entry entirely; the data write it
	// would guard has not reached NVRAM either).
	UndoRecord
	// UndoPublish fires after an entry's words are durable but before the
	// count that makes it visible to recovery (a crash here must be
	// tolerated by write-ahead ordering: the entry is durable, invisible).
	UndoPublish
	// UndoCommit fires before the log's status word is cleared at FASE end
	// (a crash here finds data fully drained but the FASE still active, so
	// recovery rolls it back). Like UndoBegin, only a FASE that logged.
	UndoCommit
)

// String names the op.
func (op UndoOp) String() string {
	switch op {
	case UndoBegin:
		return "undo-begin"
	case UndoRecord:
		return "undo-record"
	case UndoPublish:
		return "undo-publish"
	case UndoCommit:
		return "undo-commit"
	default:
		return fmt.Sprintf("undo-op(%d)", uint8(op))
	}
}

type undoLog struct {
	heap        *pmem.Heap
	base        uint64
	cap         int
	count       int
	active      bool                // the durable status word reads logActive
	words       int                 // distinct words logged in this FASE
	small       [smallDedup]uint64  // those words while words ≤ smallDedup
	dedup       map[uint64]struct{} // all of them once words > smallDedup
	dropped     int64               // records beyond capacity (reported, not fatal)
	droppedFASE int                 // records dropped since the last begin
	hook        func(UndoOp)        // fault-injection instrumentation (may be nil)
}

// at invokes the instrumentation hook, if any.
func (l *undoLog) at(op UndoOp) {
	if l.hook != nil {
		l.hook(op)
	}
}

// ensureRegistry finds or creates the heap's log registry.
func ensureRegistry(h *pmem.Heap) (uint64, error) {
	if m := h.Meta(); m != 0 {
		return m, nil
	}
	reg, err := h.AllocLines(registrySize)
	if err != nil {
		return 0, fmt.Errorf("atlas: allocating log registry: %w", err)
	}
	h.WriteUint64(reg, 0)
	h.Persist(reg, 8)
	h.SetMeta(reg)
	return reg, nil
}

func newUndoLog(h *pmem.Heap, entries int, hook func(UndoOp)) (*undoLog, error) {
	reg, err := ensureRegistry(h)
	if err != nil {
		return nil, err
	}
	l := &undoLog{
		heap:  h,
		cap:   entries,
		dedup: make(map[uint64]struct{}, 256),
		hook:  hook,
	}
	n := h.ReadUint64(reg)
	if n > registryCap {
		return nil, fmt.Errorf("atlas: corrupt registry count %d", n)
	}
	for i := uint64(0); i < n; i++ {
		e := h.ReadUint64(reg + 8 + 8*i)
		if base := e &^ regRetired; e != base && h.ReadUint64(base+logCapOff) >= uint64(entries) {
			h.Write64Through(reg+8+8*i, base)
			l.base = base
			return l, nil
		}
	}
	if n == registryCap {
		return nil, fmt.Errorf("atlas: log registry full (%d logs)", n)
	}
	base, err := h.AllocLines(uint64(logHeaderSize + entries*logEntrySize))
	if err != nil {
		return nil, fmt.Errorf("atlas: allocating undo log: %w", err)
	}
	h.WriteUint64(base+logStatusOff, logIdle)
	h.WriteUint64(base+logCountOff, 0)
	h.WriteUint64(base+logCapOff, uint64(entries))
	h.Persist(base, logHeaderSize)
	h.WriteUint64(reg+8+8*n, base)
	h.WriteUint64(reg, n+1)
	h.Persist(reg, 8+8*(n+1))
	l.base = base
	return l, nil
}

// begin opens a FASE's log state. It writes nothing durable: the log is
// marked active only by the FASE's first record (activate), so a FASE that
// logs no word — one made only of private and in-place atomic stores —
// leaves the log idle throughout and costs no log write at all. Until that
// first record nothing the FASE wrote needs rolling back: a private store
// is unreachable and an atomic one needs no pre-image.
func (l *undoLog) begin() {
	l.count = 0
	l.active = false
	l.droppedFASE = 0
	l.forgetWords()
}

// activate marks the log active, before the FASE's first entry is written.
// Log writes are write-through (Write64Through): the log's lines belong to
// this thread alone and the words are durable the instant they are
// written, with no flag to set and no flush to issue later.
func (l *undoLog) activate() {
	l.at(UndoBegin)
	l.heap.Write64Through(l.base+logCountOff, 0)
	l.heap.Write64Through(l.base+logStatusOff, logActive)
	l.active = true
}

// logged reports whether word was already logged in this FASE, and
// remembers it if not. The FASE's first smallDedup words are found by a
// scan of l.small; past that they all move to the map, so a FASE that logs
// a handful of words (a kv commit logs at most four) never touches it.
func (l *undoLog) logged(word uint64) bool {
	if l.words <= smallDedup {
		for _, w := range l.small[:l.words] {
			if w == word {
				return true
			}
		}
		if l.words < smallDedup {
			l.small[l.words] = word
			l.words++
			return false
		}
		for _, w := range l.small {
			l.dedup[w] = struct{}{}
		}
	} else if _, ok := l.dedup[word]; ok {
		return true
	}
	l.dedup[word] = struct{}{}
	l.words++
	return false
}

// forgetWords empties the FASE's dedupe set.
func (l *undoLog) forgetWords() {
	if l.words > smallDedup {
		clear(l.dedup)
	}
	l.words = 0
}

// record write-ahead-logs one word's old value. Each word is logged once
// per FASE (the first old value is the one recovery must restore). The
// entry is written through before the count that makes it visible to
// recovery, preserving write-ahead ordering.
func (l *undoLog) record(addr uint64, old uint64) {
	word := addr &^ 7
	if l.logged(word) {
		return
	}
	if !l.active {
		l.activate()
	}
	if l.count >= l.cap {
		l.dropped++
		l.droppedFASE++
		return
	}
	l.at(UndoRecord)
	e := l.base + logHeaderSize + uint64(l.count)*logEntrySize
	l.heap.Write64Through(e, word)
	l.heap.Write64Through(e+8, old)
	l.at(UndoPublish)
	l.count++
	l.heap.Write64Through(l.base+logCountOff, uint64(l.count))
}

// commit closes the FASE after the policy drained the data writes. A log
// the FASE never activated is idle already, and commit writes nothing.
func (l *undoLog) commit() {
	if l.active {
		l.at(UndoCommit)
		l.heap.Write64Through(l.base+logStatusOff, logIdle)
		l.heap.Write64Through(l.base+logCountOff, 0)
		l.active = false
	}
	l.count = 0
	l.forgetWords()
}

// rollback undoes the current FASE in place: entries are applied backwards
// (exactly what Recover would do after a crash) and the log is then
// committed empty. It reports how many entries were dropped beyond the log's
// capacity — a non-zero count means the rollback is incomplete.
func (l *undoLog) rollback() int {
	for j := l.count - 1; j >= 0; j-- {
		e := l.base + logHeaderSize + uint64(j)*logEntrySize
		addr := l.heap.ReadUint64(e)
		old := l.heap.ReadUint64(e + 8)
		l.heap.WriteUint64(addr, old)
		l.heap.Persist(addr, 8)
	}
	dropped := l.droppedFASE
	l.commit()
	return dropped
}

// RecoverOp names a recovery persistence point for RecoverOptions.Hook.
// Crash-during-recovery exploration arms these: recovery must be
// idempotent, so a crash at either point followed by a second Recover has
// to converge to the same state.
type RecoverOp uint8

const (
	// RecoverReplay fires before an active log's entries are rolled back.
	RecoverReplay RecoverOp = iota
	// RecoverInstall fires before an active log's status word is cleared,
	// the point at which its rollback becomes final.
	RecoverInstall
)

// String names the op.
func (op RecoverOp) String() string {
	switch op {
	case RecoverReplay:
		return "recover-replay"
	case RecoverInstall:
		return "recover-install"
	default:
		return fmt.Sprintf("recover-op(%d)", uint8(op))
	}
}

// RecoverOptions instrument Recover; the zero value recovers silently.
type RecoverOptions struct {
	// Hook fires at each recovery persistence point (fault injection). A
	// panic out of it abandons recovery mid-flight; rerunning Recover is
	// always safe because every restore is durable word-by-word and the
	// log stays active until RecoverInstall completes.
	Hook func(RecoverOp)
}

// RecoveryReport summarises what Recover did.
type RecoveryReport struct {
	// LogsScanned is the number of registered undo logs.
	LogsScanned int
	// FASEsRolledBack counts logs that were active at the crash.
	FASEsRolledBack int
	// WordsRestored counts undo entries applied.
	WordsRestored int
}

// Recover must be called after reattaching to a heap that may have crashed.
// It rolls back every FASE that was in flight, restoring the heap to a
// state in which every FASE is either completely applied (it committed
// before the crash and its policy drained its writes) or completely absent.
func Recover(h *pmem.Heap) (RecoveryReport, error) {
	return RecoverWith(h, RecoverOptions{})
}

// RecoverWith is Recover with instrumentation options.
func RecoverWith(h *pmem.Heap, opts RecoverOptions) (RecoveryReport, error) {
	var rep RecoveryReport
	reg := h.Meta()
	if reg == 0 {
		return rep, nil // never ran: nothing to recover
	}
	n := h.ReadUint64(reg)
	if n > registryCap {
		return rep, fmt.Errorf("atlas: corrupt registry count %d", n)
	}
	at := func(op RecoverOp) {
		if opts.Hook != nil {
			opts.Hook(op)
		}
	}
	// Each thread has one log and distinct threads write distinct lines, so
	// no two active logs hold the same word and their rollbacks commute.
	for i := uint64(0); i < n; i++ {
		base := h.ReadUint64(reg+8+8*i) &^ regRetired
		rep.LogsScanned++
		if h.ReadUint64(base+logStatusOff) == logIdle {
			continue
		}
		count := h.ReadUint64(base + logCountOff)
		rep.FASEsRolledBack++
		at(RecoverReplay)
		for j := int64(count) - 1; j >= 0; j-- {
			e := base + logHeaderSize + uint64(j)*logEntrySize
			addr := h.ReadUint64(e)
			old := h.ReadUint64(e + 8)
			h.WriteUint64(addr, old)
			h.Persist(addr, 8)
			rep.WordsRestored++
		}
		at(RecoverInstall)
		h.WriteUint64(base+logStatusOff, logIdle)
		h.WriteUint64(base+logCountOff, 0)
		h.Persist(base, logHeaderSize)
	}
	// Every log is idle now and every thread of the crashed incarnation is
	// gone: retire all of them for the next incarnation to claim. Each
	// retirement is one durable word, so a crash part-way leaves entries a
	// rerun retires the same way.
	for i := uint64(0); i < n; i++ {
		e := reg + 8 + 8*i
		h.Write64Through(e, h.ReadUint64(e)|regRetired)
	}
	return rep, nil
}
