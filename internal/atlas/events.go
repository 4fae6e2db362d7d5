package atlas

import (
	"fmt"

	"nvmcache/internal/core"
	"nvmcache/internal/trace"
)

// Site names a persistence boundary: a point at which a power failure
// leaves durable state in a distinct intermediate shape. The runtime
// reports each one it crosses to Options.Events (and recovery to
// RecoverWith's), on the goroutine crossing it, before the durable write
// the boundary guards. kv adds the two boundaries of its group commit.
type Site uint8

const (
	// SiteFlushLine is a mid-FASE asynchronous line write-back (a cache
	// eviction or an eager store flush). arg is the line.
	SiteFlushLine Site = iota
	// SiteDrainLine is one line persisted inside a FASE-end drain; a crash
	// here leaves the drain half done. arg is the line.
	SiteDrainLine
	// SiteDrainDone is the barrier completing a drain, before control
	// returns to the policy. arg is the drain's line count.
	SiteDrainDone
	// SiteUndoBegin fires before the log is marked active, at the FASE's
	// first record (a crash here leaves the previous, committed log state).
	// A FASE that logs nothing never crosses it.
	SiteUndoBegin
	// SiteUndoRecord fires before an entry's address/old-value words are
	// written (a crash here loses the entry entirely; the data write it
	// would guard has not reached NVRAM either). arg is the logged word.
	SiteUndoRecord
	// SiteUndoPublish fires after an entry's words are durable but before
	// the count that makes it visible to recovery (a crash here must be
	// tolerated by write-ahead ordering: the entry is durable, invisible).
	// arg is the logged word.
	SiteUndoPublish
	// SiteUndoCommit fires before the log's status word is cleared at FASE
	// end (a crash here finds data fully drained but the FASE still
	// active, so recovery rolls it back). Like SiteUndoBegin, only a FASE
	// that logged. arg is the entry count.
	SiteUndoCommit
	// SiteAck sits between a kv batch's durable commit and the delivery of
	// its acks; a crash here loses acks but must lose no data. arg is the
	// batch's request count.
	SiteAck
	// SiteRecoverReplay fires before recovery rolls back one active undo
	// log; a crash here cuts the recovery itself, which must be
	// re-runnable. arg is the log's entry count.
	SiteRecoverReplay
	// SiteRecoverInstall fires before a rolled-back log's status word is
	// cleared — the boundary where the rollback becomes final.
	SiteRecoverInstall
	// SitePreCommit is a kv batch after its stores, before its commit: a
	// crash here abandons the whole FASE. arg is the batch's request count.
	SitePreCommit

	// NumSites counts the sites.
	NumSites
)

var siteNames = [...]string{
	SiteFlushLine: "flush-line", SiteDrainLine: "drain-line", SiteDrainDone: "drain-done",
	SiteUndoBegin: "undo-begin", SiteUndoRecord: "undo-record", SiteUndoPublish: "undo-publish",
	SiteUndoCommit: "undo-commit", SiteAck: "ack", SiteRecoverReplay: "recover-replay",
	SiteRecoverInstall: "recover-install", SitePreCommit: "pre-commit",
}

// String names the site.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Events observes persistence boundaries: site is the boundary, thread the
// crossing thread's id (a kv shard's index; the undo log's registry slot
// during recovery), arg what the site documents. It runs synchronously, so
// it may panic with a Crash to simulate a power failure at exactly that
// boundary; internal/faultinject numbers crash points this way.
type Events func(site Site, thread int, arg uint64)

// Crash is the panic value of an injected power failure. Whatever catches
// it — a fault-injection explorer, or kv's committer — abandons the
// failure-atomic section mid-flight, as losing power there would; a panic
// of any other type is a bug and propagates.
type Crash struct {
	// N is the boundary's number in the injector's enumeration order.
	N int
	// Site is the boundary the crash landed on.
	Site Site
}

func (c Crash) String() string {
	return fmt.Sprintf("injected crash at site %d (%s)", c.N, c.Site)
}

// eventSink reports a thread's write-backs to Events before passing them
// on. A drain becomes one SiteDrainLine per line and a SiteDrainDone, so a
// crash can land between any two write-backs of a FASE-end drain — the
// window where a policy that acknowledged too early would lose data.
type eventSink struct {
	ev     Events
	thread int
	inner  core.FlushSink
}

func (s *eventSink) FlushLine(line trace.LineAddr) {
	s.ev(SiteFlushLine, s.thread, uint64(line))
	s.inner.FlushLine(line)
}

func (s *eventSink) Drain(lines []trace.LineAddr) {
	for _, line := range lines {
		s.ev(SiteDrainLine, s.thread, uint64(line))
		s.inner.FlushLine(line)
	}
	s.ev(SiteDrainDone, s.thread, uint64(len(lines)))
	s.inner.Drain(nil)
}

func (s *eventSink) Stats() core.FlushStats { return s.inner.Stats() }
