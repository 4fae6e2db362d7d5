package faultinject

import (
	"testing"

	"nvmcache/internal/atlas"
	"nvmcache/internal/core"
	"nvmcache/internal/trace"
)

// TestInjectorCounting checks the enumeration mechanics: disabled points
// are free, enabled points number densely, kinds are tallied, and kv's
// pre-commit boundary is delivered but never numbered.
func TestInjectorCounting(t *testing.T) {
	in := NewCounting()
	in.Events(atlas.SiteFlushLine, 0, 0) // disabled: not counted
	in.Enable()
	in.Events(atlas.SiteFlushLine, 0, 0)
	in.Events(atlas.SiteUndoRecord, 0, 0)
	in.Events(atlas.SitePreCommit, 0, 1)
	in.Events(atlas.SiteUndoRecord, 1, 0)
	in.Disable()
	in.Events(atlas.SiteAck, 0, 1) // disabled again
	if got := in.Sites(); got != 3 {
		t.Fatalf("Sites() = %d, want 3", got)
	}
	kinds := in.Kinds()
	if kinds[atlas.SiteFlushLine] != 1 || kinds[atlas.SiteUndoRecord] != 2 || len(kinds) != 2 {
		t.Fatalf("Kinds() = %v", kinds)
	}
	if _, fired := in.Fired(); fired {
		t.Fatal("counting injector fired")
	}
}

// TestInjectorFiresOnce checks that the armed site panics with its
// atlas.Crash payload exactly once, and that later points keep counting
// quietly.
func TestInjectorFiresOnce(t *testing.T) {
	in := NewArmed(1)
	in.Enable()
	in.Events(atlas.SiteFlushLine, 0, 0) // site 0: passes
	in.Events(atlas.SitePreCommit, 0, 1) // not numbered: passes
	func() {
		defer func() {
			c, ok := recover().(atlas.Crash)
			if !ok {
				t.Fatalf("recovered a %T, want an atlas.Crash", c)
			}
			if c.N != 1 || c.Site != atlas.SiteDrainLine {
				t.Fatalf("crash = %+v, want site 1 kind drain-line", c)
			}
		}()
		in.Events(atlas.SiteDrainLine, 0, 0) // site 1: fires
		t.Fatal("armed point did not panic")
	}()
	in.Events(atlas.SiteAck, 0, 1) // after firing: counted, no panic
	c, fired := in.Fired()
	if !fired || c.N != 1 {
		t.Fatalf("Fired() = %+v, %v", c, fired)
	}
	if got := in.Sites(); got != 3 {
		t.Fatalf("Sites() = %d, want 3", got)
	}
}

// TestDropDrainsDouble pins the negative-test double: drains vanish,
// asynchronous flushes pass through.
func TestDropDrainsDouble(t *testing.T) {
	inner := core.NewCountingSink(nil)
	d := DropDrains(inner)
	d.FlushLine(9)
	d.Drain([]trace.LineAddr{1, 2, 3})
	if st := d.Stats(); st.Async != 1 || st.Drained != 0 || st.Barriers != 0 {
		t.Fatalf("stats = %+v, want 1 async flush and the drain dropped", st)
	}
}
