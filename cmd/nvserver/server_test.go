package main

import (
	"testing"

	"nvmcache/internal/kv"
)

// The protocol end-to-end tests live in internal/server (the server moved
// there so internal/loadgen can self-host it); what stays here is the
// self-test entry point the -selftest flag runs.

// TestSelfTestSmoke runs the full crash/recovery self-test at a small scale.
func TestSelfTestSmoke(t *testing.T) {
	opts := kv.DefaultOptions()
	opts.Shards = 2
	if err := runSelfTest(opts, 2, 100, 42, false); err != nil {
		t.Fatal(err)
	}
}

// TestSelfTestExhaustive runs phase C too: the full crash-point
// exploration behind -selftest -exhaustive.
func TestSelfTestExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration sweeps run in internal/faultinject; skip the cmd wrapper in -short")
	}
	opts := kv.DefaultOptions()
	opts.Shards = 2
	if err := runSelfTest(opts, 2, 100, 42, true); err != nil {
		t.Fatal(err)
	}
}
