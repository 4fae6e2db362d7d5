package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// spinMargin is how long before an op is due the pacer stops sleeping and
// starts yielding in a loop. time.Sleep alone wakes hundreds of
// microseconds late on a shared VM, which an open-loop driver would book
// as latency; the margin has to cover that overshoot.
const spinMargin = 1500 * time.Microsecond

// waitUntil blocks until due and returns how late it woke. The spin yields
// the processor on every turn, so runnable server goroutines are not held
// up by it on a two-CPU machine.
func waitUntil(due time.Time) time.Duration {
	if d := time.Until(due) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for {
		if late := time.Since(due); late >= 0 {
			return late
		}
		runtime.Gosched()
	}
}

// slice is one stretch of a measured phase: the operations completed in it
// (riders excluded), their latencies by verb, and the wall and CPU time it
// took. Every end-to-end rate, cost and latency is computed per slice
// first; see bestTenth for why.
type slice struct {
	ops          float64
	put, get     hist
	elapsed, cpu time.Duration
}

// slices divides a phase into stretches of equal width from its start.
type slices struct {
	start time.Time
	width time.Duration
	s     []slice
}

func newSlices(start time.Time, width time.Duration, n int) *slices {
	return &slices{start: start, width: width, s: make([]slice, n)}
}

// at returns the slice t falls into, or nil outside the phase.
func (b *slices) at(t time.Time) *slice {
	if i := int(t.Sub(b.start) / b.width); t.After(b.start) && i < len(b.s) {
		return &b.s[i]
	}
	return nil
}

// addSpan credits n operations served uniformly over [from, to]; the part
// outside the phase is dropped. A pipelined window's acks arrive in one
// write when its last operation commits, so its operations are spread over
// the window's service interval instead of landing on one instant; the
// per-slice counts are then free of the ±window quantization a slow
// workload would show.
func (b *slices) addSpan(from, to time.Time, n int) {
	lo := float64(from.Sub(b.start)) / float64(b.width)
	hi := float64(to.Sub(b.start)) / float64(b.width)
	if hi <= lo {
		if i := int(math.Floor(hi)); hi >= 0 && i < len(b.s) {
			b.s[i].ops += float64(n)
		}
		return
	}
	rate := float64(n) / (hi - lo)
	for i := int(math.Max(0, math.Floor(lo))); i < len(b.s) && float64(i) < hi; i++ {
		b.s[i].ops += rate * (math.Min(hi, float64(i+1)) - math.Max(lo, float64(i)))
	}
}

func (b *slices) merge(o *slices) {
	for i := range b.s {
		b.s[i].ops += o.s[i].ops
		b.s[i].put.merge(&o.s[i].put)
		b.s[i].get.merge(&o.s[i].get)
	}
}

// bestTenth summarises one figure per slice by the decile on the figure's
// good side: the ninth decile of throughputs, the first decile of costs and
// latencies. On a shared two-CPU VM a neighbour takes the processor, or half
// of a core's pipeline, for seconds at a time; a slice is then slowed, never
// sped up, so the good-side decile is what the code does when it has the
// machine, as long as a tenth of the slices were left alone. On the
// reference box the slices of one put_window run read 150-420 us of CPU per
// operation while the best slice of five such runs read 150-156.
func bestTenth(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if higherIsBetter {
		return quantileOf(s, 0.9)
	}
	return quantileOf(s, 0.1)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileOf(s, 0.5)
}

// quantileOf interpolates the q-quantile of sorted values the way
// Python's statistics.quantiles does (exclusive method), which is what the
// benchmark's acceptance check uses.
func quantileOf(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// usage is the process's resource consumption so far: user+system CPU
// (which excludes time stolen by the hypervisor) and the resident-set
// high-water mark.
type usage struct {
	cpu       time.Duration
	maxRSSMiB float64
}

func getUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only fails on a bad pointer or selector: a bug here
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	// Linux reports ru_maxrss in KiB.
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSSMiB: float64(ru.Maxrss) / 1024}
}
