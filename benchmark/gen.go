package main

import (
	"math/rand"
	"time"
)

// Key space: every connection owns ranksPerConn keys, key = 2·rank + conn,
// so no two connections ever write the same key and each can check every
// GET reply against the last value it wrote itself.
const (
	numConns     = 2
	ranksPerConn = 1 << 15
	numKeys      = numConns * ranksPerConn

	// streamLen is the length of the pre-generated rank stream a driver
	// cycles through. Drawing ranks ahead of time keeps the Zipf sampler's
	// log/exp calls out of the measured loop, where a GET has a budget of
	// well under a microsecond.
	streamLen = 1 << 20

	zipfS = 1.1
)

// Generator streams. Each (seed, stream, conn) triple gets its own
// math/rand source, whose output Go keeps fixed across releases, so one
// seed is one op stream.
const (
	streamRanks = iota
	streamOps
)

func newRand(seed int64, stream, conn int) *rand.Rand {
	// splitmix64 finalizer over the triple, so neighbouring seeds do not
	// give correlated sources.
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(conn) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

func keyOf(rank uint32, conn int) uint64 { return 2*uint64(rank) + uint64(conn) }

// uniformRanks draws n ranks uniformly from [0, ranksPerConn).
func uniformRanks(r *rand.Rand, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(r.Intn(ranksPerConn))
	}
	return out
}

// zipfRanks draws n ranks with P(i-th hottest) ∝ 1/(1+i)^zipfS. The hot
// ranks are scattered over the key space by an odd multiplier (a bijection
// modulo a power of two), so popularity is not correlated with B+-tree
// position.
func zipfRanks(r *rand.Rand, n int) []uint32 {
	z := rand.NewZipf(r, zipfS, 1, ranksPerConn-1)
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(z.Uint64()*0x9e3779b1) & (ranksPerConn - 1)
	}
	return out
}

// poissonGap draws one inter-arrival gap of a Poisson process with the
// given rate.
func poissonGap(r *rand.Rand, perSecond float64) time.Duration {
	return time.Duration(r.ExpFloat64() / perSecond * float64(time.Second))
}
