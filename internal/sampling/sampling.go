// Package sampling implements the bursty trace sampling used for online
// MRC analysis (Section III-C, after Arnold–Ryder): execution is divided
// into bursts, during which persistent writes are recorded, and hibernation
// periods, during which monitoring is off. The paper uses one burst of 64M
// writes and an infinite hibernation ("we found it is sufficient to analyze
// MRC just once"), which is the default here too.
//
// The sampler performs FASE renaming on the fly (unique ids per FASE per
// line), so its output feeds internal/locality directly.
package sampling

import "nvmcache/internal/trace"

// Config controls one sampler.
type Config struct {
	// BurstLength is the number of persistent writes recorded per burst.
	BurstLength int
	// Hibernation is the number of writes skipped between bursts;
	// Infinite (the default, matching the paper) means a single burst.
	Hibernation int64
}

// Infinite hibernation: sample exactly one burst.
const Infinite int64 = -1

// DefaultConfig matches the paper's setting scaled to this repository's
// default workload sizes: one burst, infinite hibernation. The burst length
// is chosen by the caller (the paper uses 64M writes at full scale).
func DefaultConfig(burst int) Config {
	return Config{BurstLength: burst, Hibernation: Infinite}
}

// Sampler collects renamed write bursts from one thread's store stream.
type Sampler struct {
	cfg       Config
	burst     []uint64
	ids       map[trace.LineAddr]uint64
	next      uint64
	skipped   int64
	sleeping  bool
	completed int // bursts finished
}

// New returns a sampler in the collecting state. The burst buffer is
// allocated at the first recorded store: a thread that never stores never
// pays for it.
func New(cfg Config) *Sampler {
	if cfg.BurstLength <= 0 {
		cfg.BurstLength = 1
	}
	return &Sampler{
		cfg: cfg,
		ids: make(map[trace.LineAddr]uint64, 256),
	}
}

// RecordStore feeds one persistent store. It reports true exactly when this
// store completes a burst; the caller then reads Burst, acts on it
// (computes the MRC, adapts the cache) and calls Reset if more bursts are
// wanted.
func (s *Sampler) RecordStore(line trace.LineAddr) (burstDone bool) {
	if s.sleeping {
		s.skipped++
		if s.cfg.Hibernation >= 0 && s.skipped >= s.cfg.Hibernation {
			s.wake()
		}
		return false
	}
	id, ok := s.ids[line]
	if !ok {
		id = s.next
		s.next++
		s.ids[line] = id
	}
	if s.burst == nil {
		s.burst = make([]uint64, 0, s.cfg.BurstLength)
	}
	s.burst = append(s.burst, id)
	if len(s.burst) >= s.cfg.BurstLength {
		s.completed++
		s.sleeping = true
		s.skipped = 0
		return true
	}
	return false
}

// FASEEnd marks a failure-atomic section boundary: subsequent writes to the
// same lines are new data for locality purposes (Section III-B renaming).
func (s *Sampler) FASEEnd() {
	if !s.sleeping {
		clear(s.ids)
	}
}

// Burst returns the most recently completed (or in-progress) burst.
func (s *Sampler) Burst() []uint64 { return s.burst }

// Collecting reports whether the sampler is currently recording.
func (s *Sampler) Collecting() bool { return !s.sleeping }

// Completed reports how many bursts have finished.
func (s *Sampler) Completed() int { return s.completed }

// Analyzed returns the total number of writes recorded so far; the cost
// models charge online-analysis cycles proportionally to it.
func (s *Sampler) Analyzed() int64 { return int64(len(s.burst)) }

func (s *Sampler) wake() {
	s.sleeping = false
	s.burst = s.burst[:0]
	clear(s.ids)
	s.next = 0
}

// Reset forces the sampler back to collecting, discarding burst state.
// Exposed for tests and for callers that implement their own hibernation
// policy.
func (s *Sampler) Reset() { s.wake() }
