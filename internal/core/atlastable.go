package core

import "nvmcache/internal/trace"

// atlasPolicy reimplements the persistence table of Atlas (Chakrabarti et
// al., OOPSLA'14), the paper's state-of-the-art baseline (Section II-A):
// a small fixed-size table recording the addresses of modified cache
// blocks. The paper characterizes it as "equivalent to a direct-mapped,
// fixed size cache": upon a write, if the line's address already occupies
// its slot nothing happens (the write combines); if the slot holds a
// different address, that address is flushed and replaced; the whole table
// is flushed at the end of a FASE.
type atlasPolicy struct {
	sink     FlushSink
	slots    []trace.LineAddr
	occupied []bool
}

func newAtlasPolicy(cfg Config, sink FlushSink) *atlasPolicy {
	n := cfg.AtlasTableSize
	if n < 1 {
		n = 8
	}
	return &atlasPolicy{
		sink:     sink,
		slots:    make([]trace.LineAddr, n),
		occupied: make([]bool, n),
	}
}

func (p *atlasPolicy) Kind() PolicyKind { return AtlasTable }

// slotOf maps a line to its direct-mapped slot. Atlas indexes by the
// low-order bits of the cache-line address; sequential lines therefore
// occupy distinct slots, which is what gives AT its 15/16 write combining
// on streaming workloads (Section IV-B, persistent-array).
func (p *atlasPolicy) slotOf(line trace.LineAddr) int {
	return int(uint64(line) % uint64(len(p.slots)))
}

func (p *atlasPolicy) Store(line trace.LineAddr) {
	i := p.slotOf(line)
	if p.occupied[i] {
		if p.slots[i] == line {
			return // combined
		}
		p.sink.FlushLine(p.slots[i]) // conflict eviction
	}
	p.slots[i] = line
	p.occupied[i] = true
}

// StoreRun is one Store: every repeat combines in the slot the first took.
func (p *atlasPolicy) StoreRun(line trace.LineAddr, _ int) { p.Store(line) }

func (p *atlasPolicy) FASEBegin() {}

func (p *atlasPolicy) FASEEnd() {
	var lines []trace.LineAddr
	for i, occ := range p.occupied {
		if occ {
			lines = append(lines, p.slots[i])
			p.occupied[i] = false
		}
	}
	p.sink.Drain(lines)
}

func (p *atlasPolicy) Finish() { p.FASEEnd() }
