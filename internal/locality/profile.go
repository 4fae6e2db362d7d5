package locality

// Profile is the compact locality summary of one sampled burst: the
// miss-ratio curve over capacities 0..maxSize plus scalar descriptors of
// the burst. WorkingSet is the footprint at
// the burst timescale (distinct renamed lines, fp(n) = n − reuse(n));
// Hotness is the fraction of sampled writes that reuse an already-written
// line — exactly the write-combining opportunity a software cache can
// exploit, so a hot burst argues for capacity and a cold one against it.
type Profile struct {
	MRC        *MRC
	WorkingSet float64
	Hotness    float64
	// Writes is the number of sampled writes.
	Writes int64
}

// ProfileBurst evaluates one renamed burst: the linear-time reuse curve
// (ReuseAll), its HOTL conversion to a miss-ratio curve (MRCFromReuse),
// and the scalar summaries, in one call. It is the single entry point for
// both the offline tool (cmd/mrc) and the online policy's one-shot
// adaptation.
func ProfileBurst(burst []uint64, maxSize int) *Profile {
	rc := ReuseAll(burst)
	p := &Profile{MRC: MRCFromReuse(rc, maxSize), Writes: int64(len(burst))}
	if n := len(burst); n > 0 {
		// reuse(n) averages over the single window of length n: the total
		// reuse count of the burst.
		reuses := rc.Reuse[n]
		p.WorkingSet = float64(n) - reuses
		p.Hotness = reuses / float64(n)
	}
	return p
}
