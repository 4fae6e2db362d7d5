package loadgen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"nvmcache/internal/proto"
)

// OpKind is one protocol operation class.
type OpKind uint8

const (
	OpGet OpKind = iota
	OpPut
	OpDel
	OpScan
	OpIncr
	OpDecr
	OpMGet
	OpMPut
)

// String returns the protocol verb.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDel:
		return "DEL"
	case OpScan:
		return "SCAN"
	case OpIncr:
		return "INCR"
	case OpDecr:
		return "DECR"
	case OpMGet:
		return "MGET"
	case OpMPut:
		return "MPUT"
	}
	return "?"
}

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  uint64
	Val  uint64 // PUT: value; INCR/DECR: delta
	N    int    // SCAN only: pair count
	// Keys/Vals carry MGET's key batch and MPUT's pair batch. Generators
	// reuse the backing arrays across Next calls: an Op is only valid until
	// the next draw, which the driver respects by sending before drawing.
	Keys []uint64
	Vals []uint64
}

// Line renders the protocol request.
func (o Op) Line() string {
	switch o.Kind {
	case OpGet:
		return "GET " + strconv.FormatUint(o.Key, 10)
	case OpPut:
		return "PUT " + strconv.FormatUint(o.Key, 10) + " " + strconv.FormatUint(o.Val, 10)
	case OpDel:
		return "DEL " + strconv.FormatUint(o.Key, 10)
	case OpScan:
		return "SCAN " + strconv.FormatUint(o.Key, 10) + " " + strconv.Itoa(o.N)
	case OpIncr:
		return "INCR " + strconv.FormatUint(o.Key, 10) + " " + strconv.FormatUint(o.Val, 10)
	case OpDecr:
		return "DECR " + strconv.FormatUint(o.Key, 10) + " " + strconv.FormatUint(o.Val, 10)
	case OpMGet:
		var sb strings.Builder
		sb.WriteString("MGET")
		for _, k := range o.Keys {
			sb.WriteByte(' ')
			sb.WriteString(strconv.FormatUint(k, 10))
		}
		return sb.String()
	case OpMPut:
		var sb strings.Builder
		sb.WriteString("MPUT")
		for i, k := range o.Keys {
			sb.WriteByte(' ')
			sb.WriteString(strconv.FormatUint(k, 10))
			sb.WriteByte(' ')
			sb.WriteString(strconv.FormatUint(o.Vals[i], 10))
		}
		return sb.String()
	}
	return ""
}

// Generator produces one connection's operation stream. Generators are
// stateful (churn tracks its live window, phased counts ops) and not
// concurrency-safe: the driver builds one per connection from the Spec.
type Generator interface {
	Name() string
	Next() Op
}

// Spec declares a key/op distribution; it is pure configuration (flag- and
// JSON-friendly), turned into per-connection Generators by the driver.
type Spec struct {
	// Kind is uniform, zipf, churn, scan — or phased, driven by Phases.
	Kind string `json:"kind"`
	// Keys is the keyspace size (uniform/zipf/scan) or the churn window.
	Keys uint64 `json:"keys,omitempty"`
	// Skew is the Zipf s parameter (>1; larger = hotter hot keys).
	Skew float64 `json:"skew,omitempty"`
	// ReadFrac is the GET share for uniform/zipf/churn, the SCAN share for
	// scan.
	ReadFrac float64 `json:"read_frac,omitempty"`
	// ScanLen is the pair count each SCAN requests.
	ScanLen int `json:"scan_len,omitempty"`
	// BatchLen is the key count each MGET/MPUT carries (mix verbs mget and
	// mput); capped by the protocol's per-frame op limit.
	BatchLen int `json:"batch_len,omitempty"`
	// Phases, when non-empty, switches distribution mid-run: each phase
	// runs for its fraction of the connection's planned operations, in
	// order. Kind is then reported as "phased".
	Phases []Phase `json:"phases,omitempty"`
	// Mix is the weighted verb mix for Kind "mix" (ParseMix's
	// `verb:weight,…` string, e.g. "put:1,get:1,incr:2"), kept in flag form
	// so the artifact's config section reproduces the workload verbatim.
	Mix string `json:"mix,omitempty"`
}

// Phase is one segment of a phase-changing schedule.
type Phase struct {
	Spec Spec    `json:"spec"`
	Frac float64 `json:"frac"`
}

// DistNames lists the atomic distribution kinds.
var DistNames = []string{"uniform", "zipf", "churn", "scan", "incr"}

// DefaultSpec fills the knobs a flag-less run uses.
func DefaultSpec() Spec {
	return Spec{Kind: "uniform", Keys: 1 << 16, Skew: 1.1, ReadFrac: 0.5, ScanLen: 16, BatchLen: 8}
}

func (s Spec) withDefaults() Spec {
	d := DefaultSpec()
	if s.Keys == 0 {
		s.Keys = d.Keys
	}
	if s.Skew <= 1 {
		s.Skew = d.Skew
	}
	if s.ReadFrac < 0 || s.ReadFrac > 1 {
		s.ReadFrac = d.ReadFrac
	}
	if s.ScanLen <= 0 {
		s.ScanLen = d.ScanLen
	}
	if s.BatchLen <= 0 {
		s.BatchLen = d.BatchLen
	}
	if s.BatchLen > proto.MaxOps {
		s.BatchLen = proto.MaxOps
	}
	return s
}

// Name returns the distribution's reporting name.
func (s Spec) Name() string {
	if s.Kind == "mix" {
		return "mix(" + s.Mix + ")"
	}
	if len(s.Phases) > 0 {
		names := make([]string, len(s.Phases))
		for i, p := range s.Phases {
			names[i] = fmt.Sprintf("%s@%.2f", p.Spec.Kind, p.Frac)
		}
		return "phased(" + strings.Join(names, ",") + ")"
	}
	return s.Kind
}

// ParseDist parses a -dist flag value against base (which carries the
// -keys/-skew/-read-frac/-scan-len knobs): either one kind name, or a
// phase schedule `kind@frac,kind@frac,…` (fractions are normalized, so
// `zipf@1,uniform@1` means half and half).
func ParseDist(s string, base Spec) (Spec, error) {
	base = base.withDefaults()
	parts := strings.Split(s, ",")
	if len(parts) == 1 && !strings.Contains(s, "@") {
		return specOfKind(strings.TrimSpace(s), base)
	}
	out := base
	out.Kind = "phased"
	var sum float64
	for _, part := range parts {
		name, fracStr, hasFrac := strings.Cut(strings.TrimSpace(part), "@")
		frac := 1.0
		if hasFrac {
			f, err := strconv.ParseFloat(fracStr, 64)
			if err != nil || f <= 0 {
				return Spec{}, fmt.Errorf("loadgen: bad phase fraction %q", part)
			}
			frac = f
		}
		ps, err := specOfKind(name, base)
		if err != nil {
			return Spec{}, err
		}
		out.Phases = append(out.Phases, Phase{Spec: ps, Frac: frac})
		sum += frac
	}
	for i := range out.Phases {
		out.Phases[i].Frac /= sum
	}
	return out, nil
}

// ParseMix parses a -mix flag value `verb:weight,…` (for example
// `put:1,get:1,incr:2`) into a weighted-verb Spec over base's
// keys/scan-len knobs. Verbs are get, put, del, incr, decr, scan; a verb
// without a weight counts 1. The raw string is kept on the Spec so the
// artifact reproduces the workload.
func ParseMix(s string, base Spec) (Spec, error) {
	if _, err := parseMixWeights(s); err != nil {
		return Spec{}, err
	}
	out := base.withDefaults()
	out.Kind = "mix"
	out.Mix = s
	out.Phases = nil
	return out, nil
}

// mixEntry is one verb's normalized share of a mix distribution.
type mixEntry struct {
	kind OpKind
	w    float64
}

func parseMixWeights(s string) ([]mixEntry, error) {
	verbs := map[string]OpKind{
		"get": OpGet, "put": OpPut, "del": OpDel,
		"incr": OpIncr, "decr": OpDecr, "scan": OpScan,
		"mget": OpMGet, "mput": OpMPut,
	}
	var out []mixEntry
	sum := 0.0
	for _, part := range strings.Split(s, ",") {
		name, wStr, hasW := strings.Cut(strings.TrimSpace(part), ":")
		w := 1.0
		if hasW {
			f, err := strconv.ParseFloat(wStr, 64)
			if err != nil || f <= 0 {
				return nil, fmt.Errorf("loadgen: bad mix weight %q", part)
			}
			w = f
		}
		kind, ok := verbs[strings.ToLower(name)]
		if !ok {
			return nil, fmt.Errorf("loadgen: unknown mix verb %q (want get, put, del, incr, decr, scan, mget, mput)", name)
		}
		out = append(out, mixEntry{kind: kind, w: w})
		sum += w
	}
	if len(out) == 0 || sum <= 0 {
		return nil, fmt.Errorf("loadgen: empty mix %q", s)
	}
	for i := range out {
		out[i].w /= sum
	}
	return out, nil
}

func specOfKind(kind string, base Spec) (Spec, error) {
	for _, n := range DistNames {
		if n == kind {
			s := base
			s.Kind = kind
			s.Phases = nil
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("loadgen: unknown distribution %q (want %s, or a kind@frac,… schedule)",
		kind, strings.Join(DistNames, ", "))
}

// Generator builds connection conn's generator. planned is the
// connection's scheduled operation count (phase boundaries are fractions
// of it); seed derives the connection's private RNG.
func (s Spec) Generator(conn, planned int, seed int64) (Generator, error) {
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(seed ^ int64(uint64(conn+1)*0x9e3779b97f4a7c15)))
	if len(s.Phases) > 0 {
		g := &phasedGen{}
		remaining := planned
		for i, p := range s.Phases {
			n := int(p.Frac * float64(planned))
			if i == len(s.Phases)-1 {
				n = remaining // absorb rounding so the schedule covers the run
			}
			if n < 0 {
				n = 0
			}
			remaining -= n
			sub, err := p.Spec.Generator(conn, n, seed+int64(i+1))
			if err != nil {
				return nil, err
			}
			g.phases = append(g.phases, phaseGen{g: sub, ops: n})
		}
		return g, nil
	}
	switch s.Kind {
	case "uniform":
		return &uniformGen{rng: rng, keys: s.Keys, readFrac: s.ReadFrac}, nil
	case "zipf":
		return &zipfGen{rng: rng, z: rand.NewZipf(rng, s.Skew, 1, s.Keys-1), readFrac: s.ReadFrac}, nil
	case "churn":
		// Each connection churns a private key range (top byte = conn+1,
		// below any uniform/zipf keyspace) so inserts and deletes are its
		// own and the live window genuinely turns over.
		return &churnGen{rng: rng, base: uint64(conn+1) << 48, window: s.Keys, readFrac: s.ReadFrac}, nil
	case "scan":
		return &scanGen{rng: rng, keys: s.Keys, scanFrac: s.ReadFrac, scanLen: s.ScanLen}, nil
	case "incr":
		return &incrGen{rng: rng, keys: s.Keys, readFrac: s.ReadFrac}, nil
	case "mix":
		entries, err := parseMixWeights(s.Mix)
		if err != nil {
			return nil, err
		}
		return &mixGen{rng: rng, keys: s.Keys, scanLen: s.ScanLen, batchLen: s.BatchLen, entries: entries}, nil
	}
	return nil, fmt.Errorf("loadgen: unknown distribution %q", s.Kind)
}

// uniformGen reads and writes keys uniformly over the keyspace.
type uniformGen struct {
	rng      *rand.Rand
	keys     uint64
	readFrac float64
}

func (g *uniformGen) Name() string { return "uniform" }

func (g *uniformGen) Next() Op {
	k := uint64(g.rng.Int63n(int64(g.keys)))
	if g.rng.Float64() < g.readFrac {
		return Op{Kind: OpGet, Key: k}
	}
	return Op{Kind: OpPut, Key: k, Val: g.rng.Uint64()}
}

// zipfGen concentrates traffic on hot keys with Zipf-distributed ranks:
// the adaptive-cache thesis workload, where a small working set should let
// the write cache absorb most flushes.
type zipfGen struct {
	rng      *rand.Rand
	z        *rand.Zipf
	readFrac float64
}

func (g *zipfGen) Name() string { return "zipf" }

func (g *zipfGen) Next() Op {
	// Mix the rank so hot keys spread across shards (rank 0 is hottest);
	// the multiply is a bijection, preserving the popularity distribution.
	k := g.z.Uint64() * 0x9e3779b97f4a7c15
	if g.rng.Float64() < g.readFrac {
		return Op{Kind: OpGet, Key: k}
	}
	return Op{Kind: OpPut, Key: k, Val: g.rng.Uint64()}
}

// churnGen slides a live key window: inserts at the head, deletes at the
// tail once the window is full, reads inside the window. The store's
// contents turn over completely — the B+-tree constantly splits and
// merges, and deferred page reclamation is kept honest.
type churnGen struct {
	rng      *rand.Rand
	base     uint64
	lo, hi   uint64 // live window is [base+lo, base+hi)
	window   uint64
	readFrac float64
	delTurn  bool
}

func (g *churnGen) Name() string { return "churn" }

func (g *churnGen) Next() Op {
	if g.hi > g.lo && g.rng.Float64() < g.readFrac {
		k := g.base + g.lo + uint64(g.rng.Int63n(int64(g.hi-g.lo)))
		return Op{Kind: OpGet, Key: k}
	}
	// Writes alternate insert/delete once the window is full, so the live
	// set stays ~window keys while every key eventually dies.
	if g.delTurn && g.hi-g.lo >= g.window {
		k := g.base + g.lo
		g.lo++
		g.delTurn = false
		return Op{Kind: OpDel, Key: k}
	}
	k := g.base + g.hi
	g.hi++
	g.delTurn = true
	return Op{Kind: OpPut, Key: k, Val: g.rng.Uint64()}
}

// scanGen is range-read heavy: SCANs of scanLen pairs at uniform starting
// points, interleaved with PUTs that keep the trees populated.
type scanGen struct {
	rng      *rand.Rand
	keys     uint64
	scanFrac float64
	scanLen  int
}

func (g *scanGen) Name() string { return "scan" }

func (g *scanGen) Next() Op {
	k := uint64(g.rng.Int63n(int64(g.keys)))
	if g.rng.Float64() < g.scanFrac {
		return Op{Kind: OpScan, Key: k, N: g.scanLen}
	}
	return Op{Kind: OpPut, Key: k, Val: g.rng.Uint64()}
}

// incrGen is the counter workload: INCRs of small deltas over a uniform
// keyspace, interleaved with a ReadFrac share of GETs. Each INCR is a
// read-modify-write inside its batch's FASE.
type incrGen struct {
	rng      *rand.Rand
	keys     uint64
	readFrac float64
}

func (g *incrGen) Name() string { return "incr" }

func (g *incrGen) Next() Op {
	k := uint64(g.rng.Int63n(int64(g.keys)))
	if g.rng.Float64() < g.readFrac {
		return Op{Kind: OpGet, Key: k}
	}
	return Op{Kind: OpIncr, Key: k, Val: 1 + uint64(g.rng.Int63n(16))}
}

// mixGen draws each op's verb from the normalized weight table, with
// uniform keys: the -mix workload (`put:1,get:1,incr:2`-style). The
// batched verbs (mget, mput) reuse kbuf/vbuf across draws, so a mix
// stream allocates nothing per op in steady state.
type mixGen struct {
	rng      *rand.Rand
	keys     uint64
	scanLen  int
	batchLen int
	entries  []mixEntry
	kbuf     []uint64
	vbuf     []uint64
}

func (g *mixGen) Name() string { return "mix" }

func (g *mixGen) Next() Op {
	u := g.rng.Float64()
	kind := g.entries[len(g.entries)-1].kind
	for _, e := range g.entries {
		if u < e.w {
			kind = e.kind
			break
		}
		u -= e.w
	}
	k := uint64(g.rng.Int63n(int64(g.keys)))
	switch kind {
	case OpPut:
		return Op{Kind: OpPut, Key: k, Val: g.rng.Uint64()}
	case OpScan:
		return Op{Kind: OpScan, Key: k, N: g.scanLen}
	case OpIncr, OpDecr:
		return Op{Kind: kind, Key: k, Val: 1 + uint64(g.rng.Int63n(16))}
	case OpDel:
		return Op{Kind: OpDel, Key: k}
	case OpMGet:
		g.fillKeys()
		return Op{Kind: OpMGet, Keys: g.kbuf}
	case OpMPut:
		g.fillKeys()
		if cap(g.vbuf) < g.batchLen {
			g.vbuf = make([]uint64, g.batchLen)
		}
		g.vbuf = g.vbuf[:g.batchLen]
		for i := range g.vbuf {
			g.vbuf[i] = g.rng.Uint64()
		}
		return Op{Kind: OpMPut, Keys: g.kbuf, Vals: g.vbuf}
	}
	return Op{Kind: OpGet, Key: k}
}

func (g *mixGen) fillKeys() {
	if cap(g.kbuf) < g.batchLen {
		g.kbuf = make([]uint64, g.batchLen)
	}
	g.kbuf = g.kbuf[:g.batchLen]
	for i := range g.kbuf {
		g.kbuf[i] = uint64(g.rng.Int63n(int64(g.keys)))
	}
}

// phasedGen runs its sub-generators back to back, switching after each
// one's operation budget — the mid-run distribution shift that adaptive
// sizing must react to.
type phasedGen struct {
	phases []phaseGen
	idx    int
	used   int
}

type phaseGen struct {
	g   Generator
	ops int
}

func (g *phasedGen) Name() string { return "phased" }

// Phase returns the active phase index (for progress reporting/tests).
func (g *phasedGen) Phase() int { return g.idx }

func (g *phasedGen) Next() Op {
	for g.idx < len(g.phases)-1 && g.used >= g.phases[g.idx].ops {
		g.idx++
		g.used = 0
	}
	g.used++
	return g.phases[g.idx].g.Next()
}
