package nvclient

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Stats is one parsed STATS reply: the server emits one line per shard, an
// aggregate `total` line and a `stripes` line, every field a `key=value`
// token with keys in sorted, stable order (kv.ShardStats.Pairs), so two
// snapshots taken around a load run diff reliably.
type Stats struct {
	// Shards holds each shard line's fields, indexed by shard id.
	Shards []map[string]float64
	// Total holds the aggregate line's fields.
	Total map[string]float64
	// Stripes holds the heap's stripe-lock summary (contention counters).
	Stripes map[string]float64
}

// ParseStats parses the lines of one STATS reply (terminator excluded).
func ParseStats(lines []string) (*Stats, error) {
	st := &Stats{}
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch {
		case strings.HasPrefix(fields[0], "shard="):
			id, err := strconv.Atoi(strings.TrimPrefix(fields[0], "shard="))
			if err != nil || id < 0 {
				return nil, fmt.Errorf("nvclient: bad shard line %q", line)
			}
			m, err := parsePairs(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("nvclient: shard %d: %w", id, err)
			}
			for len(st.Shards) <= id {
				st.Shards = append(st.Shards, nil)
			}
			st.Shards[id] = m
		case fields[0] == "total":
			m, err := parsePairs(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("nvclient: total line: %w", err)
			}
			st.Total = m
		case strings.HasPrefix(fields[0], "stripes="):
			// The stripe count is itself a key=value token, so the whole
			// line parses uniformly.
			m, err := parsePairs(fields)
			if err != nil {
				return nil, fmt.Errorf("nvclient: stripes line: %w", err)
			}
			st.Stripes = m
		default:
			return nil, fmt.Errorf("nvclient: unrecognized STATS line %q", line)
		}
	}
	if st.Total == nil {
		return nil, fmt.Errorf("nvclient: STATS reply has no total line")
	}
	return st, nil
}

func parsePairs(tokens []string) (map[string]float64, error) {
	m := make(map[string]float64, len(tokens))
	for _, tok := range tokens {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("token %q is not key=value", tok)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("token %q: %w", tok, err)
		}
		m[k] = f
	}
	return m, nil
}

// Diff returns cur−prev for every key of the total and stripes lines,
// prefixed "total." and "stripes.". The subtraction is meaningful for the
// monotone counters (ops, puts, gets, flushes, aborts, acquired,
// contended, …); gauge keys (ratios and averages) are included for
// completeness but should be read from the final snapshot, or recomputed
// from the counter deltas, instead.
func (s *Stats) Diff(prev *Stats) map[string]float64 {
	out := make(map[string]float64, len(s.Total)+len(s.Stripes))
	sub := func(prefix string, cur, old map[string]float64) {
		for k, v := range cur {
			p := 0.0
			if old != nil {
				p = old[k]
			}
			out[prefix+k] = v - p
		}
	}
	var pt, ps map[string]float64
	if prev != nil {
		pt, ps = prev.Total, prev.Stripes
	}
	sub("total.", s.Total, pt)
	sub("stripes.", s.Stripes, ps)
	return out
}

// Keys returns a map's keys sorted (stable iteration for rendering/tests).
func Keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
