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

// Every STATS key is typed. A counter only grows, so a run's share of it
// is the difference of two snapshots. A gauge is a level or a ratio, and
// the difference of two gauges measures nothing.
type statKind int

const (
	untyped statKind = iota
	counter
	gauge
)

// kindOf types every key of the shard, total and stripes lines.
func kindOf(key string) statKind {
	switch key {
	case "aborts", "batches", "cow_batches", "decrs", "dels", "descents",
		"flush_async", "flush_barriers", "flush_drained", "flushes", "gets",
		"incrs", "ops", "puts", "scans", "acquired", "contended":
		return counter
	case "avg_batch", "flush_ratio", "contention", "stripes", "hot_stripe",
		"hot_acquired":
		return gauge
	}
	return untyped
}

// ratioOf names a ratio gauge's numerator and denominator counters, both on
// the gauge's own line.
func ratioOf(key string) (num, den string, ok bool) {
	switch key {
	case "avg_batch":
		return "ops", "batches", true // ops per committed batch
	case "flush_ratio":
		return "flushes", "ops", true // line flushes per committed op
	case "contention":
		return "contended", "acquired", true // contended stripe acquisitions
	}
	return "", "", false
}

// Diff returns what happened between prev and s, for every key of the total
// and stripes lines, prefixed "total." and "stripes.": a counter's
// difference, a ratio gauge recomputed from its counters' differences (0
// when the denominator did not move), and any other gauge's value in s. A
// nil prev diffs against zero counters. A key kindOf does not type diffs
// as a counter.
func (s *Stats) Diff(prev *Stats) map[string]float64 {
	out := make(map[string]float64, len(s.Total)+len(s.Stripes))
	diff := func(prefix string, cur, old map[string]float64) {
		for k, v := range cur {
			if num, den, ok := ratioOf(k); ok {
				out[prefix+k] = 0
				if d := cur[den] - old[den]; d != 0 {
					out[prefix+k] = (cur[num] - old[num]) / d
				}
			} else if kindOf(k) == gauge {
				out[prefix+k] = v
			} else {
				out[prefix+k] = v - old[k]
			}
		}
	}
	var pt, ps map[string]float64
	if prev != nil {
		pt, ps = prev.Total, prev.Stripes
	}
	diff("total.", s.Total, pt)
	diff("stripes.", s.Stripes, ps)
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
