package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Baseline is the machine-readable record of one baseline experiment: the
// object committed as BENCH_<id>.json and diffed by cmd/pivot-benchdiff.
// Keys keep their insertion order, so a regenerated file diffs cleanly
// against the committed one; values are numbers, bools, strings, nested
// records and arrays of records (legs, points).  The zero value is an
// empty record.
//
// A record carries its own regression-gate manifest (Gate), marshalled
// last as "gates": {"require": [...]}.  pivot-benchdiff reads the manifest
// from the committed baseline, so each experiment declares its must-exist
// gated counters instead of CI hard-coding per-experiment flags: the bench
// loop stays one uniform step and a new experiment registers its gates by
// shipping them inside its baseline.
type Baseline struct {
	keys  []string
	vals  map[string]any
	gates []string
}

// Set stores v — an int, int64, float64, bool, string, *Baseline or
// []*Baseline — under key.  A key keeps the position of its first Set.
func (b *Baseline) Set(key string, v any) {
	if b.vals == nil {
		b.vals = map[string]any{}
	}
	if _, ok := b.vals[key]; !ok {
		b.keys = append(b.keys, key)
	}
	b.vals[key] = v
}

// Gate lists the paths that must be present as gated numbers (rounds /
// msgs / bytes counters) in both the baseline and the current run; a
// rename or drop on both sides then fails the diff instead of silently
// retiring the gate.
func (b *Baseline) Gate(paths ...string) { b.gates = paths }

// MarshalJSON writes the keys in insertion order and the gates manifest,
// when there is one, last.
func (b *Baseline) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	field := func(key string, v any) error {
		k, _ := json.Marshal(key) // a string always marshals
		val, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("experiments: baseline key %q: %w", key, err)
		}
		if buf.Len() > 1 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%s:%s", k, val)
		return nil
	}
	for _, k := range b.keys {
		if err := field(k, b.vals[k]); err != nil {
			return nil, err
		}
	}
	if len(b.gates) > 0 {
		if err := field("gates", map[string][]string{"require": b.gates}); err != nil {
			return nil, err
		}
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// WriteFile writes the record as an indented BENCH_*.json file.
func (b *Baseline) WriteFile(path string) error {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("experiments: write %s: %w", path, err)
	}
	return nil
}

// Leaf is one scalar of a flattened record, addressed by its dotted path.
type Leaf struct {
	Path  string
	Value any
}

// Flatten walks a record — a *Baseline, or the map[string]any / []any tree
// encoding/json decodes a BENCH_*.json file into — down to its scalar
// leaves.  Nested keys join with ".", array elements index as "[i]"
// (legs[1].pipelined_mpc_rounds): the one path syntax that gates
// manifests, pivot-benchdiff's report and Baseline lookups share.  A
// Baseline's leaves come in insertion order, a decoded object's in key
// order.
func Flatten(v any) []Leaf {
	var out []Leaf
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		child := func(k string) string {
			if prefix == "" {
				return k
			}
			return prefix + "." + k
		}
		switch x := v.(type) {
		case *Baseline:
			for _, k := range x.keys {
				walk(child(k), x.vals[k])
			}
			for i, g := range x.gates {
				walk(fmt.Sprintf("%s[%d]", child("gates.require"), i), g)
			}
		case map[string]any:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				walk(child(k), x[k])
			}
		case []*Baseline:
			for i, e := range x {
				walk(fmt.Sprintf("%s[%d]", prefix, i), e)
			}
		case []any:
			for i, e := range x {
				walk(fmt.Sprintf("%s[%d]", prefix, i), e)
			}
		default:
			out = append(out, Leaf{Path: prefix, Value: v})
		}
	}
	walk("", v)
	return out
}

// Gated reports whether a path names a deterministic count metric that
// must not regress (rounds, messages, bytes).  Derived ratios and
// wall-clock figures are advisory only: CI machine noise would make gating
// them flaky.
func Gated(path string) bool {
	k := strings.ToLower(path)
	for _, skip := range []string{"reduction", "speedup", "seconds", "throughput", "latency", "ratio"} {
		if strings.Contains(k, skip) {
			return false
		}
	}
	for _, hit := range []string{"rounds", "msgs", "messages", "bytes"} {
		if strings.Contains(k, hit) {
			return true
		}
	}
	return false
}

// number reads a record value as a float64; a bool counts as 0 or 1.
func number(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// get returns the scalar at a dotted path (nil when absent).
func (b *Baseline) get(path string) any {
	for _, l := range Flatten(b) {
		if l.Path == path {
			return l.Value
		}
	}
	return nil
}

// Int returns the number at a dotted path as an integer (0 when absent).
func (b *Baseline) Int(path string) int64 {
	n, _ := number(b.get(path))
	return int64(n)
}

// Bool returns the flag at a dotted path (false when absent).
func (b *Baseline) Bool(path string) bool {
	t, _ := b.get(path).(bool)
	return t
}

// Table derives the human-readable Result from the record: one row per
// element of its array of records (the legs or points the experiment
// sweeps), or a single row for a flat record.  A row's X is the first
// numeric field, its series the remaining numbers and the bool identity
// flags (as 0/1); the key names carry the units.
func (b *Baseline) Table() *Result {
	recs := []*Baseline{b}
	for _, k := range b.keys {
		if arr, ok := b.vals[k].([]*Baseline); ok {
			recs = arr
			break
		}
	}
	res := &Result{Unit: "per key"}
	for _, rec := range recs {
		row := Row{Series: map[string]float64{}}
		for _, k := range rec.keys {
			v, ok := number(rec.vals[k])
			if !ok {
				continue
			}
			if res.XLabel == "" {
				res.XLabel = k
			}
			if k == res.XLabel {
				row.X = v
			} else {
				row.Series[k] = v
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Summary is the one-line digest pivot-bench logs next to a written
// baseline: the record's gated counters (the numbers CI pins) and its bool
// identity flags.
func (b *Baseline) Summary() string {
	var parts []string
	for _, l := range Flatten(b) {
		_, isBool := l.Value.(bool)
		if _, isNum := number(l.Value); isBool || isNum && Gated(l.Path) {
			parts = append(parts, fmt.Sprintf("%s=%v", l.Path, l.Value))
		}
	}
	return strings.Join(parts, ", ")
}
