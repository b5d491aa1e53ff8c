package metrics

import (
	"fmt"
	"strconv"
	"strings"
)

// Family is one parsed metric family from an exposition.
type Family struct {
	Name    string
	Type    string
	Samples int // sample lines attributed to this family
}

// Parse validates a Prometheus text exposition and returns its families
// keyed by name. It checks the subset of the format this package emits:
//
//   - every sample line parses as name[{labels}] value
//   - every sample belongs to a family declared by a preceding # TYPE
//     line (histogram samples may use the _bucket/_sum/_count suffixes)
//   - a family's TYPE is declared at most once
//   - values parse as floats (counters and histogram counts additionally
//     must not be negative)
//   - histogram _bucket series are cumulative (non-decreasing in le
//     order as emitted)
//
// It is the validator behind the golden tests and the public scrape tests
// (TestShardedMetricsSnapshotAndScrape).
func Parse(text string) (map[string]Family, error) {
	fams := make(map[string]Family)
	// Track cumulative-bucket monotonicity per histogram series (family
	// plus non-le labels).
	lastBucket := make(map[string]float64)

	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimPrefix(line, "#")
			rest = strings.TrimPrefix(rest, " ")
			switch {
			case strings.HasPrefix(rest, "TYPE "):
				parts := strings.SplitN(rest[len("TYPE "):], " ", 2)
				if len(parts) != 2 {
					return nil, fmt.Errorf("line %d: malformed TYPE line", lineNo)
				}
				name, typ := parts[0], strings.TrimSpace(parts[1])
				if !validName(name) {
					return nil, fmt.Errorf("line %d: invalid family name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown type %q", lineNo, typ)
				}
				if _, dup := fams[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				fams[name] = Family{Name: name, Type: typ}
			case strings.HasPrefix(rest, "HELP "):
				// HELP text is free-form; nothing to validate beyond the
				// name token existing.
				if strings.TrimSpace(rest[len("HELP "):]) == "" {
					return nil, fmt.Errorf("line %d: malformed HELP line", lineNo)
				}
			default:
				// Plain comment; ignore.
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam, suffix, ok := owningFamily(fams, name)
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q has no preceding TYPE", lineNo, name)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q", lineNo, value)
		}
		if (fam.Type == "counter" || suffix == "_bucket" || suffix == "_count") && v < 0 {
			return nil, fmt.Errorf("line %d: negative %s value %q", lineNo, fam.Type, value)
		}
		if suffix == "_bucket" {
			key := fam.Name + "|" + stripLabel(labels, "le")
			if prev, seen := lastBucket[key]; seen && v < prev {
				return nil, fmt.Errorf("line %d: histogram %q buckets not cumulative", lineNo, fam.Name)
			}
			lastBucket[key] = v
		}
		fam.Samples++
		fams[fam.Name] = fam
	}
	return fams, nil
}

// owningFamily resolves a sample name to its declared family, allowing
// the histogram/summary suffixes.
func owningFamily(fams map[string]Family, name string) (Family, string, bool) {
	if f, ok := fams[name]; ok {
		return f, "", true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, found := strings.CutSuffix(name, suffix)
		if !found {
			continue
		}
		if f, ok := fams[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
			return f, suffix, true
		}
	}
	return Family{}, "", false
}

// parseSample splits `name{labels} value` (labels optional). The
// trailing optional timestamp is not emitted by this package and is
// rejected.
func parseSample(line string) (name, labels, value string, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", "", "", fmt.Errorf("unterminated label set")
		}
		labels = rest[i+1 : j]
		rest = strings.TrimPrefix(rest[j+1:], " ")
		if err := checkLabels(labels); err != nil {
			return "", "", "", err
		}
	} else {
		k := strings.IndexByte(rest, ' ')
		if k < 0 {
			return "", "", "", fmt.Errorf("sample line %q has no value", line)
		}
		name = rest[:k]
		rest = rest[k+1:]
	}
	rest = strings.TrimSpace(rest)
	if !validName(name) {
		return "", "", "", fmt.Errorf("invalid sample name %q", name)
	}
	if rest == "" || strings.ContainsAny(rest, " \t") {
		return "", "", "", fmt.Errorf("sample %q: want exactly one value, got %q", name, rest)
	}
	return name, labels, rest, nil
}

func checkLabels(labels string) error {
	if labels == "" {
		return nil
	}
	for _, pair := range splitLabels(labels) {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || !validName(k) {
			return fmt.Errorf("malformed label pair %q", pair)
		}
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("label %s value %q not quoted", k, v)
		}
	}
	return nil
}

// splitLabels splits k1="v1",k2="v2" on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip escaped char
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// stripLabel returns labels with the named pair removed — used to key
// histogram bucket series independently of their le label.
func stripLabel(labels, name string) string {
	var kept []string
	for _, pair := range splitLabels(labels) {
		if k, _, ok := strings.Cut(pair, "="); ok && k == name {
			continue
		}
		kept = append(kept, pair)
	}
	return strings.Join(kept, ",")
}
