package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// A minimal Prometheus text-format parser and naming linter. The parser
// handles exactly the subset the PromWriter emits (which is the subset
// a scrape needs): # HELP, # TYPE, and sample lines with optional
// labels. The linter enforces the repo's metric naming conventions so
// CI catches a drive-by metric with the wrong prefix, a counter without
// _total, or a high-cardinality label before an operator's dashboard
// does.

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the value of a label key ("" when absent).
func (s PromSample) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// PromFamily is one parsed metric family: the TYPE/HELP header and the
// samples that belong to it (histogram _bucket/_sum/_count samples
// attach to their base family).
type PromFamily struct {
	Name    string
	Type    string
	Help    string
	Samples []PromSample
}

// ParseProm parses a text-format exposition into families, in exposition
// order. Sample lines without a preceding TYPE header are an error, as
// are samples that belong to no declared family — the writer always
// declares first.
func ParseProm(r io.Reader) ([]*PromFamily, error) {
	var out []*PromFamily
	fams := map[string]*PromFamily{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue // free-form comment
			}
			switch fields[1] {
			case "HELP":
				f := ensureFamily(fams, &out, fields[2])
				if len(fields) == 4 {
					f.Help = fields[3]
				}
			case "TYPE":
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE", lineNo)
				}
				f := ensureFamily(fams, &out, fields[2])
				f.Type = fields[3]
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		f := fams[baseName(s.Name)]
		if f == nil {
			return nil, fmt.Errorf("line %d: sample %q belongs to no declared family", lineNo, s.Name)
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func ensureFamily(fams map[string]*PromFamily, out *[]*PromFamily, name string) *PromFamily {
	if f, ok := fams[name]; ok {
		return f
	}
	f := &PromFamily{Name: name}
	fams[name] = f
	*out = append(*out, f)
	return f
}

// baseName strips the histogram sample suffixes so _bucket/_sum/_count
// lines attach to their family.
func baseName(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

func parseSample(line string) (PromSample, error) {
	var s PromSample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated labels in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string) ([]Label, error) {
	var out []Label
	for len(body) > 0 {
		eq := strings.Index(body, "=")
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label in %q", body)
		}
		key := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", body)
		}
		out = append(out, Label{Key: key, Value: val.String()})
		body = strings.TrimPrefix(rest[i+1:], ",")
	}
	return out, nil
}

// LintOptions tunes the naming linter. Zero value: extractd defaults.
type LintOptions struct {
	// Prefix every metric name must carry (default "extractd_").
	Prefix string
	// AllowedLabels is the closed set of label keys — the cardinality
	// budget. Nil: DefaultAllowedLabels.
	AllowedLabels []string
	// GaugeSuffixes are the accepted trailing units/nouns for gauge
	// names. Nil: DefaultGaugeSuffixes.
	GaugeSuffixes []string
}

// DefaultAllowedLabels is the label-key allowlist: every key here is
// bounded by construction (endpoints, failure kinds, stages, states —
// never URIs, trace IDs or page content).
var DefaultAllowedLabels = []string{
	"endpoint", "kind", "event", "outcome", "stage", "state",
	"repo", "version", "le", "goversion", "revision",
	// reason: streaming-extraction fallback reasons. Bounded by the
	// fixed set of compile refusals plus the three runtime reasons.
	"reason",
	// host: per-host fetch outcomes and breaker states. Bounded by the
	// set of origins the operator points extractd at, not by traffic.
	"host",
}

// DefaultGaugeSuffixes are the unit/noun suffixes gauges may end in.
var DefaultGaugeSuffixes = []string{
	"_seconds", "_bytes", "_ratio", "_pages", "_workers", "_depth",
	"_capacity", "_in_flight", "_info", "_jobs", "_repos", "_version",
	"_state",
}

func (o LintOptions) withDefaults() LintOptions {
	if o.Prefix == "" {
		o.Prefix = "extractd_"
	}
	if o.AllowedLabels == nil {
		o.AllowedLabels = DefaultAllowedLabels
	}
	if o.GaugeSuffixes == nil {
		o.GaugeSuffixes = DefaultGaugeSuffixes
	}
	return o
}

// Lint checks parsed families against the naming conventions and
// returns one problem string per violation (empty: clean).
//
// Rules: names are prefix + lowercase snake_case; counters end _total;
// gauges end in a known unit/noun suffix; histograms end in a unit
// suffix (_seconds or _bytes); every label key is in the allowlist; le
// appears only on histogram _bucket samples.
func Lint(fams []*PromFamily, opts LintOptions) []string {
	opts = opts.withDefaults()
	allowed := map[string]bool{}
	for _, l := range opts.AllowedLabels {
		allowed[l] = true
	}
	var problems []string
	addf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	for _, f := range fams {
		if !strings.HasPrefix(f.Name, opts.Prefix) {
			addf("%s: missing %q prefix", f.Name, opts.Prefix)
		}
		if !validMetricName(f.Name) {
			addf("%s: not lowercase snake_case", f.Name)
		}
		if f.Help == "" {
			addf("%s: missing HELP", f.Name)
		}
		switch f.Type {
		case "counter":
			if !strings.HasSuffix(f.Name, "_total") {
				addf("%s: counter must end in _total", f.Name)
			}
		case "gauge":
			if !hasAnySuffix(f.Name, opts.GaugeSuffixes) {
				addf("%s: gauge must end in a unit suffix (one of %s)",
					f.Name, strings.Join(opts.GaugeSuffixes, " "))
			}
		case "histogram":
			if !hasAnySuffix(f.Name, []string{"_seconds", "_bytes"}) {
				addf("%s: histogram must end in _seconds or _bytes", f.Name)
			}
		case "":
			addf("%s: missing TYPE", f.Name)
		default:
			addf("%s: unknown type %q", f.Name, f.Type)
		}
		seen := map[string]bool{}
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				if seen[l.Key] {
					continue
				}
				seen[l.Key] = true
				if !allowed[l.Key] {
					addf("%s: label %q not in the cardinality allowlist", f.Name, l.Key)
				}
				if l.Key == "le" && !strings.HasSuffix(s.Name, "_bucket") {
					addf("%s: le label outside a histogram _bucket sample", f.Name)
				}
			}
		}
	}
	sort.Strings(problems)
	return problems
}

func validMetricName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(name) > 0
}

func hasAnySuffix(name string, suffixes []string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}
