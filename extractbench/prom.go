package main

import (
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// promSeries is one /metrics scrape (Prometheus text view), flattened to
// series key → value; a key is the sample name plus its labels in
// exposition order, e.g. `extractd_router_decisions_total{outcome="hit"}`.
type promSeries map[string]float64

func parseProm(r io.Reader) (promSeries, error) {
	fams, err := obs.ParseProm(r)
	if err != nil {
		return nil, err
	}
	out := promSeries{}
	for _, f := range fams {
		for _, s := range f.Samples {
			out[seriesKey(s)] = s.Value
		}
	}
	return out, nil
}

func seriesKey(s obs.PromSample) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, l := range s.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// delta returns after − before for every series of after; a series
// absent before counts from zero.
func (before promSeries) delta(after promSeries) promSeries {
	out := promSeries{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of the named sample, whatever its labels.
func (p promSeries) sum(name string) float64 {
	var total float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// keys lists the series whose sample name starts with prefix, sorted.
func (p promSeries) keys(prefix string) []string {
	var out []string
	for k := range p {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
