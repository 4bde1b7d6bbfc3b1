// Command metriclint checks a Prometheus text exposition against the
// repo's metric naming conventions: the extractd_ prefix, lowercase
// snake_case names, HELP on every family, _total on counters, unit
// suffixes on gauges and histograms, and a closed label-key allowlist
// (the cardinality budget). With no arguments it lints the declarations
// in extractd's metric families table — a new metric with a bad name or
// an unbounded label fails CI before it reaches a dashboard.
//
// Usage:
//
//	metriclint            # lint extractd's metric families table
//	metriclint -f dump.txt  # lint a scraped exposition file
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	file := flag.String("f", "",
		"lint a scraped exposition file instead of the metric families table")
	flag.Parse()
	problems, fams, err := lint(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metriclint:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "metriclint:", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Printf("metriclint: %d families clean\n", len(fams))
}

// lint runs the naming linter over a scraped exposition file or, with
// no file, over the daemon's families table.
func lint(file string) ([]string, []*obs.PromFamily, error) {
	var fams []*obs.PromFamily
	if file == "" {
		fams = catalogue()
	} else {
		f, err := os.Open(file)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		if fams, err = obs.ParseProm(f); err != nil {
			return nil, nil, err
		}
	}
	return obs.Lint(fams, obs.LintOptions{}), fams, nil
}

// catalogue builds one family per table row from its declared name,
// type, HELP and label keys, with a single sample carrying every
// declared key — the linter checks declarations, not rendered values.
func catalogue() []*obs.PromFamily {
	var fams []*obs.PromFamily
	for _, row := range service.MetricFamilies() {
		labels := make([]obs.Label, len(row.Labels))
		for i, k := range row.Labels {
			labels[i] = obs.Label{Key: k}
		}
		fams = append(fams, &obs.PromFamily{
			Name: row.Name, Type: row.Type, Help: row.Help,
			Samples: []obs.PromSample{{Name: row.Name, Labels: labels}},
		})
	}
	return fams
}
