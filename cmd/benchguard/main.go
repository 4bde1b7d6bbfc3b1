// Command benchguard compares one benchmark's ns/op — and its allocs/op,
// when both streams report them — between two `go test -json` streams
// and fails when the current run regresses past a threshold: the CI
// tripwire that keeps the extraction hot path from quietly slowing down
// or allocating more across PRs.
//
// Usage:
//
//	benchguard -baseline BENCH_pr3.json -current /tmp/bench.json \
//	    -bench BenchmarkExtractPage -max-regress 0.30
//
// Both inputs are test2json streams (concatenations of several runs are
// fine — every line is independent). When a benchmark appears several
// times (-count > 1), the minimum ns/op is used on both sides, which
// damps scheduler noise. A missing benchmark in either stream is an
// error: a silently skipped guard is worse than a failing one.
//
// The committed baseline and the fresh run usually come from different
// machines (a dev box vs. a CI runner), so -ref names a second, stable
// benchmark present in both streams that is used as a speed yardstick:
// the guard then compares the *ratio* bench/ref across the two runs,
// cancelling raw hardware delta to first order. An empty -ref compares
// absolute ns/op.
//
// Allocation counts do not depend on machine speed, so allocs/op is
// compared raw and without slack: any increase over the baseline fails.
// They do depend on GOMAXPROCS for benchmarks that run goroutines, so
// record the baseline and the current run with the same -cpu.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Test    string `json:"Test"`
	Output  string `json:"Output"`
}

// minNsPerOp extracts the minimum ns/op recorded for bench in a test2json
// stream; a stream without the benchmark is an error.
func minNsPerOp(path, bench string) (float64, error) {
	ns, ok, err := minMetric(path, bench, "ns/op")
	if err == nil && !ok {
		err = fmt.Errorf("benchmark %q not found in %s", bench, path)
	}
	return ns, err
}

// minMetric extracts the minimum value bench reported in unit ("ns/op",
// "allocs/op") across the records of a test2json stream; ok is false
// when no record reports it. Benchmark result lines surface as output
// events shaped like
// "BenchmarkExtractPage  1340  1646351 ns/op  266316 B/op  6492 allocs/op",
// but test2json may split one line across several events (the name
// flushes before the timing is appended), so output is reassembled per
// package/test before scanning for result lines.
func minMetric(path, bench, unit string) (best float64, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	streams := map[string]*strings.Builder{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			continue // tolerate non-JSON noise between concatenated streams
		}
		if ev.Action != "output" {
			continue
		}
		key := ev.Package + "/" + ev.Test
		b, ok := streams[key]
		if !ok {
			b = &strings.Builder{}
			streams[key] = b
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return 0, false, err
	}
	for _, b := range streams {
		for _, line := range strings.Split(b.String(), "\n") {
			v, found := parseBenchLine(line, bench, unit)
			if found && (!ok || v < best) {
				best, ok = v, true
			}
		}
	}
	return best, ok, nil
}

// parseBenchLine pulls the value reported in unit ("ns/op",
// "allocs/op") out of one benchmark output line when it reports the
// wanted benchmark (GOMAXPROCS suffixes like -8 match too).
func parseBenchLine(line, bench, unit string) (float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return 0, false
	}
	name := fields[0]
	if name != bench && !strings.HasPrefix(name, bench+"-") {
		return 0, false
	}
	for i := 2; i < len(fields); i++ {
		if fields[i] != unit {
			continue
		}
		v, err := strconv.ParseFloat(fields[i-1], 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

func main() {
	baseline := flag.String("baseline", "", "committed test2json stream (the trusted numbers)")
	current := flag.String("current", "", "fresh test2json stream to check")
	bench := flag.String("bench", "BenchmarkExtractPage", "benchmark name to compare")
	ref := flag.String("ref", "", "reference benchmark used to normalize machine speed (empty: compare absolute ns/op)")
	maxRegress := flag.Float64("max-regress", 0.30, "allowed fractional ns/op regression")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline and -current are required")
		os.Exit(2)
	}
	mustMin := func(path, name string) float64 {
		ns, err := minNsPerOp(path, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		return ns
	}
	base := mustMin(*baseline, *bench)
	cur := mustMin(*current, *bench)
	fmt.Printf("%s: baseline %.0f ns/op, current %.0f ns/op\n", *bench, base, cur)
	baseScore, curScore := base, cur
	if *ref != "" {
		baseRef := mustMin(*baseline, *ref)
		curRef := mustMin(*current, *ref)
		fmt.Printf("%s (speed yardstick): baseline %.0f ns/op, current %.0f ns/op\n",
			*ref, baseRef, curRef)
		baseScore, curScore = base/baseRef, cur/curRef
	}
	change := (curScore - baseScore) / baseScore
	fmt.Printf("normalized change: %+.1f%%\n", change*100)
	failed := false
	if change > *maxRegress {
		fmt.Fprintf(os.Stderr,
			"benchguard: %s regressed %.1f%% > allowed %.1f%% — commit with [bench-skip] if intentional\n",
			*bench, change*100, *maxRegress*100)
		failed = true
	}
	allocsOf := func(path string) (float64, bool) {
		n, ok, err := minMetric(path, *bench, "allocs/op")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		return n, ok
	}
	baseAllocs, baseOK := allocsOf(*baseline)
	curAllocs, curOK := allocsOf(*current)
	if baseOK && curOK {
		fmt.Printf("%s: baseline %.0f allocs/op, current %.0f allocs/op\n", *bench, baseAllocs, curAllocs)
		if curAllocs > baseAllocs {
			fmt.Fprintf(os.Stderr,
				"benchguard: %s allocates %.0f/op > baseline %.0f/op — commit with [bench-skip] if intentional\n",
				*bench, curAllocs, baseAllocs)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchguard: within threshold")
}
