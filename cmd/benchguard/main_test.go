package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line, bench string
		want        float64
		ok          bool
	}{
		{"BenchmarkExtractPage \t 1340\t 1646351 ns/op\t 266316 B/op\t 6492 allocs/op\n", "BenchmarkExtractPage", 1646351, true},
		{"BenchmarkExtractPage-8 \t 42883\t 56477 ns/op\n", "BenchmarkExtractPage", 56477, true},
		{"BenchmarkExtractPageCache \t 10\t 99 ns/op\n", "BenchmarkExtractPage", 0, false},
		{"goos: linux\n", "BenchmarkExtractPage", 0, false},
		{"BenchmarkExtractPage \t 5\t no-number ns/op\n", "BenchmarkExtractPage", 0, false},
	}
	for _, c := range cases {
		got, ok := parseBenchLine(c.line, c.bench, "ns/op")
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("parseBenchLine(%q) = %v,%v want %v,%v", c.line, got, ok, c.want, c.ok)
		}
	}
}

func TestMinNsPerOpPicksMinimumAcrossRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	// The second record is split across two output events, the way
	// test2json flushes the benchmark name before the timing.
	stream := `{"Action":"output","Package":"repro","Test":"BenchmarkExtractPage","Output":"BenchmarkExtractPage \t 10\t 900 ns/op\n"}
not-json-noise-between-streams
{"Action":"output","Package":"repro","Test":"BenchmarkExtractPage","Output":"BenchmarkExtractPage-8            \t"}
{"Action":"output","Package":"repro","Test":"BenchmarkExtractPage","Output":"       10\t     700 ns/op\t   17800 B/op\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkOther","Output":"BenchmarkOther \t 10\t 5 ns/op\n"}
{"Action":"run","Test":"TestX"}
`
	if err := os.WriteFile(path, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := minNsPerOp(path, "BenchmarkExtractPage")
	if err != nil {
		t.Fatal(err)
	}
	if got != 700 {
		t.Fatalf("min = %v, want 700", got)
	}
	if _, err := minNsPerOp(path, "BenchmarkMissing"); err == nil {
		t.Fatal("missing benchmark should error")
	}
}

func TestMinMetricAllocsSkipsRecordsWithout(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	stream := `{"Action":"output","Package":"repro","Test":"BenchmarkIngestHandler","Output":"BenchmarkIngestHandler \t 100\t 900 ns/op\t 3900 B/op\t 56 allocs/op\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkIngestHandler","Output":"BenchmarkIngestHandler \t 100\t 800 ns/op\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkIngestHandler","Output":"BenchmarkIngestHandler-4 \t 100\t 950 ns/op\t 3800 B/op\t 54 allocs/op\n"}
{"Action":"output","Package":"repro","Test":"BenchmarkHTMLParse","Output":"BenchmarkHTMLParse \t 100\t 20000 ns/op\n"}
`
	if err := os.WriteFile(path, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := minMetric(path, "BenchmarkIngestHandler", "allocs/op")
	if err != nil || !ok || got != 54 {
		t.Fatalf("allocs min = %v,%v,%v want 54,true,nil", got, ok, err)
	}
	if _, ok, err := minMetric(path, "BenchmarkHTMLParse", "allocs/op"); err != nil || ok {
		t.Fatalf("a benchmark without allocs/op reported ok=%v err=%v, want neither", ok, err)
	}
	if got, err := minNsPerOp(path, "BenchmarkIngestHandler"); err != nil || got != 800 {
		t.Fatalf("ns min = %v,%v want 800", got, err)
	}
}
