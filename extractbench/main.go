// Command extractbench measures the real extractd daemon end to end and
// layer by layer. One invocation builds the workload's inputs from a
// seed, boots cmd/extractd as a child process (several times, to time
// set-up), loads repositories it induced itself through POST /repos, and
// drives one workload over loopback HTTP from this single process with
// at most two connections for the data plane. Every output is checked
// byte for byte against an in-process reference extraction.
//
//	extractbench -extractd BIN -out DIR --workload NAME --seed N --seconds S --trace 0|1
//
// run.sh builds both binaries and supplies -extractd and -out. The last
// line of standard output is one JSON object: correct, attempted,
// failed and metrics — the end-to-end metrics with --trace 0, the
// per-layer metrics of the traced run with --trace 1. The lines before
// it are a readable report naming every metric with its unit. The exit
// code is non-zero when any output or workload-shape check failed.
//
// The workloads, why each exists, and which per-layer metric should move
// which end-to-end metric on which workload are in PREDICTIONS.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name string
	// clusters get a repository each; unroutedClusters are generated
	// pages no repository claims.
	clusters         []string
	unroutedClusters []string
	daemonArgs       []string
	durable          bool // runs the daemon with -data-dir
	run              func(context.Context, *runConfig, *inputs, *daemon, map[string]int) (*measurement, error)
}

var workloads = []*workload{
	{
		name:     "ingest_routed",
		clusters: []string{"movies", "books"},
		run:      runIngest,
	},
	{
		name:             "ingest_durable_mixed",
		clusters:         []string{"movies", "books"},
		unroutedClusters: []string{"forum"},
		daemonArgs:       []string{"-induct"},
		durable:          true,
		run:              runIngest,
	},
	{
		name:     "extract_open",
		clusters: []string{"movies", "books", "stocks"},
		run:      runExtractOpen,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runConfig is one invocation's settings.
type runConfig struct {
	w        *workload
	seed     int64
	dur      time.Duration
	trace    bool
	extractd string
	out      string
}

// measurement is what one untraced run of a workload observed.
type measurement struct {
	attempted, failed int
	problems          []string // output mismatches and shape violations
	setups            []time.Duration
	// rate is the median one-second throughput of correct pages (result
	// lines or responses) in the throughput phase; units are all pages
	// or requests served, the CPU base.
	rate  float64
	units int
	// routed and unrouted count the pages sent that should route, and
	// those no repository claims.
	routed, unrouted int
	cpu              time.Duration
	hwmKB            int64
	prom             promSeries // /metrics deltas over the run
	extra            []namedValue
	report           []string
}

func (m *measurement) problem(format string, args ...any) {
	if len(m.problems) < 20 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// namedValue is one reported metric.
type namedValue struct {
	name  string
	value float64
	unit  string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("extractbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ingest_routed, ingest_durable_mixed or extract_open")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	bin := fs.String("extractd", "", "extractd binary")
	out := fs.String("out", "", "directory for run artefacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || *bin == "" || *out == "" || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "extractbench: need -extractd, -out, a known --workload, --seconds ≥ 1 and --trace 0|1")
		return 2
	}
	cfg := &runConfig{
		w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, extractd: *bin, out: *out,
	}
	// A hung daemon must not hang the benchmark: every request carries
	// this deadline, comfortably past the run's own length.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.dur+100*time.Second)
	defer cancel()
	res, err := execute(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "extractbench:", err)
		return 1
	}
	for _, line := range res.report {
		fmt.Fprintln(stdout, line)
	}
	enc, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintln(stderr, "extractbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !res.summary.Correct {
		return 1
	}
	return 0
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type result struct {
	report  []string
	summary summaryJSON
}

// execute runs the workload untraced and, with --trace 1, the traced
// run after it, and assembles the report.
func execute(ctx context.Context, cfg *runConfig) (*result, error) {
	in, err := buildInputs(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	m, err := measure(ctx, cfg, in)
	if err != nil {
		return nil, err
	}
	if m.attempted == 0 {
		return nil, errors.New("no operation attempted")
	}
	res := &result{summary: summaryJSON{
		Correct:   len(m.problems) == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metricJSON{},
	}}
	res.report = append(res.report, fmt.Sprintf("workload %s seed %d: %d attempted, %d failed",
		cfg.w.name, cfg.seed, m.attempted, m.failed))
	q := quartiles(millis(m.setups))
	res.report = append(res.report, fmt.Sprintf("set-up: %d boots, quartiles %.3f / %.3f / %.3f ms",
		len(m.setups), q[0], q[1], q[2]))
	res.report = append(res.report, m.report...)
	for _, p := range m.problems {
		res.report = append(res.report, "PROBLEM: "+p)
	}
	e2e := endToEnd(m)
	res.report = append(res.report, "end-to-end:")
	for _, v := range e2e {
		res.report = append(res.report, fmt.Sprintf("  %-26s %14.4f %s", v.name, v.value, v.unit))
	}
	res.report = append(res.report, "/metrics deltas over the run:")
	for _, k := range m.prom.keys("extractd_") {
		if reportedFamily(k) {
			res.report = append(res.report, fmt.Sprintf("  %-70s %.6g", k, m.prom[k]))
		}
	}

	var metrics []namedValue
	if cfg.trace {
		layers, lines, err := traced(ctx, cfg, in, m)
		if err != nil {
			return nil, err
		}
		res.report = append(res.report, lines...)
		metrics = layers
	} else {
		metrics = gated(e2e)
	}
	for _, v := range metrics {
		res.summary.Metrics[v.name] = metricJSON{Value: v.value, Unit: v.unit}
	}
	return res, nil
}

// measure boots the daemon and runs the workload once, untraced,
// bracketed by /metrics scrapes and /proc readings.
func measure(ctx context.Context, cfg *runConfig, in *inputs) (m *measurement, err error) {
	d, setups, gens, err := bootMeasured(ctx, cfg, in)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := d.shutdown(); serr != nil && err == nil {
			err = fmt.Errorf("stopping extractd: %w", serr)
		}
	}()
	before, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	p0, err := readProc(d.pid())
	if err != nil {
		return nil, err
	}
	m, err = cfg.w.run(ctx, cfg, in, d, gens)
	if err != nil {
		return nil, fmt.Errorf("%w\nextractd log tail:\n%s", err, d.tail())
	}
	p1, err := readProc(d.pid())
	if err != nil {
		return nil, err
	}
	after, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	m.setups = setups
	m.cpu = p1.cpu - p0.cpu
	m.hwmKB = p1.hwmKB
	m.prom = before.delta(after)
	checkShape(cfg.w, m)
	return m, nil
}

// endToEnd lists every end-to-end metric the run measured, including the
// workload-specific ones only the report carries.
func endToEnd(m *measurement) []namedValue {
	out := []namedValue{
		{"setup_s", median(millis(m.setups)) / 1000, "s"},
		{"pages_per_s", m.rate, "1/s"},
		{"daemon_cpu_ms_per_kpage", float64(m.cpu) / float64(time.Millisecond) / float64(m.units) * 1000, "ms"},
		{"rss_peak_mb", float64(m.hwmKB) / 1024, "MB"},
		{"failed_ratio", float64(m.failed) / float64(m.attempted), "ratio"},
	}
	return append(out, m.extra...)
}

// gatedNames are the end-to-end metrics BENCHMARK.json bounds: the ones
// every workload measures.
var gatedNames = []string{"setup_s", "pages_per_s", "daemon_cpu_ms_per_kpage", "rss_peak_mb"}

func gated(all []namedValue) []namedValue {
	var out []namedValue
	for _, v := range all {
		for _, n := range gatedNames {
			if v.name == n {
				out = append(out, v)
			}
		}
	}
	return out
}

// reportedFamilies are the /metrics families whose deltas the report
// lists and the shape checks read.
var reportedFamilies = []string{
	"extractd_router_decisions_total",
	"extractd_stream_extract_total",
	"extractd_stream_fallback_total",
	"extractd_shed_total",
	"extractd_store_wal_records_total",
	"extractd_store_wal_bytes",
	"extractd_store_fsyncs_total",
	"extractd_pipeline_stage_duration_seconds_sum",
	"extractd_induction_jobs",
}

func reportedFamily(key string) bool {
	for _, f := range reportedFamilies {
		if key == f || (len(key) > len(f) && key[:len(f)] == f && key[len(f)] == '{') {
			return true
		}
	}
	return false
}

// checkShape asserts the workload's shape from the /metrics deltas: every
// page the benchmark meant to route routed and ran the streaming
// automaton, every page no repository claims came back unrouted, nothing
// was shed, no induction job ran, and only the durable workload wrote
// the WAL.
func checkShape(w *workload, m *measurement) {
	p := m.prom
	want := func(key string, v float64) {
		if got := p[key]; got != v {
			m.problem("/metrics %s moved by %v, want %v", key, got, v)
		}
	}
	want(`extractd_router_decisions_total{outcome="hit"}`, float64(m.routed))
	want(`extractd_router_decisions_total{outcome="unrouted"}`, float64(m.unrouted))
	want(`extractd_router_decisions_total{outcome="miss"}`, 0)
	want(`extractd_stream_extract_total{outcome="hit"}`, float64(m.routed))
	want(`extractd_stream_extract_total{outcome="fallback"}`, 0)
	want("extractd_shed_total", 0)
	if s := p.sum("extractd_stream_fallback_total"); s != 0 {
		m.problem("/metrics extractd_stream_fallback_total moved by %v, want 0", s)
	}
	// No truth source is configured, so captured pages must never become
	// an induction job (the gauge starts at zero, so its delta is its value).
	if jobs := p.sum("extractd_induction_jobs"); jobs != 0 {
		m.problem("%v induction jobs appeared", jobs)
	}
	records := p["extractd_store_wal_records_total"]
	if w.durable {
		if records < float64(m.unrouted) {
			m.problem("WAL took %v records for %d unrouted pages", records, m.unrouted)
		}
	} else if records != 0 {
		m.problem("memory-only daemon appended %v WAL records", records)
	}
}
