package service

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/store"
)

// Prometheus exposition of the metrics Snapshot. Every /metrics family
// is declared exactly once, as a row of the families table below:
// WriteProm renders the rows in order, cmd/metriclint lints their
// declarations, and promexpo_test.go checks that every Snapshot field is
// claimed by a row and that the rendered families match the rows.

// MetricFamily is one row of the /metrics catalogue: the declaration
// (name, type, HELP, label keys) and how the row renders from a
// Snapshot.
type MetricFamily struct {
	Name, Type, Help string
	// Labels are the declared label keys. A row's series pass label
	// values only, in this order, so a rendered key cannot differ from
	// a declared one.
	Labels []string
	// fields are the Snapshot fields the row renders.
	fields []string
	// series emits the row's samples. The family header renders even
	// when there are none, so the family set is stable across
	// configurations (monitoring off, memory-only, no traffic yet).
	series func(s *Snapshot, e emitter)
}

// MetricFamilies returns the catalogue rows in exposition order.
func MetricFamilies() []MetricFamily { return slices.Clone(families) }

const (
	counter   = "counter"
	gauge     = "gauge"
	histogram = "histogram"
)

// row declares one family. fields and labels are space-separated lists
// of Snapshot field names and label keys.
func row(name, typ, fields, labels, help string, series func(*Snapshot, emitter)) MetricFamily {
	return MetricFamily{Name: name, Type: typ, Help: help, Labels: strings.Fields(labels),
		fields: strings.Fields(fields), series: series}
}

var families = []MetricFamily{
	row("extractd_build_info", gauge, "Build", "goversion revision",
		"Build identity of the running extractd binary (value is always 1).",
		func(s *Snapshot, e emitter) { e.value(1, s.Build.GoVersion, s.Build.Revision) }),
	row("extractd_uptime_seconds", gauge, "UptimeSeconds", "",
		"Seconds since the daemon started.",
		scalar(func(s *Snapshot) float64 { return s.UptimeSeconds })),

	row("extractd_requests_total", counter, "Requests", "endpoint",
		"HTTP requests served, by endpoint.",
		byKey(func(s *Snapshot) map[string]int64 { return s.Requests })),
	row("extractd_request_errors_total", counter, "Errors", "endpoint",
		"HTTP requests that returned a non-2xx status, by endpoint.",
		byKey(func(s *Snapshot) map[string]int64 { return s.Errors })),

	row("extractd_pages_extracted_total", counter, "PagesExtracted", "",
		"Pages that completed extraction.",
		scalar(func(s *Snapshot) float64 { return float64(s.PagesExtracted) })),
	row("extractd_extraction_failures_total", counter, "ExtractionFailures", "kind",
		"Detected extraction failures, by failure kind.",
		byKey(func(s *Snapshot) map[string]int64 { return s.ExtractionFailures })),
	row("extractd_lifecycle_events_total", counter, "Lifecycle", "event",
		"Wrapper lifecycle events (drift alarms, repairs, promotions, rollbacks).",
		byKey(func(s *Snapshot) map[string]int64 { return s.Lifecycle })),

	row("extractd_page_cache_hits_total", counter, "PageCacheHits", "",
		"Parsed-page cache hits.",
		scalar(func(s *Snapshot) float64 { return float64(s.PageCacheHits) })),
	row("extractd_page_cache_misses_total", counter, "PageCacheMisses", "",
		"Parsed-page cache misses.",
		scalar(func(s *Snapshot) float64 { return float64(s.PageCacheMisses) })),

	row("extractd_router_decisions_total", counter, "RouterHits RouterMisses RouterUnrouted", "outcome",
		"Page auto-routing outcomes, by outcome.",
		func(s *Snapshot, e emitter) {
			e.value(float64(s.RouterHits), "hit")
			e.value(float64(s.RouterMisses), "miss")
			e.value(float64(s.RouterUnrouted), "unrouted")
		}),
	row("extractd_stream_extract_total", counter, "StreamHits StreamFallbacks", "outcome",
		"Extractions by serving path: hit ran the compiled automaton over the token stream (no DOM), fallback parsed a tree.",
		func(s *Snapshot, e emitter) {
			e.value(float64(s.StreamHits), "hit")
			e.value(float64(s.StreamFallbacks), "fallback")
		}),
	row("extractd_stream_fallback_total", counter, "StreamFallbackReasons", "reason",
		"Extractions that fell back to parse+DOM, by reason (compile refusals, parsed-doc, no-source, depth).",
		byKey(func(s *Snapshot) map[string]int64 { return s.StreamFallbackReasons })),

	row("extractd_extraction_duration_seconds", histogram,
		"LatencySumSeconds LatencyCount LatencyHistogram", "",
		"Single-page extraction latency.",
		func(s *Snapshot, e emitter) {
			e.hist(obs.HistogramSnapshot{
				Count: s.LatencyCount, Sum: s.LatencySumSeconds, Buckets: s.LatencyHistogram,
			})
		}),

	row("extractd_pool_workers", gauge, "Pool", "",
		"Extraction worker pool size.",
		scalar(func(s *Snapshot) float64 { return float64(s.Pool.Workers) })),
	row("extractd_pool_queue_depth", gauge, "Pool", "",
		"Tasks waiting in the extraction queue.",
		scalar(func(s *Snapshot) float64 { return float64(s.Pool.QueueDepth) })),
	row("extractd_pool_queue_capacity", gauge, "Pool", "",
		"Extraction queue slot count.",
		scalar(func(s *Snapshot) float64 { return float64(s.Pool.QueueCapacity) })),
	row("extractd_pool_in_flight", gauge, "Pool", "",
		"Tasks currently executing on pool workers.",
		scalar(func(s *Snapshot) float64 { return float64(s.Pool.InFlight) })),
	row("extractd_pool_saturation_ratio", gauge, "Pool", "",
		"In-flight tasks over worker count (1 = every worker busy).",
		scalar(func(s *Snapshot) float64 { return s.Pool.SaturationRatio })),

	row("extractd_repo_pages_total", counter, "Repos", "repo version",
		"Pages extracted, by repository and version.",
		perRepoVersion(func(c RepoVersionCount) int64 { return c.Pages })),
	row("extractd_repo_failed_pages_total", counter, "Repos", "repo version",
		"Pages with at least one detected failure, by repository and version.",
		perRepoVersion(func(c RepoVersionCount) int64 { return c.FailedPages })),
	row("extractd_repo_failures_total", counter, "Repos", "repo version",
		"Detected extraction failures, by repository and version.",
		perRepoVersion(func(c RepoVersionCount) int64 { return c.Failures })),
	row("extractd_repo_active_version", gauge, "Repos", "repo",
		"The active (serving) version id, by repository.",
		func(s *Snapshot, e emitter) {
			for _, c := range s.Repos {
				if c.Active {
					e.value(float64(c.Version), c.Repo)
				}
			}
		}),

	row("extractd_pipeline_stage_duration_seconds", histogram, "Pipeline", "stage",
		"Per-stage latency of the ingestion pipeline spine (source, classify, extract, sink).",
		func(s *Snapshot, e emitter) {
			for _, st := range s.Pipeline {
				e.hist(st.Latency, st.Stage)
			}
		}),
	row("extractd_pipeline_stage_in_flight", gauge, "Pipeline", "stage",
		"Pipeline work currently inside each stage.",
		func(s *Snapshot, e emitter) {
			for _, st := range s.Pipeline {
				e.value(float64(st.InFlight), st.Stage)
			}
		}),
	row("extractd_pipeline_stage_errors_total", counter, "Pipeline", "stage",
		"Stage-level errors (failed classifications, refused extractions, sink failures).",
		func(s *Snapshot, e emitter) {
			for _, st := range s.Pipeline {
				e.value(float64(st.Errors), st.Stage)
			}
		}),

	row("extractd_induction_jobs", gauge, "InductionJobs", "state",
		"Induction jobs by state.",
		byKey(func(s *Snapshot) map[string]int64 { return s.InductionJobs })),
	row("extractd_unrouted_buffered_pages", gauge, "UnroutedBuffered", "",
		"Unrouted pages retained in the induction buffer.",
		scalar(func(s *Snapshot) float64 { return float64(s.UnroutedBuffered) })),
	row("extractd_unrouted_buffered_bytes", gauge, "UnroutedBufferedBytes", "",
		"Approximate bytes retained in the induction buffer.",
		scalar(func(s *Snapshot) float64 { return float64(s.UnroutedBufferedBytes) })),
	row("extractd_unrouted_evicted_total", counter, "UnroutedEvicted", "",
		"Unrouted pages evicted from the induction buffer.",
		scalar(func(s *Snapshot) float64 { return float64(s.UnroutedEvicted) })),
	row("extractd_unrouted_dropped_total", counter, "UnroutedDropped", "",
		"Unrouted pages the induction buffer refused outright (oversized, or no bucket available).",
		scalar(func(s *Snapshot) float64 { return float64(s.UnroutedDropped) })),

	row("extractd_fetch_retries_total", counter, "FetchRetries", "",
		"Outbound fetch retry attempts.",
		scalar(func(s *Snapshot) float64 { return float64(s.FetchRetries) })),
	row("extractd_fetch_total", counter, "Fetch", "host outcome",
		"Terminal outbound fetch outcomes, by host and outcome (ok, transient, permanent, breaker_open).",
		func(s *Snapshot, e emitter) {
			for _, f := range s.Fetch {
				e.value(float64(f.Count), f.Host, f.Outcome)
			}
		}),
	row("extractd_fetch_breaker_state", gauge, "Breakers", "host",
		"Per-host circuit-breaker state (0 closed, 1 half-open, 2 open).",
		func(s *Snapshot, e emitter) {
			for _, b := range s.Breakers {
				e.value(float64(b.State), b.Host)
			}
		}),
	row("extractd_shed_total", counter, "Shed", "",
		"Requests rejected by pool-admission load shedding (503 + Retry-After).",
		scalar(func(s *Snapshot) float64 { return float64(s.Shed) })),
	row("extractd_panics_recovered_total", counter, "PanicsRecovered", "stage",
		"Panics recovered without killing the daemon, by stage.",
		byKey(func(s *Snapshot) map[string]int64 { return s.PanicsRecovered })),

	row("extractd_recrawl_total", counter, "Recrawls", "outcome",
		"Scheduled recrawl firings, by outcome (clean, repaired, failed).",
		byKey(func(s *Snapshot) map[string]int64 { return s.Recrawls })),
	row("extractd_recrawl_interval_seconds", gauge, "Schedules", "repo",
		"Current drift-adaptive recrawl interval, by repository.",
		func(s *Snapshot, e emitter) {
			for _, sc := range s.Schedules {
				e.value(sc.IntervalSeconds, sc.Repo)
			}
		}),
	row("extractd_changefeed_records_total", counter, "ChangefeedRecords", "kind",
		"Change-feed events emitted, by kind (new, changed, vanished).",
		byKey(func(s *Snapshot) map[string]int64 { return s.ChangefeedRecords })),

	// The store families render zeros when the daemon runs memory-only.
	row("extractd_store_wal_bytes", gauge, "Store", "",
		"Bytes in the live write-ahead log since the last compaction.",
		storeStat(func(m store.Metrics) float64 { return float64(m.WALBytes) })),
	row("extractd_store_wal_records_total", counter, "Store", "",
		"Records appended to the write-ahead log.",
		storeStat(func(m store.Metrics) float64 { return float64(m.WALRecords) })),
	row("extractd_store_fsyncs_total", counter, "Store", "",
		"fsync calls issued by the store.",
		storeStat(func(m store.Metrics) float64 { return float64(m.Fsyncs) })),
	row("extractd_store_torn_tails_total", counter, "Store", "",
		"Torn or corrupt WAL tails truncated during recovery.",
		storeStat(func(m store.Metrics) float64 { return float64(m.TornTails) })),
	row("extractd_store_replay_records_total", counter, "Store", "",
		"WAL records replayed at boot.",
		storeStat(func(m store.Metrics) float64 { return float64(m.ReplayRecords) })),
	row("extractd_store_replay_duration_seconds", gauge, "Store", "",
		"Wall time of the boot WAL replay.",
		storeStat(func(m store.Metrics) float64 { return m.ReplayDurationSeconds })),
	row("extractd_store_snapshot_age_seconds", gauge, "Store", "",
		"Seconds since the last snapshot was written (0 before the first).",
		storeStat(func(m store.Metrics) float64 { return m.SnapshotAgeSeconds })),
	row("extractd_store_snapshots_total", counter, "Store", "",
		"Snapshots written (compactions).",
		storeStat(func(m store.Metrics) float64 { return float64(m.Snapshots) })),
}

// WriteProm renders a Snapshot in the Prometheus text format (0.0.4).
// Family order is the table's and map-keyed series are sorted, so the
// output is deterministic for a given snapshot — scrape-diffable and
// testable.
func WriteProm(w io.Writer, snap Snapshot) error {
	p := obs.NewPromWriter(w)
	for i := range families {
		f := &families[i]
		p.Family(f.Name, f.Type, f.Help)
		f.series(&snap, emitter{p, f})
	}
	return p.Err()
}

// emitter writes the samples of one family, pairing label values with
// the family's declared keys.
type emitter struct {
	p *obs.PromWriter
	f *MetricFamily
}

func (e emitter) value(v float64, labelValues ...string) {
	e.p.Sample(e.f.Name, e.labels(labelValues), v)
}

func (e emitter) hist(h obs.HistogramSnapshot, labelValues ...string) {
	e.p.HistogramSamples(e.f.Name, e.labels(labelValues), h)
}

func (e emitter) labels(values []string) []obs.Label {
	if len(values) != len(e.f.Labels) {
		panic(fmt.Sprintf("%s: %d label values for declared keys %v", e.f.Name, len(values), e.f.Labels))
	}
	out := make([]obs.Label, len(values))
	for i, v := range values {
		out[i] = obs.Label{Key: e.f.Labels[i], Value: v}
	}
	return out
}

// scalar renders one unlabeled sample.
func scalar(get func(*Snapshot) float64) func(*Snapshot, emitter) {
	return func(s *Snapshot, e emitter) { e.value(get(s)) }
}

// byKey renders one series per map key, in key order.
func byKey(get func(*Snapshot) map[string]int64) func(*Snapshot, emitter) {
	return func(s *Snapshot, e emitter) {
		m := get(s)
		for _, k := range slices.Sorted(maps.Keys(m)) {
			e.value(float64(m[k]), k)
		}
	}
}

// perRepoVersion renders one series per retained repository version.
func perRepoVersion(get func(RepoVersionCount) int64) func(*Snapshot, emitter) {
	return func(s *Snapshot, e emitter) {
		for _, c := range s.Repos {
			e.value(float64(get(c)), c.Repo, strconv.Itoa(c.Version))
		}
	}
}

// storeStat renders one durability counter, zero without a store.
func storeStat(get func(store.Metrics) float64) func(*Snapshot, emitter) {
	return func(s *Snapshot, e emitter) {
		var m store.Metrics
		if s.Store != nil {
			m = *s.Store
		}
		e.value(get(m))
	}
}
