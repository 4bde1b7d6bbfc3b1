package service

import (
	"maps"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extract"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// Metrics accumulates extractd's operational counters: requests and
// errors per endpoint, extraction failures by FailureKind, and an
// extraction-latency histogram whose count is the pages extracted. All
// methods are safe for concurrent use. Scalars and the histogram are
// atomics; each labeled family is a map behind its own mutex, so
// Extraction locks only for a page with failures.
type Metrics struct {
	start   time.Time
	latency *obs.Histogram // one observation per extracted page

	requests counterMap[string] // endpoint → count
	errors   counterMap[string] // endpoint → non-2xx count
	failures counterMap[string] // FailureKind.String() → count
	events   counterMap[string] // lifecycle event → count

	// Page-parse cache traffic; atomics so the extraction hot path never
	// takes a lock for a cache probe.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// Page-router outcomes; atomics because routing happens on pipeline
	// workers.
	routerHits     atomic.Int64
	routerMisses   atomic.Int64
	routerUnrouted atomic.Int64

	// Resilience counters: outbound fetch retries and per-host outcomes,
	// load-shed admissions, and panics recovered per stage.
	fetchRetries atomic.Int64
	shed         atomic.Int64
	fetch        counterMap[fetchKey] // (host, outcome) → count
	panics       counterMap[string]   // stage → recovered panic count

	// Streaming-extraction path outcomes: hits ran the compiled automaton
	// straight over the token stream; fallbacks parsed a DOM, broken
	// down by reason.
	streamHits      atomic.Int64
	streamFallbacks atomic.Int64
	streamReasons   counterMap[string]

	// Scheduled-recrawl outcomes (clean/repaired/failed).
	recrawls counterMap[string]

	// Pipeline carries the per-stage spine telemetry (Source/Classify/
	// Extract/Sink latency histograms, in-flight gauges, error counters)
	// shared by every pipeline run the server drives — /ingest,
	// /extract/batch — and snapshotted into /metrics.
	Pipeline *pipeline.Telemetry
}

// counterMap is a family of counters keyed by label value, created on
// first use. Each family carries its own mutex, so recording into one
// never contends with another.
type counterMap[K comparable] struct {
	mu sync.Mutex
	m  map[K]int64
}

func (c *counterMap[K]) inc(k K) {
	c.mu.Lock()
	if c.m == nil {
		c.m = map[K]int64{}
	}
	c.m[k]++
	c.mu.Unlock()
}

// snapshot copies the counters into a fresh, never-nil map.
func (c *counterMap[K]) snapshot() map[K]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[K]int64, len(c.m))
	maps.Copy(out, c.m)
	return out
}

// fetchKey indexes per-host fetch outcome counters.
type fetchKey struct{ host, outcome string }

// RouterOutcome classifies one auto-routing attempt.
type RouterOutcome int

// Router outcomes.
const (
	// RouterHit: the page was routed to a loaded repository.
	RouterHit RouterOutcome = iota
	// RouterMiss: routing was impossible — no routable signatures, or
	// the winning signature belongs to an unloaded repository.
	RouterMiss
	// RouterUnrouted: signatures exist, but none matched above the
	// threshold — the page belongs to no known cluster.
	RouterUnrouted
)

// Router records one auto-routing outcome.
func (m *Metrics) Router(o RouterOutcome) {
	switch o {
	case RouterHit:
		m.routerHits.Add(1)
	case RouterMiss:
		m.routerMisses.Add(1)
	case RouterUnrouted:
		m.routerUnrouted.Add(1)
	}
}

// NewMetrics creates zeroed metrics with the uptime clock started.
func NewMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		latency:  obs.NewHistogram(nil),
		Pipeline: pipeline.NewTelemetry(),
	}
}

// FetchRetry records one outbound fetch retry attempt.
func (m *Metrics) FetchRetry() { m.fetchRetries.Add(1) }

// Shed records one load-shed request: admission to the worker pool timed
// out and the request was rejected with 503 + Retry-After.
func (m *Metrics) Shed() { m.shed.Add(1) }

// FetchOutcome records the terminal outcome of one outbound fetch for a
// host: "ok", "transient" (retries exhausted), "permanent", or
// "breaker_open".
func (m *Metrics) FetchOutcome(host, outcome string) { m.fetch.inc(fetchKey{host, outcome}) }

// PanicRecovered records one recovered panic, attributed to the stage
// that caught it ("handler", "pool", "classify", "extract", "induct",
// "repair").
func (m *Metrics) PanicRecovered(stage string) { m.panics.inc(stage) }

// StreamExtract records which path served one extraction: the streaming
// automaton (hit) or the parse+DOM fallback, attributed to its reason —
// a streamx.Compile refusal, "parsed-doc", "no-source", or "depth".
func (m *Metrics) StreamExtract(hit bool, reason string) {
	if hit {
		m.streamHits.Add(1)
		return
	}
	m.streamFallbacks.Add(1)
	m.streamReasons.inc(reason)
}

// Recrawl records the outcome of one scheduled recrawl firing
// ("clean", "repaired" or "failed").
func (m *Metrics) Recrawl(outcome string) { m.recrawls.inc(outcome) }

// PageCache records one page-cache probe outcome.
func (m *Metrics) PageCache(hit bool) {
	if hit {
		m.cacheHits.Add(1)
	} else {
		m.cacheMisses.Add(1)
	}
}

// Lifecycle records one wrapper-lifecycle event (drift alarm tripped,
// repair attempted/promoted/failed, rollback, …).
func (m *Metrics) Lifecycle(event string) { m.events.inc(event) }

// Request records one request to an endpoint and whether it errored.
func (m *Metrics) Request(endpoint string, isError bool) {
	m.requests.inc(endpoint)
	if isError {
		m.errors.inc(endpoint)
	}
}

// Extraction records one completed page extraction: its latency and any
// detected failures.
func (m *Metrics) Extraction(d time.Duration, failures []extract.Failure) {
	m.latency.Observe(d.Seconds())
	for _, f := range failures {
		m.failures.inc(f.Kind.String())
	}
}

// PoolSnapshot is the worker pool's saturation picture: static sizing
// plus live queue depth and in-flight work.
type PoolSnapshot struct {
	Workers       int   `json:"workers"`
	QueueDepth    int   `json:"queueDepth"`
	QueueCapacity int   `json:"queueCapacity"`
	InFlight      int64 `json:"inFlight"`
	// SaturationRatio is InFlight/Workers: 1 means every worker is busy.
	SaturationRatio float64 `json:"saturationRatio"`
}

// BuildInfo identifies the running binary in /metrics.
type BuildInfo struct {
	GoVersion string `json:"goVersion"`
	Revision  string `json:"revision,omitempty"`
}

// readBuildInfo resolves the binary's build identity once at startup.
var readBuildInfo = sync.OnceValue(func() BuildInfo {
	info := BuildInfo{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info.GoVersion = bi.GoVersion
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			info.Revision = s.Value
		}
	}
	return info
})

// Snapshot is a point-in-time copy of every operational counter — the
// single source of truth behind both /metrics views: the JSON body is
// this struct marshalled, and the Prometheus text exposition is this
// struct rendered by WriteProm through the families table. A field no
// table row claims fails the table test in promexpo_test.go.
type Snapshot struct {
	UptimeSeconds      float64          `json:"uptimeSeconds"`
	Requests           map[string]int64 `json:"requests"`
	Errors             map[string]int64 `json:"errors,omitempty"`
	ExtractionFailures map[string]int64 `json:"extractionFailures,omitempty"`
	Lifecycle          map[string]int64 `json:"lifecycle,omitempty"`
	PagesExtracted     int64            `json:"pagesExtracted"`
	PageCacheHits      int64            `json:"pageCacheHits"`
	PageCacheMisses    int64            `json:"pageCacheMisses"`
	RouterHits         int64            `json:"routerHits"`
	RouterMisses       int64            `json:"routerMisses"`
	RouterUnrouted     int64            `json:"routerUnrouted"`
	// StreamHits counts extractions served by the streaming automaton
	// (no DOM built); StreamFallbacks counts extractions that went
	// through parse+DOM instead, broken down by StreamFallbackReasons.
	StreamHits            int64            `json:"streamHits"`
	StreamFallbacks       int64            `json:"streamFallbacks"`
	StreamFallbackReasons map[string]int64 `json:"streamFallbackReasons,omitempty"`
	// Induction counters, filled by the handler from the induct engine
	// when induction is enabled (the map always carries the
	// queued/running/staged/failed keys, explicit zeroes included).
	InductionJobs         map[string]int64 `json:"inductionJobs,omitempty"`
	UnroutedBuffered      int              `json:"unroutedBuffered"`
	UnroutedBufferedBytes int64            `json:"unroutedBufferedBytes,omitempty"`
	UnroutedEvicted       int64            `json:"unroutedEvicted,omitempty"`
	// UnroutedDropped counts pages the buffer refused outright (never
	// retained), distinct from evicted (retained then displaced).
	UnroutedDropped   int64                 `json:"unroutedDropped,omitempty"`
	LatencySumSeconds float64               `json:"latencySumSeconds"`
	LatencyCount      int64                 `json:"latencyCount"`
	LatencyHistogram  []obs.HistogramBucket `json:"latencyHistogram"`
	// Pool is the worker pool's live saturation state.
	Pool PoolSnapshot `json:"pool"`
	// Repos carries per-repo, per-version extraction counters from the
	// registry.
	Repos []RepoVersionCount `json:"repos,omitempty"`
	// Pipeline carries the per-stage spine telemetry.
	Pipeline pipeline.TelemetrySnapshot `json:"pipeline,omitempty"`
	// Store carries the durability layer's counters (nil when the daemon
	// runs memory-only).
	Store *store.Metrics `json:"store,omitempty"`
	// FetchRetries counts outbound fetch retry attempts.
	FetchRetries int64 `json:"fetchRetries,omitempty"`
	// Fetch carries per-host terminal fetch outcomes, sorted by host then
	// outcome.
	Fetch []FetchOutcomeCount `json:"fetch,omitempty"`
	// Breakers is the live per-host circuit-breaker state, filled from
	// the server's fetcher (0 closed, 1 half-open, 2 open).
	Breakers []BreakerStatus `json:"breakers,omitempty"`
	// Shed counts requests rejected by pool-admission load shedding.
	Shed int64 `json:"shed,omitempty"`
	// PanicsRecovered counts recovered panics by stage.
	PanicsRecovered map[string]int64 `json:"panicsRecovered,omitempty"`
	// Recrawls counts scheduled recrawl firings by outcome
	// (clean/repaired/failed).
	Recrawls map[string]int64 `json:"recrawls,omitempty"`
	// Schedules is the live recrawl cadence per registered repo (empty
	// when monitoring is disabled).
	Schedules []ScheduleMetric `json:"schedules,omitempty"`
	// ChangefeedRecords counts change-feed events emitted by this
	// process, by kind (new/changed/vanished).
	ChangefeedRecords map[string]int64 `json:"changefeedRecords,omitempty"`
	// Build identifies the running binary.
	Build BuildInfo `json:"build"`
}

// ScheduleMetric is one schedule's current recrawl interval in the
// snapshot.
type ScheduleMetric struct {
	Repo            string  `json:"repo"`
	IntervalSeconds float64 `json:"intervalSeconds"`
}

// FetchOutcomeCount is one (host, outcome) fetch counter of the snapshot.
type FetchOutcomeCount struct {
	Host    string `json:"host"`
	Outcome string `json:"outcome"`
	Count   int64  `json:"count"`
}

// BreakerStatus is one host's circuit-breaker state in the snapshot:
// 0 closed, 1 half-open, 2 open.
type BreakerStatus struct {
	Host  string `json:"host"`
	State int    `json:"state"`
}

// Snapshot returns a copy of every counter. Families are read one at a
// time; errors are read before requests, so a snapshot never shows an
// endpoint with more errors than requests.
func (m *Metrics) Snapshot() Snapshot {
	lat := m.latency.Snapshot()
	errs := m.errors.snapshot()
	s := Snapshot{
		UptimeSeconds:         time.Since(m.start).Seconds(),
		Requests:              m.requests.snapshot(),
		Errors:                errs,
		ExtractionFailures:    m.failures.snapshot(),
		Lifecycle:             m.events.snapshot(),
		PagesExtracted:        lat.Count,
		PageCacheHits:         m.cacheHits.Load(),
		PageCacheMisses:       m.cacheMisses.Load(),
		RouterHits:            m.routerHits.Load(),
		RouterMisses:          m.routerMisses.Load(),
		RouterUnrouted:        m.routerUnrouted.Load(),
		StreamHits:            m.streamHits.Load(),
		StreamFallbacks:       m.streamFallbacks.Load(),
		StreamFallbackReasons: m.streamReasons.snapshot(),
		LatencySumSeconds:     lat.Sum,
		LatencyCount:          lat.Count,
		LatencyHistogram:      lat.Buckets,
		FetchRetries:          m.fetchRetries.Load(),
		Shed:                  m.shed.Load(),
		PanicsRecovered:       m.panics.snapshot(),
		Recrawls:              m.recrawls.snapshot(),
		Pipeline:              m.Pipeline.Snapshot(),
		Build:                 readBuildInfo(),
	}
	for k, v := range m.fetch.snapshot() {
		s.Fetch = append(s.Fetch, FetchOutcomeCount{Host: k.host, Outcome: k.outcome, Count: v})
	}
	sort.Slice(s.Fetch, func(i, j int) bool {
		if s.Fetch[i].Host != s.Fetch[j].Host {
			return s.Fetch[i].Host < s.Fetch[j].Host
		}
		return s.Fetch[i].Outcome < s.Fetch[j].Outcome
	})
	return s
}

// MetricsSnapshot assembles the full observability snapshot: the
// Metrics counters plus the state owned by the server's other
// subsystems — worker pool saturation, per-repo/per-version registry
// counters, and the induction engine's job and buffer state. Both
// /metrics views (JSON and Prometheus text) render exactly this value.
func (s *Server) MetricsSnapshot() Snapshot {
	snap := s.Metrics.Snapshot()
	workers := s.Pool.Workers()
	inFlight := s.Pool.InFlight()
	snap.Pool = PoolSnapshot{
		Workers:       workers,
		QueueDepth:    s.Pool.QueueDepth(),
		QueueCapacity: s.Pool.QueueCapacity(),
		InFlight:      inFlight,
	}
	if workers > 0 {
		snap.Pool.SaturationRatio = float64(inFlight) / float64(workers)
	}
	snap.Repos = s.Registry.CountsSnapshot()
	if s.Induct != nil {
		snap.InductionJobs = s.Induct.Counts()
		snap.UnroutedBuffered = s.Induct.Buffer().Len()
		snap.UnroutedBufferedBytes = s.Induct.Buffer().Bytes()
		snap.UnroutedEvicted = s.Induct.Buffer().Evicted()
		snap.UnroutedDropped = s.Induct.Buffer().Dropped()
	}
	if s.Store != nil {
		m := s.Store.Metrics()
		snap.Store = &m
	}
	if s.Scheduler != nil {
		for _, sc := range s.Scheduler.List() {
			snap.Schedules = append(snap.Schedules, ScheduleMetric{
				Repo:            sc.Repo,
				IntervalSeconds: sc.Interval.Seconds(),
			})
		}
		totals := s.Scheduler.Feed().TotalsByKind()
		if len(totals) > 0 {
			snap.ChangefeedRecords = totals
		}
	}
	if s.Fetcher != nil {
		states := s.Fetcher.BreakerStates()
		if len(states) > 0 {
			snap.Breakers = make([]BreakerStatus, 0, len(states))
			for _, ks := range states {
				snap.Breakers = append(snap.Breakers, BreakerStatus{Host: ks.Key, State: int(ks.State)})
			}
		}
	}
	return snap
}
