package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/extract"
	"repro/internal/induct"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/streamx"
)

// The traced run replays the workload's inputs in process through the
// same public functions the daemon calls, in the daemon's order, with a
// span around each call — the program itself is not instrumented. It
// runs on one processor (GOMAXPROCS 1), as does the in-process handler
// it is compared with, so that wall times add up: a page's layer self
// times plus what no span covers equal its time through the handler.

const (
	replayIngestPages   = 4000
	replayExtractPages  = 2000
	sweepCapturePages   = 1000
	replayAdmissionWait = 2 * time.Second
)

// ledgerLayers are the spans whose self times make the ledger: every
// layer on a page's path through the daemon.
var ledgerLayers = []string{
	"pipeline.decode", "service.pagecache", "cluster.route", "streamx.fingerprint",
	"service.pool_wait", "extract.run", "lifecycle.observe", "induct.capture",
	"store.append", "pipeline.encode",
}

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a page's root span
	Req    int    `json:"req"`    // the page or request the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay started
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; a disabled tracer records nothing, so
// the same replay code measures tracing overhead. Spans are begun and
// ended by one goroutine at a time (the replay hands a page to a pool
// worker and blocks until it is done).
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0)),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// selfTimes sums each span name's self time — its duration minus the
// part its children cover — and counts its spans.
func selfTimes(spans []span) (map[string]time.Duration, map[string]int) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, n := map[string]time.Duration{}, map[string]int{}
	for i, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
		n[s.Name]++
	}
	return self, n
}

// captureRecord is the WAL payload the daemon journals for a captured
// unrouted page (same type name and shape as the service's).
type captureRecord struct {
	URI   string `json:"uri"`
	HTML  string `json:"html"`
	Trace string `json:"trace,omitempty"`
}

const recInductCapture = "induct.capture"

// replayEnv is one fresh set of the daemon's per-page components.
type replayEnv struct {
	tr     *tracer
	trace  string
	router *cluster.Router
	procs  map[string]*extract.Processor
	mons   map[string]*lifecycle.Monitor
	cache  *service.PageCache
	pool   *service.Pool
	eng    *induct.Engine
	st     *store.Store
	enc    *json.Encoder
	out    countingWriter

	parent, req int   // span context for hooks the replay cannot pass it to
	appendErr   error // first failed journal append

	routes, fullRoutes, extracts, hits int
	waits                              []time.Duration
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(b []byte) (int, error) { w.n += int64(len(b)); return len(b), nil }

// newReplayEnv builds the components; with storeDir set, an induction
// engine journals captures to a store there, timed as store.append.
func newReplayEnv(in *inputs, tr *tracer, trace, storeDir string) (*replayEnv, error) {
	e := &replayEnv{
		tr: tr, trace: trace,
		router: cluster.NewRouter(0),
		procs:  map[string]*extract.Processor{},
		mons:   map[string]*lifecycle.Monitor{},
		cache:  service.NewPageCache(service.DefaultPageCacheSize),
		pool:   service.NewPool(runtime.NumCPU(), 4*runtime.NumCPU()),
	}
	e.enc = json.NewEncoder(&e.out)
	for _, r := range in.repos {
		e.router.Register(r.name, r.repo.Signature)
		e.procs[r.name] = r.proc
		e.mons[r.name] = lifecycle.NewMonitor(lifecycle.Config{})
	}
	if storeDir == "" {
		return e, nil
	}
	if err := os.RemoveAll(storeDir); err != nil {
		e.pool.Close()
		return nil, err
	}
	st, err := store.Open(store.Options{Dir: storeDir})
	if err != nil {
		e.pool.Close()
		return nil, err
	}
	e.st = st
	e.eng = induct.NewEngine(induct.Config{}, induct.StagerFunc(func(string, *rule.Repository) (int, error) {
		return 0, errors.New("the benchmark stages no repositories")
	}))
	e.eng.SetJournal(induct.Journal{Capture: func(uri, html, trace string) {
		id := tr.begin("store.append", e.parent, e.req)
		if err := st.Append(recInductCapture, captureRecord{URI: uri, HTML: html, Trace: trace}); err != nil && e.appendErr == nil {
			e.appendErr = err
		}
		tr.end(id)
	}})
	return e, nil
}

func (e *replayEnv) close() error {
	e.pool.Close()
	if e.eng == nil {
		return nil
	}
	e.eng.Close()
	err := e.st.Close()
	if e.appendErr != nil {
		err = fmt.Errorf("store append: %w", e.appendErr)
	}
	if rmErr := os.RemoveAll(e.st.Dir()); err == nil {
		err = rmErr
	}
	return err
}

// pageFor is the daemon's cache-aware page assembly (PageKeyOf +
// PageCache.Get, a lazy page that enters the cache only if parsed).
func (e *replayEnv) pageFor(uri, html string, parent, req int) *core.Page {
	id := e.tr.begin("service.pagecache", parent, req)
	defer e.tr.end(id)
	key := service.PageKeyOf([]byte(html))
	if doc, ok := e.cache.Get(key); ok {
		return &core.Page{URI: uri, Doc: doc}
	}
	page := core.NewPageLazy(uri, html)
	page.SetOnParse(func(doc *dom.Node) { e.cache.Put(key, doc, int64(len(html))) })
	return page
}

// handle takes one page through route → (capture | pool → extract →
// observe) → encode, as the daemon does; encode only for ingest.
func (e *replayEnv) handle(ctx context.Context, page *core.Page, root, req int, encode bool) error {
	tr := e.tr
	r := tr.begin("cluster.route", root, req)
	route, ok := e.router.RouteLazy(page.URI, func() cluster.Features {
		e.fullRoutes++
		f := tr.begin("streamx.fingerprint", r, req)
		defer tr.end(f)
		return streamx.FingerprintPage(page)
	})
	tr.end(r)
	e.routes++
	item := &pipeline.Item{Seq: req, Page: page, Repo: route.Name, Score: route.Score}
	if !ok {
		item.Repo = ""
		item.Err = fmt.Errorf("unrouted: page %q best match %q at %.2f is below the routing threshold",
			page.URI, route.Name, route.Score)
		if e.eng != nil {
			c := tr.begin("induct.capture", root, req)
			e.parent, e.req = c, req
			e.eng.CaptureTraced(page, e.trace)
			tr.end(c)
		}
	} else {
		proc := e.procs[route.Name]
		var info extract.StreamInfo
		w := tr.begin("service.pool_wait", root, req)
		t0 := time.Now()
		err := e.pool.DoWait(ctx, replayAdmissionWait, func() {
			e.waits = append(e.waits, time.Since(t0))
			tr.end(w)
			x := tr.begin("extract.run", root, req)
			item.Element, item.Values, item.Failures, info = proc.ExtractPageValuesInfo(page)
			tr.end(x)
		})
		if err != nil {
			return err
		}
		e.extracts++
		if info.Hit {
			e.hits++
		}
		o := tr.begin("lifecycle.observe", root, req)
		e.mons[route.Name].Observe(page, item.Values, item.Failures)
		tr.end(o)
	}
	if encode {
		x := tr.begin("pipeline.encode", root, req)
		line := pipeline.MakeResultLine(item)
		line.Trace = e.trace
		err := e.enc.Encode(line)
		tr.end(x)
		return err
	}
	return nil
}

// replayStream is the workload's traffic for the replay: the pages in
// order, and the same pages as the NDJSON body an ingest stream carries.
type replayStream struct {
	ingest bool
	pages  []reqPage
	ndjson []byte
}

type reqPage struct {
	uri  string
	html string
}

func buildReplayStream(cfg *runConfig, in *inputs) *replayStream {
	rs := &replayStream{ingest: cfg.w.name != "extract_open"}
	if rs.ingest {
		s := newIngestStream(in, cfg.w.durable, cfg.seed, 0)
		var uri []byte
		for i := 0; i < replayIngestPages; i++ {
			var p *benchPage
			p, uri = s.pageAt(i, uri[:0])
			rs.pages = append(rs.pages, reqPage{uri: string(uri), html: p.html})
		}
	} else {
		rng := rand.New(rand.NewSource(cfg.seed))
		for i := 0; i < replayExtractPages; i++ {
			p := in.data[rng.Intn(len(in.data))]
			rs.pages = append(rs.pages, reqPage{uri: p.uri, html: p.html})
		}
	}
	for _, p := range rs.pages {
		rs.ndjson = append(append(rs.ndjson, `{"uri":"`...), p.uri...)
		rs.ndjson = append(rs.ndjson, ndjsonTail(p.html)...)
	}
	return rs
}

// replay runs the stream once through a fresh environment.
func replay(ctx context.Context, cfg *runConfig, in *inputs, rs *replayStream, tr *tracer, storeDir string) (*replayEnv, time.Duration, error) {
	trace := fmt.Sprintf("bench-%s-%d", cfg.w.name, cfg.seed)
	e, err := newReplayEnv(in, tr, trace, storeDir)
	if err != nil {
		return nil, 0, err
	}
	tr.t0 = time.Now()
	start := time.Now()
	if rs.ingest {
		src := pipeline.NewNDJSONSource(bytes.NewReader(rs.ndjson), 8<<20, func(uri, html string) *core.Page {
			return e.pageFor(uri, html, e.parent, e.req)
		})
		for req := 0; ; req++ {
			root := tr.begin("page", -1, req)
			d := tr.begin("pipeline.decode", root, req)
			e.parent, e.req = d, req
			page, err := src.Next(ctx)
			tr.end(d)
			if err == io.EOF {
				if tr.on {
					tr.spans = tr.spans[:root]
				}
				break
			}
			if err != nil {
				return e, 0, fmt.Errorf("replay decode: %w", err)
			}
			if err := e.handle(ctx, page, root, req, true); err != nil {
				return e, 0, err
			}
			tr.end(root)
		}
	} else {
		for req, p := range rs.pages {
			root := tr.begin("page", -1, req)
			page := e.pageFor(p.uri, p.html, root, req)
			if err := e.handle(ctx, page, root, req, false); err != nil {
				return e, 0, err
			}
			tr.end(root)
		}
	}
	return e, time.Since(start), nil
}

// traced runs the traced replay, the alloc passes, the in-process
// handler and the sweeps, and returns the per-layer metrics and report.
func traced(ctx context.Context, cfg *runConfig, in *inputs, m *measurement) ([]namedValue, []string, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rs := buildReplayStream(cfg, in)
	storeDir := ""
	if cfg.w.durable {
		storeDir = filepath.Join(cfg.out, fmt.Sprintf("trace-store-%d", os.Getpid()))
	}
	run := func(tr *tracer) (*replayEnv, time.Duration, error) {
		e, took, err := replay(ctx, cfg, in, rs, tr, storeDir)
		if e != nil {
			if cerr := e.close(); err == nil {
				err = cerr
			}
		}
		return e, took, err
	}
	// Warm up once, then alternate untraced and traced replays and keep
	// each side's median time; the last traced replay supplies the spans.
	if _, _, err := run(&tracer{}); err != nil {
		return nil, nil, err
	}
	var plainTimes, tracedTimes []float64
	var tr *tracer
	var env *replayEnv
	for i := 0; i < 3; i++ {
		_, took, err := run(&tracer{})
		if err != nil {
			return nil, nil, err
		}
		plainTimes = append(plainTimes, took.Seconds())
		tr = &tracer{on: true}
		env, took, err = run(tr)
		if err != nil {
			return nil, nil, err
		}
		tracedTimes = append(tracedTimes, took.Seconds())
	}
	self, count := selfTimes(tr.spans)
	n := float64(len(rs.pages))
	us := func(name string, per float64) float64 {
		if per == 0 {
			return 0
		}
		return float64(self[name]) / float64(time.Microsecond) / per
	}

	handler, err := measureHandler(ctx, cfg, in, rs)
	if err != nil {
		return nil, nil, err
	}
	var ledgerSum time.Duration
	for _, l := range ledgerLayers {
		ledgerSum += self[l]
	}
	ledgerPerPage := float64(ledgerSum) / float64(time.Microsecond) / n

	decodeAllocs, decodeBytes, extractAllocs, err := allocPasses(in, rs)
	if err != nil {
		return nil, nil, err
	}
	sw, err := sweep(ctx, cfg, in, rs)
	if err != nil {
		return nil, nil, err
	}

	// Layers off this workload's daemon path take their figures from the
	// sweep over the same pages.
	decodeUS, encodeUS, outBytes := us("pipeline.decode", n), us("pipeline.encode", n), float64(env.out.n)/n
	if !rs.ingest {
		decodeUS, encodeUS, outBytes = sw.decodeUS, sw.encodeUS, sw.outBytes
	}
	captureUS, appendUS := us("induct.capture", float64(count["induct.capture"])), us("store.append", float64(count["store.append"]))
	st := sw.store
	if env.st != nil {
		st = env.st.Metrics()
	} else {
		captureUS, appendUS = sw.captureUS, sw.appendUS
	}
	records := float64(st.WALRecords)
	waits := micros(env.waits)
	out := []namedValue{
		{"pipeline.decode_us_per_page", decodeUS, "us"},
		{"pipeline.decode_allocs_per_page", decodeAllocs, "count"},
		{"pipeline.decode_bytes_per_page", decodeBytes, "B"},
		{"pipeline.encode_us_per_page", encodeUS, "us"},
		{"pipeline.encode_out_bytes_per_page", outBytes, "B"},
		{"cluster.route_us_per_page", us("cluster.route", float64(env.routes)), "us"},
		{"cluster.route_full_ratio", float64(env.fullRoutes) / float64(env.routes), "ratio"},
		{"streamx.fingerprint_us_per_call", us("streamx.fingerprint", float64(env.fullRoutes)), "us"},
		{"extract.run_us_per_page", us("extract.run", float64(env.extracts)), "us"},
		{"extract.run_allocs_per_page", extractAllocs, "count"},
		{"extract.stream_hit_ratio", float64(env.hits) / float64(env.extracts), "ratio"},
		{"lifecycle.observe_us_per_page", us("lifecycle.observe", float64(env.extracts)), "us"},
		{"service.pagecache_us_per_request", us("service.pagecache", n), "us"},
		{"service.pool_wait_us_p50", percentile(waits, 50), "us"},
		{"service.pool_wait_us_p99", percentile(waits, 99), "us"},
		{"service.handler_us_per_request", handler.perPageUS, "us"},
		{"service.http_us_per_request", handler.httpUS, "us"},
		{"service.registry_load_ms", handler.loadMS, "ms"},
		{"induct.capture_us_per_page", captureUS, "us"},
		{"store.append_us_per_record", appendUS, "us"},
		{"store.bytes_per_record", safeDiv(float64(st.WALBytes), records), "B"},
		{"store.fsyncs_per_krecord", safeDiv(float64(st.Fsyncs)*1000, records), "count"},
		{"ledger.unattributed_ratio", 1 - ledgerPerPage/handler.perPageUS, "ratio"},
		{"trace.overhead_ratio", median(plainTimes) / median(tracedTimes), "ratio"},
	}
	out = append(out, promCounts(m.prom)...)

	spansFile := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.w.name, cfg.seed))
	if err := writeSpans(spansFile, tr.spans); err != nil {
		return nil, nil, err
	}
	lines := []string{
		fmt.Sprintf("traced run: %d %s replayed in process on 1 processor; %d spans written to %s",
			len(rs.pages), map[bool]string{true: "ingest pages", false: "extract requests"}[rs.ingest], len(tr.spans), spansFile),
		"per-layer ledger (self time per page or request; share of in-process handler time):",
	}
	for _, l := range ledgerLayers {
		if count[l] == 0 {
			continue
		}
		per := float64(self[l]) / float64(time.Microsecond) / n
		lines = append(lines, fmt.Sprintf("  %-22s %9.3f us  %5.1f%%  (%d spans)", l, per, 100*per/handler.perPageUS, count[l]))
	}
	lines = append(lines, fmt.Sprintf("  %-22s %9.3f us  %5.1f%%", "unattributed", handler.perPageUS-ledgerPerPage,
		100*(1-ledgerPerPage/handler.perPageUS)))
	lines = append(lines, fmt.Sprintf("  %-22s %9.3f us", "handler (total)", handler.perPageUS))
	if !rs.ingest || env.st == nil {
		lines = append(lines, "  layers off this workload's daemon path were timed by a sweep over its pages: "+sw.names(!rs.ingest, env.st == nil))
	}
	lines = append(lines, "per-layer metrics:")
	for _, v := range out {
		lines = append(lines, fmt.Sprintf("  %-36s %14.4f %s", v.name, v.value, v.unit))
	}
	return out, lines, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// promCounts turns the untraced run's /metrics deltas into per-layer
// counts.
func promCounts(p promSeries) []namedValue {
	return []namedValue{
		{"metrics.router_hit", p[`extractd_router_decisions_total{outcome="hit"}`], "count"},
		{"metrics.router_unrouted", p[`extractd_router_decisions_total{outcome="unrouted"}`], "count"},
		{"metrics.router_miss", p[`extractd_router_decisions_total{outcome="miss"}`], "count"},
		{"metrics.stream_extract_hit", p[`extractd_stream_extract_total{outcome="hit"}`], "count"},
		{"metrics.stream_fallback", p.sum("extractd_stream_fallback_total"), "count"},
		{"metrics.shed", p["extractd_shed_total"], "count"},
		{"metrics.wal_records", p["extractd_store_wal_records_total"], "count"},
		{"metrics.wal_bytes", p["extractd_store_wal_bytes"], "B"},
		{"metrics.fsyncs", p["extractd_store_fsyncs_total"], "count"},
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocPasses measures allocations per call with runtime.MemStats deltas
// around untimed loops: NDJSONSource.Next over the workload's lines
// (lazy pages, no cache) and ExtractPageValuesInfo over its pages.
func allocPasses(in *inputs, rs *replayStream) (decodeAllocs, decodeBytes, extractAllocs float64, err error) {
	var pages []*core.Page
	src := pipeline.NewNDJSONSource(bytes.NewReader(rs.ndjson), 8<<20, core.NewPageLazy)
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for {
		page, err := src.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, 0, err
		}
		pages = append(pages, page)
	}
	runtime.ReadMemStats(&b)
	n := float64(len(pages))
	decodeAllocs = float64(b.Mallocs-a.Mallocs) / n
	decodeBytes = float64(b.TotalAlloc-a.TotalAlloc) / n

	router := cluster.NewRouter(0)
	for _, r := range in.repos {
		router.Register(r.name, r.repo.Signature)
	}
	var procs []*extract.Processor
	for _, p := range pages {
		route, ok := router.RouteLazy(p.URI, func() cluster.Features { return streamx.FingerprintPage(p) })
		if !ok {
			procs = append(procs, nil)
			continue
		}
		procs = append(procs, in.repo(route.Name).proc)
	}
	fresh := make([]*core.Page, len(pages))
	for i, p := range pages {
		src, _ := p.Source()
		fresh[i] = core.NewPageLazy(p.URI, src)
	}
	extracted := 0
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i, p := range fresh {
		if procs[i] != nil {
			procs[i].ExtractPageValuesInfo(p)
			extracted++
		}
	}
	runtime.ReadMemStats(&b)
	extractAllocs = safeDiv(float64(b.Mallocs-a.Mallocs), float64(extracted))
	return decodeAllocs, decodeBytes, extractAllocs, nil
}

func ndjsonTail(html string) []byte {
	q, _ := json.Marshal(html) // a string always marshals
	return append(append([]byte(`","html":`), q...), "}\n"...)
}

// sweepResult times the layers a workload's daemon path skips, over the
// workload's own pages, so every per-layer row has a value.
type sweepResult struct {
	decodeUS, encodeUS, outBytes float64
	captureUS, appendUS          float64
	store                        store.Metrics
}

func (s *sweepResult) names(ndjson, capture bool) string {
	var parts []string
	if ndjson {
		parts = append(parts, "pipeline.decode, pipeline.encode")
	}
	if capture {
		parts = append(parts, "induct.capture, store.append")
	}
	return strings.Join(parts, ", ")
}

func sweep(ctx context.Context, cfg *runConfig, in *inputs, rs *replayStream) (*sweepResult, error) {
	sw := &sweepResult{}
	if !rs.ingest {
		src := pipeline.NewNDJSONSource(bytes.NewReader(rs.ndjson), 8<<20, core.NewPageLazy)
		var pages []*core.Page
		start := time.Now()
		for {
			page, err := src.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			pages = append(pages, page)
		}
		sw.decodeUS = float64(time.Since(start)) / float64(time.Microsecond) / float64(len(pages))
		byURI := map[string]*benchPage{}
		for _, p := range in.data {
			byURI[p.uri] = p
		}
		items := make([]*pipeline.Item, len(pages))
		for i, page := range pages {
			p := byURI[page.URI]
			el, values, fails := in.repo(p.repo).proc.ExtractPageValues(page)
			items[i] = &pipeline.Item{Seq: i, Page: page, Repo: p.repo, Score: 1, Element: el, Values: values, Failures: fails}
		}
		var out countingWriter
		enc := json.NewEncoder(&out)
		start = time.Now()
		for _, it := range items {
			if err := enc.Encode(pipeline.MakeResultLine(it)); err != nil {
				return nil, err
			}
		}
		sw.encodeUS = float64(time.Since(start)) / float64(time.Microsecond) / float64(len(items))
		sw.outBytes = float64(out.n) / float64(len(items))
	}
	if !cfg.w.durable {
		tr := &tracer{on: true, t0: time.Now()}
		dir := filepath.Join(cfg.out, fmt.Sprintf("sweep-store-%d", os.Getpid()))
		e, err := newReplayEnv(in, tr, "sweep", dir)
		if err != nil {
			return nil, err
		}
		for i := 0; i < sweepCapturePages; i++ {
			p := in.data[i%len(in.data)]
			c := tr.begin("induct.capture", -1, i)
			e.parent, e.req = c, i
			e.eng.CaptureTraced(core.NewPageLazy(string(hostURI(nil, p.uri, i)), p.html), "sweep")
			tr.end(c)
		}
		sw.store = e.st.Metrics()
		if err := e.close(); err != nil {
			return nil, err
		}
		self, count := selfTimes(tr.spans)
		sw.captureUS = float64(self["induct.capture"]) / float64(time.Microsecond) / float64(count["induct.capture"])
		sw.appendUS = safeDiv(float64(self["store.append"])/float64(time.Microsecond), float64(count["store.append"]))
	}
	return sw, nil
}

// handlerResult is the in-process Server.Handler() measurement.
type handlerResult struct {
	perPageUS float64 // ServeHTTP time per page or request
	httpUS    float64 // client round trip minus ServeHTTP, per page or request
	loadMS    float64 // Server.LoadRepo, mean per repository
}

// measureHandler serves the same stream through an in-process
// service.Server configured like the daemon, on a loopback listener,
// timing ServeHTTP around the real handler.
func measureHandler(ctx context.Context, cfg *runConfig, in *inputs, rs *replayStream) (*handlerResult, error) {
	logger, err := obs.NewLogger(io.Discard, "text", "info")
	if err != nil {
		return nil, err
	}
	srv := service.NewServer(runtime.NumCPU(), 0, nil)
	srv.Log = logger
	srv.RequestTimeout = 30 * time.Second
	srv.AdmissionWait = replayAdmissionWait
	srv.RouterLearn = true
	defer srv.Close()
	if cfg.w.durable {
		eng := srv.EnableInduction(induct.Config{})
		defer eng.Close()
		dir := filepath.Join(cfg.out, fmt.Sprintf("handler-store-%d", os.Getpid()))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		defer st.Close()
		if err := srv.AttachStore(st); err != nil {
			return nil, err
		}
	}
	res := &handlerResult{}
	var loads time.Duration
	for _, r := range in.repos {
		repo, err := rule.Parse(r.body)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := srv.LoadRepo(r.name, repo); err != nil {
			return nil, err
		}
		loads += time.Since(t0)
	}
	res.loadMS = float64(loads) / float64(time.Millisecond) / float64(len(in.repos))

	var mu sync.Mutex
	var serve time.Duration
	h := srv.Handler()
	timed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		mu.Lock()
		serve += time.Since(t0)
		mu.Unlock()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: timed}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()

	var wall time.Duration
	n := len(rs.pages)
	if rs.ingest {
		start := time.Now()
		resp, err := client.Post(base+"/ingest", "application/x-ndjson", bytes.NewReader(rs.ndjson))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		wall = time.Since(start)
		if err != nil {
			return nil, err
		}
		if got := bytes.Count(body, []byte("\n")); resp.StatusCode != http.StatusOK || got != n+1 {
			return nil, fmt.Errorf("in-process /ingest: status %d, %d lines for %d pages", resp.StatusCode, got, n)
		}
	} else {
		var buf bytes.Buffer
		for _, p := range rs.pages {
			start := time.Now()
			resp, err := client.Post(base+"/extract?uri="+url.QueryEscape(p.uri), "text/html", bytes.NewReader([]byte(p.html)))
			if err != nil {
				return nil, err
			}
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			wall += time.Since(start)
			if err != nil {
				return nil, err
			}
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("in-process /extract: status %d: %.200s", resp.StatusCode, buf.Bytes())
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	res.perPageUS = float64(serve) / float64(time.Microsecond) / float64(n)
	res.httpUS = float64(wall-serve) / float64(time.Microsecond) / float64(n)
	return res, nil
}
