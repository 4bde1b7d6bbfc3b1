package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/extract"
	"repro/internal/induct"
	"repro/internal/lifecycle"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/resilient"
	"repro/internal/rule"
	"repro/internal/store"
	"repro/internal/streamx"
	"repro/internal/webfetch"
)

// Server is the extractd HTTP service: a repository registry, an
// extraction admission gate, metrics, and the handlers tying them together.
//
// Endpoints:
//
//	POST /repos                  load/reload a repository (JSON body, ?name= override)
//	GET  /repos                  list loaded repositories
//	DELETE /repos                unload a repository (?name=)
//	POST /extract                extract one page: raw HTML body, ?repo= (optional: router) &uri= &format=json|xml
//	POST /extract/batch          extract many pages: NDJSON {"uri","html"} in, NDJSON out
//	POST /extract/url            fetch ?url= then extract against ?repo= (optional: router)
//	POST /ingest                 stream a whole site: NDJSON pages in, NDJSON results out (auto-routed)
//	POST /induce                 feed operator examples and plan induction jobs over unrouted traffic
//	GET  /jobs                   list induction jobs (+ unrouted buckets)
//	GET  /jobs/{id}              one induction job
//	POST /jobs/{id}/promote      activate a staged induced repository (routes from then on)
//	POST /jobs/{id}/cancel       stop a queued or running induction job
//	GET  /repos/{name}/health    drift monitor + version history (+?verdicts=1)
//	GET  /repos/{name}/versions  retained repository versions + per-version stats
//	POST /repos/{name}/repair    rebuild broken rules from the sample buffer (?promote=auto|never|force)
//	POST /repos/{name}/rollback  re-activate the previous version
//	GET  /healthz                liveness + registry/pool summary
//	GET  /metrics                counters, failure breakdown, latency histogram, lifecycle events
type Server struct {
	Registry *Registry
	Pool     *Pool
	Metrics  *Metrics
	// Fetcher serves /extract/url. Nil disables URL fetching (for
	// deployments that must not make outbound requests).
	Fetcher *webfetch.Fetcher
	// AllowedHosts, when non-empty, restricts /extract/url targets to
	// these hosts (exact match on URL host, port included). An open
	// fetch endpoint is an SSRF hole — a caller could point the daemon
	// at internal addresses — so production deployments should either
	// set this or disable Fetcher.
	AllowedHosts []string
	// MaxBody bounds request bodies in bytes (default 8 MiB). Larger
	// requests are rejected with 413, never truncated.
	MaxBody int64
	// PageCache holds parsed documents keyed by body hash, letting
	// repeated extractions of identical HTML skip dom.Parse. Nil disables
	// caching. Hits and misses are surfaced in /metrics.
	PageCache *PageCache
	// Lifecycle tunes the per-repository drift monitors (zero value:
	// lifecycle defaults).
	Lifecycle lifecycle.Config
	// AutoRepair, when true, reacts to a tripped drift alarm by running
	// repair → stage → shadow-evaluate → promote without an operator.
	AutoRepair bool
	// Router classifies pages to repositories when a request names none:
	// repositories loaded with a cluster signature are registered here,
	// and /extract, /extract/url and /ingest fall back to it. Never nil
	// after NewServer.
	Router *cluster.Router
	// RouterLearn, when true, folds cleanly extracted explicitly-targeted
	// pages on the single-page endpoints (/extract, /extract/url) into
	// the target repository's routing signature, until it has absorbed
	// routerLearnCap pages — repositories loaded without a signature
	// become routable once explicit traffic has flowed.
	RouterLearn bool
	// Induct, when non-nil, is the wrapper-induction engine: unrouted
	// pages from /extract, /extract/url and /ingest are captured into
	// its buffer instead of being dropped, and the /induce and /jobs
	// endpoints drive background rule building over them. Enable with
	// EnableInduction; nil disables the endpoints (501).
	Induct *induct.Engine
	// Store, when non-nil, is the durability layer: AttachStore restores
	// state on boot and journals every registry, router and induction
	// mutation through it. Nil means a memory-only daemon (the pre-PR-7
	// behaviour). Set via AttachStore, not directly.
	Store *store.Store
	// Log receives the server's structured logs: one request line per
	// HTTP exchange (method, route, repo, status, duration, trace ID),
	// registry stage/promote/rollback events, drift alarms and induction
	// job transitions. Nil discards everything — the extractd daemon
	// installs a real logger via obs.NewLogger; embedded servers and
	// tests stay quiet by default.
	Log *slog.Logger
	// RequestTimeout, when > 0, bounds every request: handlers run under
	// a context.WithTimeout-derived deadline. The streaming /ingest
	// route is exempt (a whole-site ingestion legitimately outlives any
	// fixed request budget) — there it bounds each page's wait for pool
	// admission instead (see pipelineAdmissionWait).
	RequestTimeout time.Duration
	// AdmissionWait bounds how long a request waits for a pool slot
	// before shedding with 503 + Retry-After (default 2s; negative
	// waits indefinitely, the pre-resilience behaviour).
	AdmissionWait time.Duration
	// Scheduler, when non-nil, is the drift-adaptive recrawl scheduler:
	// the /schedules endpoints manage cadence, /changes streams the
	// change feed, and tripped drift alarms snap the repo's schedule
	// back to its minimum interval. Set via EnableMonitor, not
	// directly; nil disables the endpoints (501).
	Scheduler *monitor.Scheduler

	monMu    sync.Mutex
	monitors map[string]*lifecycle.Monitor
}

// logger returns the configured logger or a discarding one.
func (s *Server) logger() *slog.Logger {
	if s.Log != nil {
		return s.Log
	}
	return obs.NopLogger()
}

// NewServer assembles a server with a fresh registry and metrics and a
// bounded pool. workers ≤ 0 defaults to GOMAXPROCS (extraction is
// CPU-bound); queue ≤ 0 defaults to 4× workers. fetcher may be nil to
// disable /extract/url.
func NewServer(workers, queue int, fetcher *webfetch.Fetcher) *Server {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = 4 * workers
	}
	s := &Server{
		Registry:  NewRegistry(),
		Pool:      NewPool(workers, queue),
		Metrics:   NewMetrics(),
		Fetcher:   fetcher,
		PageCache: NewPageCache(DefaultPageCacheSize),
		Router:    cluster.NewRouter(0),
	}
	s.wireResilience()
	return s
}

// wireResilience points the failure hooks of the server's components at
// the metrics surface: pool panics, fetch retries and per-host fetch
// outcomes all become counters instead of vanishing.
func (s *Server) wireResilience() {
	if s.Pool != nil {
		s.Pool.OnPanic = func(pe *resilient.PanicError) {
			s.Metrics.PanicRecovered("pool")
			s.logger().LogAttrs(context.Background(), slog.LevelError, "pool.panic",
				slog.String("error", pe.Error()),
				slog.String("stack", string(pe.Stack)))
		}
	}
	if s.Fetcher != nil {
		s.Fetcher.OnRetry = func(host string) { s.Metrics.FetchRetry() }
		s.Fetcher.OnOutcome = func(host, outcome string) { s.Metrics.FetchOutcome(host, outcome) }
	}
}

// pipelinePanic is the pipeline.Config.OnPanic hook shared by the batch
// and ingest pipelines: the quarantined panic becomes a counter and an
// error log, attributed to the stage ("classify" or "extract") it hit.
func (s *Server) pipelinePanic(stage string, pe *resilient.PanicError) {
	s.Metrics.PanicRecovered(stage)
	s.logger().LogAttrs(context.Background(), slog.LevelError, "pipeline.panic",
		slog.String("stage", stage),
		slog.String("error", pe.Error()),
		slog.String("stack", string(pe.Stack)))
}

// admissionWait is how long extraction requests may wait for a pool slot
// before being shed (503 + Retry-After). Zero means the 2s default;
// negative disables shedding and blocks like the pre-resilience server.
func (s *Server) admissionWait() time.Duration {
	if s.AdmissionWait != 0 {
		return s.AdmissionWait
	}
	return 2 * time.Second
}

// LoadRepo validates, compiles and activates a repository (see
// Registry.Load) and wires the surrounding machinery: the repository's
// cluster signature (if any) is registered with the page router, and the
// repo's drift window re-arms — a fresh version earns a fresh failure
// window. Both the /repos handler and daemon preloading go through here.
func (s *Server) LoadRepo(name string, repo *rule.Repository) (*RepoEntry, error) {
	return s.loadRepo(context.Background(), name, repo)
}

// loadRepo is LoadRepo with the caller's context, so hot-reload requests
// log under their trace ID.
func (s *Server) loadRepo(ctx context.Context, name string, repo *rule.Repository) (*RepoEntry, error) {
	e, err := s.Registry.Load(name, repo)
	if err != nil {
		return nil, err
	}
	if repo.Signature != nil {
		s.Router.Register(e.Name, repo.Signature)
	}
	s.monitor(e.Name).ResetWindow()
	s.logger().LogAttrs(ctx, slog.LevelInfo, "registry.load",
		slog.String("repo", e.Name), slog.Int("version", e.Version),
		slog.Int("components", len(e.Repo.Rules)),
		slog.Bool("routable", repo.Signature != nil))
	return e, nil
}

// RemoveRepo unloads a repository, its router signature and its drift
// monitor, reporting whether it existed.
func (s *Server) RemoveRepo(name string) bool {
	if !s.Registry.Remove(name) {
		return false
	}
	s.Router.Unregister(name)
	s.dropMonitor(name)
	s.logger().LogAttrs(context.Background(), slog.LevelInfo, "registry.remove",
		slog.String("repo", name))
	return true
}

// DefaultPageCacheSize is the parsed-document cache capacity NewServer
// installs; override by replacing Server.PageCache (nil disables).
const DefaultPageCacheSize = 256

// Close stops admitting extractions and waits for admitted ones.
func (s *Server) Close() { s.Pool.Close() }

func (s *Server) maxBody() int64 {
	if s.MaxBody > 0 {
		return s.MaxBody
	}
	return 8 << 20
}

// Handler returns the routed http.Handler, wrapped in the request
// observability envelope (trace IDs, request logs, pprof route labels).
func (s *Server) Handler() http.Handler { return s.instrument(s.routes()) }

// routes builds the request mux. Every handler runs under a pprof
// "route" label derived from its registered pattern (see routeLabel), so
// CPU profiles break down by endpoint; the label set is bounded by the
// patterns below whatever paths clients send.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		labels := pprof.Labels("route", routeLabel(pattern))
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			pprof.Do(r.Context(), labels, func(context.Context) { h(w, r) })
		})
	}
	handle("/repos", s.handleRepos)
	handle("GET /repos/{name}/health", s.handleRepoHealth)
	handle("GET /repos/{name}/versions", s.handleRepoVersions)
	handle("POST /repos/{name}/repair", s.handleRepoRepair)
	handle("POST /repos/{name}/rollback", s.handleRepoRollback)
	handle("/extract", s.handleExtract)
	handle("/extract/batch", s.handleExtractBatch)
	handle("/extract/url", s.handleExtractURL)
	handle("/ingest", s.handleIngest)
	handle("POST /induce", s.handleInduce)
	handle("GET /jobs", s.handleJobs)
	handle("GET /jobs/{id}", s.handleJob)
	handle("POST /jobs/{id}/promote", s.handleJobPromote)
	handle("POST /jobs/{id}/cancel", s.handleJobCancel)
	handle("POST /schedules", s.handleScheduleCreate)
	handle("GET /schedules", s.handleScheduleList)
	handle("POST /schedules/{repo}/pause", s.handleSchedulePause)
	handle("POST /schedules/{repo}/resume", s.handleScheduleResume)
	handle("DELETE /schedules/{repo}", s.handleScheduleDelete)
	handle("GET /changes", s.handleChanges)
	handle("/healthz", s.handleHealthz)
	handle("/metrics", s.handleMetrics)
	return mux
}

// routeLabel turns a registered mux pattern into its pprof route label:
// the literal path segments joined by dots, method and wildcards dropped
// ("POST /jobs/{id}/promote" → "jobs.promote"). The empty pattern — a
// request no route matched — is "other".
func routeLabel(pattern string) string {
	_, path, _ := strings.Cut(pattern, "/")
	var parts []string
	for _, seg := range strings.Split(path, "/") {
		if seg != "" && !strings.HasPrefix(seg, "{") {
			parts = append(parts, seg)
		}
	}
	if len(parts) == 0 {
		return "other"
	}
	return strings.Join(parts, ".")
}

// unmatchedRoute labels a request's goroutine until a matched handler
// relabels it, so requests no route matched profile as "other".
var unmatchedRoute = pprof.WithLabels(context.Background(), pprof.Labels("route", "other"))

// statusWriter records the response status and byte count for the
// request log without getting in the way of streaming: Flush passes
// through for NDJSON responses and Unwrap keeps http.ResponseController
// (EnableFullDuplex on /ingest) working.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush implements http.Flusher when the underlying writer does.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the mux with the per-request observability envelope:
//
//   - a trace ID is adopted from a well-formed X-Trace-Id request header
//     or minted fresh, echoed in the X-Trace-Id response header, and
//     carried on the request context — pipeline stages, NDJSON result
//     lines, induction captures and every log line under this request
//     share it;
//   - the goroutine runs under a pprof "route" label — "other" until
//     the mux matches a route, whose handler relabels it (see routes);
//     extraction runs on this goroutine or on pipeline goroutines it
//     starts, which inherit the label, so CPU profiles attribute
//     samples to routes;
//   - one structured request log line is emitted per exchange with
//     method, route, status, body bytes and duration.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Trace-Id")
		if !obs.ValidTraceID(id) {
			id = obs.NewTraceID()
		}
		w.Header().Set("X-Trace-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ctx := obs.WithTrace(r.Context(), id)
		// Deadline propagation: every request runs under the server's
		// request budget, except the streaming routes — a whole-site
		// /ingest or a followed /changes tail legitimately outlives any
		// fixed budget, so there the budget bounds each page's
		// admission wait instead (see pipelineAdmissionWait).
		if s.RequestTimeout > 0 && r.URL.Path != "/ingest" && r.URL.Path != "/changes" {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.RequestTimeout)
			defer cancel()
		}
		// The mux stamps the matched pattern onto the served request — the
		// request log wants that pattern, not the raw path.
		served := r.WithContext(ctx)
		pprof.SetGoroutineLabels(unmatchedRoute)
		func() {
			defer pprof.SetGoroutineLabels(ctx)
			// Panic isolation: a handler panic must not kill the daemon.
			// http.ErrAbortHandler is the stdlib's sanctioned way to abort
			// a response and must keep propagating.
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				if v == http.ErrAbortHandler {
					panic(v)
				}
				pe := &resilient.PanicError{Val: v, Stack: debug.Stack()}
				s.Metrics.PanicRecovered("handler")
				s.logger().LogAttrs(ctx, slog.LevelError, "handler.panic",
					slog.String("path", r.URL.Path),
					slog.String("error", pe.Error()),
					slog.String("stack", string(pe.Stack)))
				if !sw.wrote {
					writeJSON(sw, http.StatusInternalServerError,
						map[string]string{"error": "internal error: " + pe.Error()})
				}
			}()
			next.ServeHTTP(sw, served)
		}()
		route := served.Pattern
		if route == "" {
			route = r.URL.Path
		}
		level := slog.LevelInfo
		if sw.status >= http.StatusInternalServerError {
			level = slog.LevelError
		} else if sw.status >= http.StatusBadRequest {
			level = slog.LevelWarn
		}
		attrs := make([]slog.Attr, 0, 9)
		attrs = append(attrs,
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", time.Since(start)))
		if repo := r.URL.Query().Get("repo"); repo != "" {
			attrs = append(attrs, slog.String("repo", repo))
		}
		// Tenant-ready: multi-tenancy (ROADMAP item 3) will scope requests
		// by authenticated tenant; until then the header is advisory.
		if tenant := r.Header.Get("X-Tenant"); tenant != "" {
			attrs = append(attrs, slog.String("tenant", tenant))
		}
		s.logger().LogAttrs(ctx, level, "request", attrs...)
	})
}

// ---------------------------------------------------------------------------
// Response plumbing.

type httpError struct {
	status int
	msg    string
	// cause, when set, makes the error transparent to errors.Is — the
	// unrouted error wraps pipeline.ErrUnrouted so pipeline stats and
	// callers classify it without string matching.
	cause error
	// retryAfter, when > 0, emits a Retry-After header with the error
	// response — load-shed 503s tell well-behaved clients when to come
	// back instead of letting them hammer a saturated server.
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func (e *httpError) Unwrap() error { return e.cause }

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// readBody reads a request body up to the server's limit, rejecting —
// not truncating — anything larger: a silently cut-off HTML page would
// extract to a wrong-but-200 record.
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.maxBody()+1))
	if err != nil {
		return nil, errf(http.StatusBadRequest, "reading body: %v", err)
	}
	if int64(len(body)) > s.maxBody() {
		return nil, errf(http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", s.maxBody())
	}
	return body, nil
}

// jsonBufPool recycles response-encode buffers so the steady-state JSON
// path performs one Write per response instead of growing a fresh buffer
// inside the encoder for every request.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		jsonBufPool.Put(buf)
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	// Don't let one huge page response pin a giant buffer in the pool.
	if buf.Cap() <= 1<<20 {
		jsonBufPool.Put(buf)
	}
}

// responseStarted reports whether the handler has begun its response:
// past that point the status is on the wire, and an error can only
// travel in-band (an NDJSON error or summary line).
func responseStarted(w http.ResponseWriter) bool {
	sw, ok := w.(*statusWriter)
	return ok && sw.wrote
}

// endpoint wraps a handler with request counting and error rendering.
// An error from a handler whose response has started is counted but
// not rendered: the handler already reported it in-band.
func (s *Server) endpoint(name string, w http.ResponseWriter, r *http.Request, fn func() error) {
	err := fn()
	s.Metrics.Request(name, err != nil)
	if err != nil && !responseStarted(w) {
		status := http.StatusInternalServerError
		if he, ok := err.(*httpError); ok {
			status = he.status
			if he.retryAfter > 0 {
				secs := int(he.retryAfter / time.Second)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
			}
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
	}
}

// ---------------------------------------------------------------------------
// Repository management.

type repoInfo struct {
	Name        string   `json:"name"`
	Cluster     string   `json:"cluster"`
	Components  []string `json:"components"`
	Version     int      `json:"version"`
	Generation  int      `json:"generation"`
	PageElement string   `json:"pageElement"`
}

func info(e *RepoEntry) repoInfo {
	return repoInfo{
		Name:        e.Name,
		Cluster:     e.Repo.Cluster,
		Components:  e.Repo.ComponentNames(),
		Version:     e.Version,
		Generation:  e.Generation,
		PageElement: e.Repo.PageElementName(),
	}
}

func (s *Server) handleRepos(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.endpoint("repos.list", w, r, func() error {
			entries := s.Registry.List()
			infos := make([]repoInfo, 0, len(entries))
			for _, e := range entries {
				infos = append(infos, info(e))
			}
			writeJSON(w, http.StatusOK, map[string]any{"repos": infos})
			return nil
		})
	case http.MethodPost:
		s.endpoint("repos.load", w, r, func() error {
			body, err := s.readBody(r)
			if err != nil {
				return err
			}
			repo, err := rule.Parse(body)
			if err != nil {
				return errf(http.StatusUnprocessableEntity, "%v", err)
			}
			e, err := s.loadRepo(r.Context(), r.URL.Query().Get("name"), repo)
			if err != nil {
				return errf(http.StatusUnprocessableEntity, "%v", err)
			}
			writeJSON(w, http.StatusOK, info(e))
			return nil
		})
	case http.MethodDelete:
		s.endpoint("repos.delete", w, r, func() error {
			name := r.URL.Query().Get("name")
			if name == "" {
				return errf(http.StatusBadRequest, "name parameter required")
			}
			if !s.RemoveRepo(name) {
				return errf(http.StatusNotFound, "repository %q not loaded", name)
			}
			writeJSON(w, http.StatusOK, map[string]string{"removed": name})
			return nil
		})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// ---------------------------------------------------------------------------
// Extraction.

// extractResult is the JSON envelope of one extracted page. The server
// fills Record with the element's AppendJSON rendering (see
// recordResult); a client decoding into the struct gets the generic
// JSON value.
type extractResult struct {
	URI        string   `json:"uri"`
	Repo       string   `json:"repo"`
	Generation int      `json:"generation"`
	Record     any      `json:"record"`
	Failures   []string `json:"failures,omitempty"`
}

// routePage classifies a page to a loaded repository via the router —
// the path taken when a request names no repository. Outcomes feed the
// router metrics: hit (routed), unrouted (below threshold), miss (no
// routable signatures, or a stale signature for an unloaded repo). ctx
// carries the request trace ID into induction captures.
func (s *Server) routePage(ctx context.Context, page *core.Page) (*RepoEntry, float64, error) {
	if s.Router == nil || s.Router.Len() == 0 {
		s.Metrics.Router(RouterMiss)
		return nil, 0, errf(http.StatusBadRequest,
			"repo parameter required (no routable repositories loaded)")
	}
	route, ok := s.Router.RouteLazy(page.URI,
		func() cluster.Features { return streamx.FingerprintPage(page) })
	if !ok {
		s.Metrics.Router(RouterUnrouted)
		// The page itself is the raw material for wrapper induction:
		// retain it (bounded by the buffer's byte cap) instead of
		// dropping it after counting the miss. The capture remembers the
		// request's trace ID so a job induced over this traffic can name
		// the request that fed it.
		if s.Induct != nil {
			s.Induct.CaptureTraced(page, obs.Trace(ctx))
		}
		msg := fmt.Sprintf("unrouted: page %q matched no repository signature", page.URI)
		if route.Name != "" {
			msg = fmt.Sprintf("unrouted: page %q best match %q at %.2f is below the routing threshold",
				page.URI, route.Name, route.Score)
		}
		return nil, route.Score, &httpError{
			status: http.StatusUnprocessableEntity, msg: msg, cause: pipeline.ErrUnrouted,
		}
	}
	e, loaded := s.Registry.Get(route.Name)
	if !loaded {
		s.Metrics.Router(RouterMiss)
		return nil, 0, errf(http.StatusNotFound,
			"routed to repository %q which is not loaded", route.Name)
	}
	s.Metrics.Router(RouterHit)
	return e, route.Score, nil
}

// routerLearnCap is where online route learning stops: once a signature
// has absorbed this many pages it has converged, and the per-request
// fingerprint walk + router write-lock would be pure hot-path overhead.
const routerLearnCap = 200

// learnRoute folds one cleanly extracted, explicitly targeted page into
// the repository's routing signature (when RouterLearn is on) — only on
// the single-page endpoints, and only until the signature has absorbed
// routerLearnCap pages. Pages with detected failures are withheld —
// drifted evidence would teach the router the wrong shape.
func (s *Server) learnRoute(r *http.Request, name string, page *core.Page, fails []extract.Failure) {
	if !s.RouterLearn || len(fails) > 0 || r.URL.Query().Get("repo") == "" {
		return
	}
	if s.Router.SignaturePages(name) >= routerLearnCap {
		return
	}
	s.Router.Observe(name, streamx.FingerprintPage(page))
}

// pipelineAdmissionWait bounds how long a pipeline page (/ingest,
// /extract/batch, recrawls) waits for a pool slot: the admission wait,
// capped by RequestTimeout when one is set — also when the admission
// wait is negative (unbounded). /ingest runs outside the request
// deadline, so this value is what keeps a wedged pool from stalling its
// pages forever; past it a page fails as shed. Once admitted, a page
// runs to completion: extraction reads no context.
func (s *Server) pipelineAdmissionWait() time.Duration {
	wait := s.admissionWait()
	if s.RequestTimeout > 0 && (wait < 0 || wait > s.RequestTimeout) {
		return s.RequestTimeout
	}
	return wait
}

// extractEntry is the extraction step of every endpoint: it resolves
// the classified repository, runs the extraction on the calling
// goroutine once the pool admits it (waiting at most maxWait, see
// Pool.DoWait), and records latency and failure metrics, per-version
// stats and the drift monitor observation — and, when AutoRepair is on
// and this page tripped the repository's drift alarm, kicks the
// background repair.
func (s *Server) extractEntry(ctx context.Context, repo string, page *core.Page, maxWait time.Duration) (e *RepoEntry, el *extract.Element, values map[string][]string, fails []extract.Failure, err error) {
	e, ok := s.Registry.Get(repo)
	if !ok {
		return nil, nil, nil, nil, errf(http.StatusNotFound, "repository %q not loaded", repo)
	}
	var sinfo extract.StreamInfo
	start := time.Now()
	err = s.Pool.DoWait(ctx, maxWait, func() {
		el, values, fails, sinfo = e.Proc.ExtractPageValuesInfo(page)
	})
	if err != nil {
		if errors.Is(err, ErrSaturated) {
			// Load shedding: the pool stayed saturated for the full
			// admission wait. Fail fast with a come-back hint rather than
			// queueing unboundedly — the requests already inside keep
			// draining.
			s.Metrics.Shed()
			return nil, nil, nil, nil, &httpError{
				status:     http.StatusServiceUnavailable,
				msg:        "extraction not scheduled: " + err.Error(),
				retryAfter: time.Second,
			}
		}
		var pe *resilient.PanicError
		if errors.As(err, &pe) {
			// The rule panicked inside the pool; the pool recovered it and
			// stays healthy — only this page fails.
			return nil, nil, nil, nil, errf(http.StatusInternalServerError,
				"extraction failed: %v", pe)
		}
		return nil, nil, nil, nil, errf(http.StatusServiceUnavailable, "extraction not scheduled: %v", err)
	}
	s.Metrics.Extraction(time.Since(start), fails)
	s.Metrics.StreamExtract(sinfo.Hit, sinfo.Reason)
	e.Stats.Record(len(fails))
	mon := s.monitor(e.Name)
	_, justTripped := mon.Observe(page, values, fails)
	if justTripped {
		s.Metrics.Lifecycle("drift.alarm")
		s.logger().LogAttrs(ctx, slog.LevelWarn, "drift.alarm",
			slog.String("repo", e.Name), slog.Int("version", e.Version),
			slog.String("uri", page.URI))
		// A tripped alarm is the scheduler's cue to stop waiting: the
		// repo's recrawl interval snaps back to the minimum and the
		// schedule becomes due immediately.
		if s.Scheduler != nil {
			s.Scheduler.Alarm(e.Name)
		}
	}
	// While the alarm stays tripped the monitor paces retry attempts, so
	// a repair that sampled too early (buffer still dominated by
	// pre-drift pages) gets another shot as evolved pages accumulate.
	if s.AutoRepair && mon.NeedsRepair() {
		go s.safeAutoRepair(e.Name)
	}
	return e, el, values, fails, nil
}

// syntheticURI names a page that arrived without a URI by its content
// address, so the drift monitor's URI-keyed sample buffer keeps distinct
// pages distinct (and re-posts of the same page land on the same sample)
// instead of collapsing every anonymous request into one entry whose
// golden values would mix unrelated pages. These URIs are journaled as
// induction capture keys, so the format is stable.
func syntheticURI(key PageKey) string {
	return fmt.Sprintf("request:%x", key[:8])
}

// pageFor assembles the page for one body — an /extract request, or a
// batch or ingest line (it is the pipeline's PageParser) — drawing the
// parsed document from the page cache when an identical body was seen
// before. The URI stays per-request — only the parse is shared — and an
// empty URI is derived from the body hash (syntheticURI). The body is
// hashed in place, not copied.
func (s *Server) pageFor(uri, html string) *core.Page {
	if s.PageCache == nil {
		if uri == "" {
			uri = syntheticURI(pageKeyOfString(html))
		}
		return core.NewPageLazy(uri, html)
	}
	key := pageKeyOfString(html)
	if uri == "" {
		uri = syntheticURI(key)
	}
	if doc, ok := s.PageCache.Get(key); ok {
		s.Metrics.PageCache(true)
		return &core.Page{URI: uri, Doc: doc}
	}
	s.Metrics.PageCache(false)
	// Lazy page: the streaming extractor usually never parses it, so the
	// cache only admits trees that some consumer genuinely built (general
	// XPath fallback, induction capture, rendering). Compiled rule
	// *programs* are cached per repository version instead.
	page := core.NewPageLazy(uri, html)
	page.SetOnParse(func(doc *dom.Node) { s.PageCache.Put(key, doc, int64(len(html))) })
	return page
}

func failureStrings(fails []extract.Failure) []string {
	out := make([]string, 0, len(fails))
	for _, f := range fails {
		out = append(out, f.String())
	}
	return out
}

// recordResult is the extractResult envelope of one extracted page, as
// /extract, /extract/url and /extract/batch render it. The record is the
// element's AppendJSON rendering — the encoder /ingest lines use — so
// every endpoint ships the same record bytes.
func recordResult(uri, repo string, gen int, el *extract.Element, fails []extract.Failure) extractResult {
	// Render into stack scratch, then copy out once: one exact-size
	// allocation per record.
	var scratch [1024]byte
	return extractResult{
		URI:        uri,
		Repo:       repo,
		Generation: gen,
		Record:     json.RawMessage(bytes.Clone(el.AppendJSON(scratch[:0]))),
		Failures:   failureStrings(fails),
	}
}

// serveOne is the single-page path of /extract and /extract/url: classify
// the page, extract it, and render the result as JSON (default) or the
// paper's XML.
func (s *Server) serveOne(w http.ResponseWriter, r *http.Request, classify pipeline.Classifier, page *core.Page) error {
	repo, _, err := classify.Classify(page)
	if err != nil {
		return err
	}
	e, el, _, fails, err := s.extractEntry(r.Context(), repo, page, s.admissionWait())
	if err != nil {
		return err
	}
	s.learnRoute(r, e.Name, page, fails)
	if r.URL.Query().Get("format") == "xml" {
		w.Header().Set("Content-Type", "application/xml")
		return el.WriteXML(w)
	}
	writeJSON(w, http.StatusOK, recordResult(page.URI, e.Name, e.Generation, el, fails))
	return nil
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.endpoint("extract", w, r, func() error {
		body, err := s.readBody(r)
		if err != nil {
			return err
		}
		if len(bytes.TrimSpace(body)) == 0 {
			return errf(http.StatusBadRequest, "empty HTML body")
		}
		page := s.pageFor(r.URL.Query().Get("uri"), string(body))
		classify, err := s.requestClassifier(r)
		if err != nil {
			return err
		}
		return s.serveOne(w, r, classify, page)
	})
}

// extractor adapts the server to the pipeline's Extract stage: per-page
// repository resolution (routed pages may target different repositories
// within one run), pool admission bounded by pipelineAdmissionWait,
// metrics, drift observation.
type extractor struct{ s *Server }

// Extract implements pipeline.Extractor.
func (x extractor) Extract(ctx context.Context, repo string, page *core.Page) (*extract.Element, map[string][]string, []extract.Failure, error) {
	_, el, values, fails, err := x.s.extractEntry(ctx, repo, page, x.s.pipelineAdmissionWait())
	return el, values, fails, err
}

// requestClassifier returns the Classify stage of a request — the one
// place that chooses between an explicit ?repo= (validated against the
// registry, so an unknown name fails before any page work) and the
// signature router. Every extraction endpoint classifies through it.
func (s *Server) requestClassifier(r *http.Request) (pipeline.Classifier, error) {
	if name := r.URL.Query().Get("repo"); name != "" {
		if _, ok := s.Registry.Get(name); !ok {
			return nil, errf(http.StatusNotFound, "repository %q not loaded", name)
		}
		return pipeline.FixedRepo(name), nil
	}
	// The closure holds the request context so unrouted captures made on
	// pipeline workers still carry this request's trace ID.
	ctx := r.Context()
	return pipeline.ClassifierFunc(func(p *core.Page) (string, float64, error) {
		e, score, err := s.routePage(ctx, p)
		if err != nil {
			return "", score, err
		}
		return e.Name, score, nil
	}), nil
}

// batchResult renders one pipeline item in the /extract/batch wire
// shape: per-line errors for undecodable lines, the extractResult
// envelope with the serving generation otherwise.
func (s *Server) batchResult(it *pipeline.Item) any {
	var pe *pipeline.PageError
	switch {
	case errorsAs(it.Err, &pe) && pe.Line > 0:
		return map[string]string{"error": pe.Error()}
	case it.Err != nil:
		return map[string]string{"uri": it.Page.URI, "error": it.Err.Error()}
	}
	gen := 0
	if e, ok := s.Registry.Get(it.Repo); ok {
		gen = e.Generation
	}
	return recordResult(it.Page.URI, it.Repo, gen, it.Element, it.Failures)
}

func (s *Server) handleExtractURL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.endpoint("extract.url", w, r, func() error {
		if s.Fetcher == nil {
			return errf(http.StatusNotImplemented, "URL fetching disabled")
		}
		// An explicit repo name is validated before the outbound fetch;
		// with none given the page is fetched first, then routed.
		classify, err := s.requestClassifier(r)
		if err != nil {
			return err
		}
		target := r.URL.Query().Get("url")
		if target == "" {
			return errf(http.StatusBadRequest, "url parameter required")
		}
		if err := s.checkFetchTarget(target); err != nil {
			return err
		}
		page, err := s.Fetcher.FetchPageContext(r.Context(), target)
		if err != nil {
			return errf(http.StatusBadGateway, "%v", err)
		}
		return s.serveOne(w, r, classify, page)
	})
}

// checkFetchTarget enforces the AllowedHosts allowlist on /extract/url
// targets.
func (s *Server) checkFetchTarget(target string) error {
	if len(s.AllowedHosts) == 0 {
		return nil
	}
	u, err := url.Parse(target)
	if err != nil {
		return errf(http.StatusBadRequest, "bad url: %v", err)
	}
	for _, h := range s.AllowedHosts {
		if u.Host == h {
			return nil
		}
	}
	return errf(http.StatusForbidden, "host %q not in fetch allowlist", u.Host)
}

// ---------------------------------------------------------------------------
// Introspection.

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.endpoint("healthz", w, r, func() error {
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ok",
			"repos":  s.Registry.Len(),
		})
		return nil
	})
}

// wantsProm reports whether the Accept header asks for the Prometheus
// text exposition. A scraper sends text/plain (or openmetrics-text,
// which the 0.0.4 text format satisfies for the metrics we emit); JSON
// stays the default for untyped clients, */*, and application/json.
func wantsProm(accept string) bool {
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Reading metrics is not itself counted as traffic.
	snap := s.MetricsSnapshot()
	if wantsProm(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.PromContentType)
		// A scrape write error means the scraper hung up; there is no
		// useful recovery beyond abandoning the response.
		_ = WriteProm(w, snap)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}
