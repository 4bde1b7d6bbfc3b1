// Command extractd is the online half of the paper's pipeline as a
// long-running service: it holds a hot-loadable registry of rule
// repositories (built offline with retrozilla) and serves concurrent
// extraction traffic under a bounded extraction concurrency.
//
// Usage:
//
//	extractd -addr :8090 -rules movies=rules.json -rules books.xml
//
// then:
//
//	curl -X POST --data-binary @page.html 'http://localhost:8090/extract?repo=movies'
//	curl -X POST 'http://localhost:8090/extract/url?repo=movies&url=http://site/tt0074103.html'
//	curl -X POST --data-binary @rules.json 'http://localhost:8090/repos?name=movies'   # hot reload
//	curl 'http://localhost:8090/repos/movies/health'                                   # drift monitor
//	curl -X POST 'http://localhost:8090/repos/movies/repair'                           # rebuild broken rules
//	curl -X POST 'http://localhost:8090/repos/movies/rollback'                         # previous version
//	curl 'http://localhost:8090/metrics'
//
// With -auto-repair the daemon runs the repair → stage → shadow-evaluate
// → promote sequence on its own when a repository's drift alarm trips.
//
// With -induct the daemon captures unrouted pages instead of dropping
// them, clusters them by signature, and runs background
// wrapper-induction jobs over stable clusters (POST /induce supplies
// operator examples; -induct-truth preloads a truth.json oracle).
// Staged results are listed under /jobs and activated with
// POST /jobs/{id}/promote — after which the new cluster routes and
// extracts like any preloaded repository.
//
// With -data-dir the daemon journals every state mutation (repository
// publishes, routing signatures, buffered pages, induction job
// transitions) to an append-only WAL and periodically compacts it into
// a snapshot, so a crash or restart resumes exactly where it left off:
// active versions serve, staged versions await promotion, queued jobs
// re-queue and interrupted jobs restart. -fsync picks the flush policy
// and -snapshot-every the compaction cadence (see README "Durability").
//
// -page-cache sizes the content-addressed LRU of parsed documents
// (repeated posts of identical HTML skip the parser; hit/miss counters in
// /metrics). -pprof PORT serves net/http/pprof on localhost only, for
// profiling the live daemon.
//
// Each -rules flag names a repository file (JSON from retrozilla, or the
// XML interchange form), optionally prefixed "name=" to register it under
// a name other than its cluster name.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux, served only by the -pprof listener
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/induct"
	"repro/internal/lifecycle"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/resilient"
	"repro/internal/rule"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/webfetch"
)

type rulesFlags []string

func (r *rulesFlags) String() string     { return strings.Join(*r, ",") }
func (r *rulesFlags) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	var rules rulesFlags
	addr := flag.String("addr", ":8090", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "extraction worker count")
	queue := flag.Int("queue", 0, "task queue depth (default 4x workers)")
	noFetch := flag.Bool("no-fetch", false, "disable /extract/url outbound fetching")
	fetchHosts := flag.String("fetch-hosts", "",
		"comma-separated host allowlist for /extract/url (empty allows any host)")
	autoRepair := flag.Bool("auto-repair", false,
		"repair and promote a repository automatically when its drift alarm trips")
	driftWindow := flag.Int("drift-window", 0,
		"drift-detection sliding window size in pages (default 50)")
	driftRatio := flag.Float64("drift-ratio", 0,
		"failing-page ratio that trips the drift alarm (default 0.3)")
	pageCache := flag.Int("page-cache", service.DefaultPageCacheSize,
		"parsed-page LRU cache size in documents (0 disables)")
	pprofPort := flag.Int("pprof", 0,
		"serve net/http/pprof on localhost:PORT for live profiling (0 disables)")
	routerLearn := flag.Bool("router-learn", true,
		"grow routing signatures from cleanly extracted explicit-repo traffic")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second,
		"graceful-shutdown budget for in-flight requests on SIGINT/SIGTERM")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second,
		"per-request deadline (streaming /ingest is bounded per page instead; 0 disables)")
	admissionWait := flag.Duration("admission-wait", 2*time.Second,
		"how long a request may wait for a pool slot before a 503 + Retry-After (negative waits forever)")
	inductOn := flag.Bool("induct", false,
		"buffer unrouted pages and run background wrapper-induction jobs over them")
	inductMinPages := flag.Int("induct-min-pages", 0,
		"pages an unrouted bucket needs before it can become an induction job (default 8)")
	inductWorkers := flag.Int("induct-workers", 0,
		"induction job worker count (default 1)")
	inductTruth := flag.String("induct-truth", "",
		"truth.json file feeding the induction oracle (besides POST /induce examples and lifecycle golden values)")
	logFormat := flag.String("log-format", "text",
		"structured log encoding: text or json")
	logLevel := flag.String("log-level", "info",
		"minimum log level: debug, info, warn or error")
	dataDir := flag.String("data-dir", "",
		"durability directory (WAL + snapshots); empty runs memory-only and loses all state on exit")
	fsyncPolicy := flag.String("fsync", store.FsyncInterval,
		"WAL fsync policy: always (group-commit per append), interval (background flush) or never")
	snapshotEvery := flag.Duration("snapshot-every", 5*time.Minute,
		"interval between background WAL compactions into a snapshot (0 disables; boot and shutdown always compact)")
	monitorOn := flag.Bool("monitor", false,
		"enable the drift-adaptive recrawl scheduler (/schedules, /changes); requires outbound fetching")
	recrawlMin := flag.Duration("recrawl-min", time.Minute,
		"recrawl interval floor: alarmed/drifting schedules snap back to this")
	recrawlMax := flag.Duration("recrawl-max", 7*24*time.Hour,
		"recrawl interval ceiling: stable schedules decay toward this")
	recrawlBudget := flag.Int("recrawl-budget", 2,
		"max concurrent scheduled recrawls")
	flag.Var(&rules, "rules", "repository file to preload ([name=]path.json|path.xml); repeatable")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "extractd:", err)
		os.Exit(2)
	}

	if *pprofPort > 0 {
		// Localhost-only on purpose: the profiler exposes heap contents and
		// must never ride the public listen address.
		pprofAddr := fmt.Sprintf("127.0.0.1:%d", *pprofPort)
		go func() {
			logger.Info("pprof.listening", "url", "http://"+pprofAddr+"/debug/pprof/")
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				logger.Error("pprof.failed", "error", err.Error())
			}
		}()
	}

	lc := lifecycle.Config{WindowSize: *driftWindow, TripRatio: *driftRatio, Logger: logger}

	// SIGINT/SIGTERM start a graceful shutdown: stop accepting, let
	// in-flight requests finish (bounded by -drain-timeout), wait for
	// admitted extractions, then exit. A second signal kills the process the
	// usual way (the NotifyContext restores default handling once fired).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := options{
		addr: *addr, workers: *workers, queue: *queue,
		noFetch: *noFetch, autoRepair: *autoRepair, routerLearn: *routerLearn,
		fetchHosts: *fetchHosts, pageCache: *pageCache, drainTimeout: *drainTimeout,
		requestTimeout: *requestTimeout, admissionWait: *admissionWait,
		lifecycle: lc, rules: rules,
		induct: *inductOn, inductMinPages: *inductMinPages,
		inductWorkers: *inductWorkers, inductTruth: *inductTruth,
		dataDir: *dataDir, fsync: *fsyncPolicy, snapshotEvery: *snapshotEvery,
		monitor: *monitorOn, recrawlMin: *recrawlMin, recrawlMax: *recrawlMax,
		recrawlBudget: *recrawlBudget,
		log:           logger,
	}
	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "extractd:", err)
		os.Exit(1)
	}
}

// options carries the parsed daemon configuration into run.
type options struct {
	addr           string
	workers, queue int
	noFetch        bool
	autoRepair     bool
	routerLearn    bool
	fetchHosts     string
	pageCache      int
	drainTimeout   time.Duration
	requestTimeout time.Duration
	admissionWait  time.Duration
	lifecycle      lifecycle.Config
	rules          []string
	induct         bool
	inductMinPages int
	inductWorkers  int
	inductTruth    string
	dataDir        string
	fsync          string
	snapshotEvery  time.Duration
	monitor        bool
	recrawlMin     time.Duration
	recrawlMax     time.Duration
	recrawlBudget  int
	log            *slog.Logger
}

func run(ctx context.Context, opts options) error {
	workers, queue := opts.workers, opts.queue
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = 4 * workers
	}
	var fetcher *webfetch.Fetcher
	if !opts.noFetch {
		// Outbound resilience: transient failures retry with backoff, and
		// per-host circuit breakers stop hammering dead origins.
		fetcher = &webfetch.Fetcher{Retry: &resilient.Retrier{}}
	}
	srv := service.NewServer(workers, queue, fetcher)
	srv.Log = opts.log
	srv.RequestTimeout = opts.requestTimeout
	srv.AdmissionWait = opts.admissionWait
	srv.AutoRepair = opts.autoRepair
	srv.RouterLearn = opts.routerLearn
	srv.Lifecycle = opts.lifecycle
	srv.PageCache = service.NewPageCache(opts.pageCache)
	if opts.fetchHosts != "" {
		for _, h := range strings.Split(opts.fetchHosts, ",") {
			if h = strings.TrimSpace(h); h != "" {
				srv.AllowedHosts = append(srv.AllowedHosts, h)
			}
		}
	}
	if opts.induct {
		eng := srv.EnableInduction(induct.Config{
			MinPages: opts.inductMinPages,
			Workers:  opts.inductWorkers,
		})
		defer eng.Close()
		if opts.inductTruth != "" {
			truth, err := induct.LoadTruth(opts.inductTruth)
			if err != nil {
				return err
			}
			eng.AddTruth(truth)
			opts.log.Info("induct.truth.loaded",
				"pages", truth.Len(), "file", opts.inductTruth)
		}
	} else if opts.inductTruth != "" {
		return fmt.Errorf("-induct-truth requires -induct")
	}

	// The scheduler must exist before AttachStore so restored schedule
	// state and change-feed events have somewhere to land; its cadence
	// loop starts only after restore + preload, just before serving.
	var sched *monitor.Scheduler
	if opts.monitor {
		if opts.noFetch {
			return fmt.Errorf("-monitor requires outbound fetching (drop -no-fetch)")
		}
		sched = srv.EnableMonitor(monitor.Config{
			MinInterval: opts.recrawlMin,
			MaxInterval: opts.recrawlMax,
			Budget:      opts.recrawlBudget,
		})
	}

	// Durability: open the data directory (replaying any previous run's
	// snapshot + WAL tail) before the -rules preload, so restored state
	// is visible when deciding whether a preload would duplicate it.
	var st *store.Store
	if opts.dataDir != "" {
		var err error
		st, err = store.Open(store.Options{
			Dir: opts.dataDir, Fsync: opts.fsync, Logger: opts.log,
		})
		if err != nil {
			return err
		}
		if err := srv.AttachStore(st); err != nil {
			st.Close()
			return err
		}
		// Final compaction on the way out: the next boot restores from
		// one snapshot instead of replaying the whole session's WAL.
		defer func() {
			if err := srv.SaveSnapshot(); err != nil {
				opts.log.Warn("store.final-snapshot-failed", "error", err.Error())
			}
			if err := st.Close(); err != nil {
				opts.log.Warn("store.close-failed", "error", err.Error())
			}
		}()
		if opts.snapshotEvery > 0 {
			go snapshotLoop(ctx, srv, opts.snapshotEvery, opts.log)
		}
	}

	for _, spec := range opts.rules {
		name, path := "", spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, path = spec[:i], spec[i+1:]
		}
		var repo *rule.Repository
		var err error
		if strings.HasSuffix(path, ".xml") {
			repo, err = rule.LoadXML(path)
		} else {
			repo, err = rule.Load(path)
		}
		if err != nil {
			return err
		}
		// A restart over a data directory already replayed this
		// repository; re-loading the unchanged file would mint a
		// duplicate version every boot. Changed files load normally
		// (new version, immediately active — the usual hot reload).
		if st != nil {
			resolved := name
			if resolved == "" {
				resolved = repo.Cluster
			}
			if e, ok := srv.Registry.Get(resolved); ok && sameRepoJSON(e.Repo, repo) {
				opts.log.Info("registry.preload.unchanged",
					"repo", resolved, "version", e.Version, "file", path)
				continue
			}
		}
		// The registry load event itself is logged by the server.
		if _, err := srv.LoadRepo(name, repo); err != nil {
			return err
		}
	}

	if sched != nil {
		go func() {
			if err := sched.Run(ctx); err != nil && ctx.Err() == nil {
				opts.log.Warn("monitor.run.stopped", "error", err.Error())
			}
		}()
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		srv.Close()
		return err
	}
	opts.log.Info("extractd.listening",
		"addr", ln.Addr().String(), "workers", workers, "queue", queue,
		"repos", srv.Registry.Len(), "routable", srv.Router.Len(),
		"induction", opts.induct, "monitor", opts.monitor, "durable", st != nil)
	return serve(ctx, ln, srv, opts.drainTimeout, opts.log)
}

// sameRepoJSON reports whether two repositories marshal identically —
// the preload skip test for restarts over a data directory.
func sameRepoJSON(a, b *rule.Repository) bool {
	aj, err := json.Marshal(a)
	if err != nil {
		return false
	}
	bj, err := json.Marshal(b)
	if err != nil {
		return false
	}
	return bytes.Equal(aj, bj)
}

// snapshotLoop compacts the WAL into a snapshot on a fixed cadence
// until the daemon begins shutting down (the final compaction happens
// on the shutdown path itself).
func snapshotLoop(ctx context.Context, srv *service.Server, every time.Duration, log *slog.Logger) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := srv.SaveSnapshot(); err != nil {
				log.Warn("store.snapshot-failed", "error", err.Error())
			}
		}
	}
}

// newHTTPServer wraps the handler in a listener configuration hardened
// against slow clients (slowloris): a client must deliver its headers
// within ReadHeaderTimeout and the whole exchange within
// ReadTimeout/WriteTimeout, or the connection is dropped. The streaming
// /ingest route clears its connection deadlines itself (per-connection
// ResponseController carve-out in the handler) — a site migration
// legitimately runs for hours while these limits protect every other
// route.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

// serve runs the HTTP server until ctx is cancelled (signal) or the
// listener fails, then shuts down gracefully: new connections are
// refused, in-flight requests get drainTimeout to finish, and every
// admitted extraction completes before the function returns.
func serve(ctx context.Context, ln net.Listener, srv *service.Server, drainTimeout time.Duration, log *slog.Logger) error {
	httpSrv := newHTTPServer(srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	var err error
	select {
	case err = <-errCh:
		// Listener failure: nothing graceful left to do.
		httpSrv.Close()
	case <-ctx.Done():
		log.Info("extractd.shutdown", "reason", "signal", "drainTimeout", drainTimeout.String())
		shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		if serr := httpSrv.Shutdown(shutCtx); serr != nil {
			log.Warn("extractd.forced-close", "error", serr.Error())
			httpSrv.Close()
		}
		cancel()
	}
	// Drain queued extractions so no accepted work is abandoned.
	srv.Close()
	if err != nil && err != http.ErrServerClosed {
		return err
	}
	log.Info("extractd.exited")
	return nil
}
