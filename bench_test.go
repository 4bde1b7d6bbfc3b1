// Benchmark harness: one benchmark per paper artifact (tables, figures,
// claim studies — see DESIGN.md §4) plus micro-benchmarks for the
// substrates and ablation benches for the design choices DESIGN.md §5
// calls out. Shape assertions run inside the benchmarks so a regression
// in an experiment's qualitative outcome fails the bench run, not just
// changes a number.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/experiments"
	"repro/internal/extract"
	"repro/internal/pipeline"
	"repro/internal/rule"
	"repro/internal/service"
	"repro/internal/textutil"
	"repro/internal/xpath"
)

// ---------------------------------------------------------------------------
// Paper artifacts (one bench per table/figure).

// BenchmarkPipelineEndToEnd regenerates Figure 1: cluster a mixed site,
// induce rules per cluster, extract XML.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigureOnePipeline()
		if r.Metrics["pureClusters"] < r.Metrics["clusters"] {
			b.Fatalf("impure clusters: %v", r.Metrics)
		}
		if r.Metrics["componentsOK"] < r.Metrics["componentsTotal"] {
			b.Fatalf("non-converged components: %v", r.Metrics)
		}
	}
}

// BenchmarkCandidateRuleCheck regenerates Table 1 and asserts the exact
// verdict pattern (2 hits, 1 unexpected, 1 void).
func BenchmarkCandidateRuleCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableOneCandidateCheck()
		if r.Metrics["match"] != 2 || r.Metrics["unexpected"] != 1 || r.Metrics["void"] != 1 {
			b.Fatalf("Table 1 pattern broken: %v", r.Metrics)
		}
	}
}

// BenchmarkXPathTable2 regenerates Table 2 and asserts each shape's
// selection count (a,b,e: 1 node; c: 1 row; d: 3 rows; f: void).
func BenchmarkXPathTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableTwoXPathShapes()
		want := map[string]float64{
			"count_a": 1, "count_b": 1, "count_c": 1,
			"count_d": 3, "count_e": 1, "count_f": 0,
		}
		for k, v := range want {
			if r.Metrics[k] != v {
				b.Fatalf("Table 2 row %s: got %v, want %v", k, r.Metrics[k], v)
			}
		}
	}
}

// BenchmarkRuleRefinement regenerates Table 3 and asserts all four pages
// match after contextual refinement.
func BenchmarkRuleRefinement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableThreeRefined()
		if r.Metrics["matches"] != r.Metrics["pages"] || r.Metrics["converged"] != 1 {
			b.Fatalf("Table 3 refinement broken: %v", r.Metrics)
		}
	}
}

// BenchmarkBuildScenario regenerates Figure 3 (the full build scenario
// over all components) and asserts convergence.
func BenchmarkBuildScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigureThreeScenario()
		if r.Metrics["converged"] != r.Metrics["total"] {
			b.Fatalf("Figure 3 scenario: %v", r.Metrics)
		}
	}
}

// BenchmarkXMLExtraction regenerates Figure 5 and asserts the three-level
// structure (4 page elements, no failures).
func BenchmarkXMLExtraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FigureFiveXML()
		if r.Metrics["pages"] != 4 || r.Metrics["failures"] != 0 {
			b.Fatalf("Figure 5 broken: %v", r.Metrics)
		}
	}
}

// BenchmarkSchemaGeneration regenerates the §4 schema + enhanced
// structure and asserts conformance.
func BenchmarkSchemaGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.SchemaGeneration()
		if r.Metrics["violations"] != 0 {
			b.Fatalf("schema conformance: %v", r.Metrics)
		}
	}
}

// BenchmarkConvergence regenerates E-CONV and asserts the shape: steep
// rise, ≥0.9 by k=5, ≥0.95 by k=10, and the no-context ablation at k=10
// below the full stack.
func BenchmarkConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Convergence()
		if r.Metrics["f1_k5"] < 0.85 || r.Metrics["f1_k10"] < 0.95 {
			b.Fatalf("convergence shape broken: %v", r.Metrics)
		}
		if r.Metrics["f1_k10_noctx"] > r.Metrics["f1_k10"] {
			b.Fatalf("ablation should not beat full stack: %v", r.Metrics)
		}
	}
}

// BenchmarkBaselineComparison regenerates E-BASE and asserts the §6
// positioning: semi-automated precision ≈ 1 and far above the automatic
// baseline, which emits a larger volume.
func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.BaselineComparison()
		for _, cl := range []string{"movies", "books", "stocks"} {
			if r.Metrics[cl+"_semiP"] < 0.99 {
				b.Fatalf("%s semi precision: %v", cl, r.Metrics)
			}
			if r.Metrics[cl+"_autoP"] > r.Metrics[cl+"_semiP"]-0.2 {
				b.Fatalf("%s automatic precision unexpectedly close: %v", cl, r.Metrics)
			}
			if r.Metrics[cl+"_autoVol"] <= r.Metrics[cl+"_semiVol"] {
				b.Fatalf("%s automatic volume should exceed targeted volume: %v", cl, r.Metrics)
			}
		}
	}
}

// BenchmarkNestingDepth regenerates E-NEST and asserts the §7 claim:
// positional-only rules are weaker on flat layouts than on fine-grained
// ones.
func BenchmarkNestingDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NestingDepth()
		if r.Metrics["flat_pos"] >= r.Metrics["fine0_pos"] {
			b.Fatalf("nesting claim broken: %v", r.Metrics)
		}
		if r.Metrics["flat_full"] < 0.95 {
			b.Fatalf("full stack should stay strong on flat: %v", r.Metrics)
		}
	}
}

// BenchmarkFailureDetection regenerates E-FAIL and asserts that label
// removals and relabelings are detected reliably.
func BenchmarkFailureDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.FailureDetection()
		if r.Metrics["remove-mandatory_rating"] < 0.9 {
			b.Fatalf("removal detection: %v", r.Metrics)
		}
		if r.Metrics["relabel_runtime"] < 0.9 {
			b.Fatalf("relabel detection: %v", r.Metrics)
		}
		if r.Metrics["duplicate-value_runtime"] < 0.9 {
			b.Fatalf("duplicate detection: %v", r.Metrics)
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.

var benchHTML = func() string {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(1, 1))
	return dom.Render(cl.Pages[0].Doc)
}()

func BenchmarkHTMLParse(b *testing.B) {
	b.SetBytes(int64(len(benchHTML)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc := dom.Parse(benchHTML)
		if doc == nil {
			b.Fatal("nil doc")
		}
	}
}

func BenchmarkHTMLRender(b *testing.B) {
	doc := dom.Parse(benchHTML)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if dom.Render(doc) == "" {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkXPathCompile(b *testing.B) {
	const expr = `BODY//TR[6]/TD[1]/text()[preceding::text()[1][contains(., "Runtime:")]]`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := xpath.Compile(expr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXPathEvalPositional(b *testing.B) {
	doc := dom.Parse(benchHTML)
	c := xpath.MustCompile("BODY//TABLE[1]/TR[6]/TD[1]/text()[1]")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.SelectLocation(doc)
	}
}

func BenchmarkXPathEvalContextual(b *testing.B) {
	doc := dom.Parse(benchHTML)
	c := xpath.MustCompile(`BODY//text()[preceding::text()[1][contains(., "Runtime:")]]`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.SelectLocation(doc)
	}
}

// BenchmarkCompareDocumentOrder measures the document-order comparison the
// evaluator leans on when sorting and deduplicating node-sets — an O(1)
// stamp compare on parsed trees since PR 3.
func BenchmarkCompareDocumentOrder(b *testing.B) {
	doc := dom.Parse(benchHTML)
	var nodes []*dom.Node
	dom.Walk(doc, func(n *dom.Node) bool {
		nodes = append(nodes, n)
		return true
	})
	if len(nodes) < 2 {
		b.Fatal("tiny tree")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := nodes[i%len(nodes)]
		y := nodes[(i*7+3)%len(nodes)]
		dom.CompareDocumentOrder(x, y)
	}
}

// BenchmarkSelectLocationFastPath measures the zero-allocation compiled
// child-path walker on the canonical positional location of a real corpus
// node (BODY[..]/…/text()[k]).
func BenchmarkSelectLocationFastPath(b *testing.B) {
	doc := dom.Parse(benchHTML)
	target := dom.FindFirst(dom.Body(doc), func(n *dom.Node) bool {
		return n.Type == dom.TextNode && n.Parent.TagIs("TD")
	})
	if target == nil {
		b.Fatal("no table text node in bench page")
	}
	path, ok := core.PathTo(target)
	if !ok {
		b.Fatal("no positional path to target")
	}
	c := xpath.MustCompile(path.String())
	if !c.IsFastPath() {
		b.Fatalf("%s did not compile to the fast path", path)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.SelectLocationFirst(doc) != target {
			b.Fatal("fast path missed the target")
		}
	}
}

// BenchmarkExtractdPageCache measures the service's content-addressed
// page cache on its hit path (hash + LRU probe) against the dom.Parse it
// saves — the per-request cost of re-posting an already-seen body.
func BenchmarkExtractdPageCache(b *testing.B) {
	cache := service.NewPageCache(64)
	body := []byte(benchHTML)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := service.PageKeyOf(body)
		doc, ok := cache.Get(key)
		if !ok {
			doc = dom.Parse(string(body))
			cache.Put(key, doc, int64(len(body)))
		}
		if doc == nil {
			b.Fatal("nil document")
		}
	}
}

func BenchmarkInduceRule(b *testing.B) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(9, 30))
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := builder.BuildRule("runtime")
		if err != nil || !res.OK {
			b.Fatalf("induction failed: %v %v", err, res.Actions)
		}
	}
}

func BenchmarkExtractPage(b *testing.B) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(9, 30))
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
		b.Fatal(err)
	}
	proc, err := extract.NewProcessor(repo)
	if err != nil {
		b.Fatal(err)
	}
	page := cl.Pages[len(cl.Pages)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el, _ := proc.ExtractPage(page)
		if len(el.Children) == 0 {
			b.Fatal("empty extraction")
		}
	}
}

// BenchmarkIngestHandler measures the daemon's whole-site ingestion path
// in process: one POST /ingest through Server.Handler() carrying b.N
// json.Marshal-escaped movies+books NDJSON lines — envelope decode, page
// cache, URL-pattern routing, admission gate, streaming extraction, drift
// observation, result encoding and a flush per line, configured as
// extractd runs by default. One op is one page, so allocs/op and B/op
// are per page; reports pages/sec.
func BenchmarkIngestHandler(b *testing.B) {
	srv := service.NewServer(0, 0, nil)
	srv.RequestTimeout = 30 * time.Second
	srv.RouterLearn = true
	defer srv.Close()
	var lines [][]byte
	for _, cl := range []*corpus.Cluster{
		corpus.GenerateMovies(corpus.DefaultMovieProfile(9, 20)),
		corpus.GenerateBooks(corpus.DefaultBookProfile(10, 20)),
	} {
		sample, _ := cl.RepresentativeSplit(10)
		builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
		repo := rule.NewRepository(cl.Name)
		if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
			b.Fatal(err)
		}
		var infos []cluster.PageInfo
		for _, p := range cl.Pages {
			infos = append(infos, cluster.PageInfo{URI: p.URI, Doc: p.Doc})
			line, err := json.Marshal(pipeline.PageLine{URI: p.URI, HTML: dom.Render(p.Doc)})
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, append(line, '\n'))
		}
		repo.Signature = cluster.SignatureOf(infos)
		if _, err := srv.LoadRepo(cl.Name, repo); err != nil {
			b.Fatal(err)
		}
	}
	var body []byte
	for i := 0; i < b.N; i++ {
		body = append(body, lines[i%len(lines)]...)
	}
	h := srv.Handler()
	w := &ingestWriter{header: http.Header{}}
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	h.ServeHTTP(w, req)
	elapsed := time.Since(start).Seconds()
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "pages/sec")
	}
	var sum struct {
		Done      bool `json:"done"`
		Extracted int  `json:"extracted"`
	}
	if err := json.Unmarshal(w.last, &sum); err != nil || w.status != http.StatusOK ||
		w.lines != b.N+1 || !sum.Done || sum.Extracted != b.N {
		b.Fatalf("/ingest: status %d, %d lines for %d pages, summary %s", w.status, w.lines, b.N, w.last)
	}
}

// BenchmarkExtractHandler measures the daemon's single-page path in
// process: one POST /extract?uri=… per op through Server.Handler(),
// cycling movies bodies — body read, page cache, URL-pattern routing,
// admission gate, streaming extraction, drift observation and the
// indented JSON response, configured as extractd runs by default. One op
// is one request, so allocs/op and B/op are per request.
func BenchmarkExtractHandler(b *testing.B) {
	srv := service.NewServer(0, 0, nil)
	srv.RequestTimeout = 30 * time.Second
	srv.RouterLearn = true
	defer srv.Close()
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(9, 20))
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
		b.Fatal(err)
	}
	var infos []cluster.PageInfo
	type target struct {
		req  *http.Request
		body *rewindBody
		html []byte
	}
	var targets []target
	for _, p := range cl.Pages {
		infos = append(infos, cluster.PageInfo{URI: p.URI, Doc: p.Doc})
		body := &rewindBody{}
		req := httptest.NewRequest(http.MethodPost, "/extract?uri="+url.QueryEscape(p.URI), nil)
		req.Body = body
		targets = append(targets, target{req: req, body: body, html: []byte(dom.Render(p.Doc))})
	}
	repo.Signature = cluster.SignatureOf(infos)
	if _, err := srv.LoadRepo(cl.Name, repo); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	w := &ingestWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := targets[i%len(targets)]
		t.body.Reset(t.html)
		w.status = 0
		h.ServeHTTP(w, t.req)
		if w.status != http.StatusOK {
			b.Fatalf("/extract: status %d: %s", w.status, w.last)
		}
	}
	b.StopTimer()
	var res struct {
		Repo   string          `json:"repo"`
		Record json.RawMessage `json:"record"`
	}
	if err := json.Unmarshal(w.last, &res); err != nil || res.Repo != cl.Name || len(res.Record) == 0 {
		b.Fatalf("/extract: response %s", w.last)
	}
}

// rewindBody is a request body the benchmark refills before each
// request, so reusing one *http.Request costs no per-op allocation.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// ingestWriter is the benchmark's response sink: it keeps only the line
// count and the last write — the handler writes one whole line per write
// — so the response costs the handler nothing a connection would not.
type ingestWriter struct {
	header http.Header
	status int
	lines  int
	last   []byte
}

func (w *ingestWriter) Header() http.Header { return w.header }
func (w *ingestWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *ingestWriter) Flush() {}
func (w *ingestWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.lines += bytes.Count(p, []byte("\n"))
	w.last = append(w.last[:0], p...)
	return len(p), nil
}

// BenchmarkIngestSite measures whole-site ingestion throughput through
// the streaming pipeline: every page arrives as raw HTML (the way POST
// /ingest receives a site migration), is signature-routed off its token
// stream and extracted by the compiled rule automaton — no DOM is built
// on the hot path since PR 9. Reports pages/sec.
func BenchmarkIngestSite(b *testing.B) {
	clusters := []*corpus.Cluster{
		corpus.GenerateMovies(corpus.DefaultMovieProfile(9, 20)),
		corpus.GenerateBooks(corpus.DefaultBookProfile(10, 20)),
	}
	router := cluster.NewRouter(0)
	repos := map[string]*rule.Repository{}
	var uris, htmls []string
	for _, cl := range clusters {
		sample, _ := cl.RepresentativeSplit(10)
		builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
		repo := rule.NewRepository(cl.Name)
		if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
			b.Fatal(err)
		}
		repos[cl.Name] = repo
		var infos []cluster.PageInfo
		for _, p := range cl.Pages {
			infos = append(infos, cluster.PageInfo{URI: p.URI, Doc: p.Doc})
			uris = append(uris, p.URI)
			htmls = append(htmls, dom.Render(p.Doc))
		}
		router.Register(cl.Name, cluster.SignatureOf(infos))
	}
	ex, err := pipeline.NewStaticExtractor(repos)
	if err != nil {
		b.Fatal(err)
	}

	// Cycle the corpus to fill b.N pages. Each item is a fresh lazy page
	// over the raw markup, exactly what the ingest handler constructs.
	stream := make([]*core.Page, b.N)
	for i := range stream {
		stream[i] = core.NewPageLazy(uris[i%len(uris)], htmls[i%len(htmls)])
	}
	var extracted, unrouted int
	sink := pipeline.FuncSink(func(it *pipeline.Item) error {
		if it.Element != nil {
			extracted++
		} else {
			unrouted++
		}
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	// Telemetry on, as in production: the benchmark guards the
	// instrumented path, so per-stage instrumentation cost shows up
	// as an ingest regression.
	stats, err := pipeline.Run(context.Background(), pipeline.Config{
		Classifier: pipeline.RouteWith(router),
		Extractor:  ex,
		Telemetry:  pipeline.NewTelemetry(),
	}, pipeline.NewPageSource(stream), sink)
	if err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "pages/sec")
	}
	if stats.Pages != b.N || extracted != b.N {
		b.Fatalf("ingested %d/%d pages, %d unrouted — routing broke", extracted, b.N, unrouted)
	}
}

// BenchmarkStreamExtract measures the PR 9 tentpole in isolation:
// one page of raw HTML through the compiled rule automaton — tokenize,
// match, capture, assemble — with no tree ever built. Compare against
// BenchmarkExtractPage (DOM evaluation of an already-parsed page) plus
// BenchmarkHTMLParse (the parse the stream path skips) for the full
// hot-path story.
func BenchmarkStreamExtract(b *testing.B) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(9, 30))
	sample, _ := cl.RepresentativeSplit(10)
	builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
	repo := rule.NewRepository(cl.Name)
	if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
		b.Fatal(err)
	}
	proc, err := extract.NewProcessor(repo)
	if err != nil {
		b.Fatal(err)
	}
	proc.Freeze()
	page := cl.Pages[len(cl.Pages)-1]
	html := dom.Render(page.Doc)
	b.SetBytes(int64(len(html)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el, _, info := proc.ExtractPageStream(page.URI, html)
		if !info.Hit {
			b.Fatalf("stream path not taken: %s", info.Reason)
		}
		if len(el.Children) == 0 {
			b.Fatal("empty extraction")
		}
	}
}

func BenchmarkBaselineInduce(b *testing.B) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(9, 10))
	var docs []*dom.Node
	for _, p := range cl.Pages {
		docs = append(docs, p.Doc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Induce(docs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterPages(b *testing.B) {
	movies := corpus.GenerateMovies(corpus.DefaultMovieProfile(1, 30))
	books := corpus.GenerateBooks(corpus.DefaultBookProfile(2, 30))
	var pages []cluster.PageInfo
	for i := 0; i < 30; i++ {
		pages = append(pages,
			cluster.PageInfo{URI: movies.Pages[i].URI, Doc: movies.Pages[i].Doc},
			cluster.PageInfo{URI: books.Pages[i].URI, Doc: books.Pages[i].Doc})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := cluster.ClusterPages(pages, cluster.DefaultConfig())
		if len(rs) < 2 {
			b.Fatalf("clusters = %d", len(rs))
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §5): refinement strategies on/off. Each
// reports held-out F1 as a custom metric alongside build time.

func benchAblation(b *testing.B, configure func(*core.Builder)) {
	cl := corpus.GenerateMovies(corpus.DefaultMovieProfile(555, 60))
	sample, held := cl.RepresentativeSplit(10)
	var lastF1 float64
	for i := 0; i < b.N; i++ {
		builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
		configure(builder)
		repo := rule.NewRepository(cl.Name)
		for _, comp := range cl.ComponentNames() {
			res, err := builder.BuildRule(comp)
			if err != nil {
				b.Fatal(err)
			}
			if res.Rule.Validate() == nil {
				_ = repo.Record(res.Rule)
			}
		}
		compiled, err := repo.CompileAll()
		if err != nil {
			b.Fatal(err)
		}
		correct, total := 0, 0
		for _, p := range held {
			for name, c := range compiled {
				var got []string
				for _, n := range c.Apply(p.Doc) {
					got = append(got, normalizeBench(n))
				}
				want := cl.TruthStrings(p, name)
				total++
				if fmt.Sprint(got) == fmt.Sprint(want) {
					correct++
				}
			}
		}
		lastF1 = float64(correct) / float64(total)
	}
	b.ReportMetric(lastF1, "heldout-acc")
}

func normalizeBench(n *dom.Node) string {
	return textutil.NormalizeSpace(xpath.NodeStringValue(n))
}

func BenchmarkAblationFullStack(b *testing.B) {
	benchAblation(b, func(*core.Builder) {})
}

func BenchmarkAblationNoContext(b *testing.B) {
	benchAblation(b, func(bu *core.Builder) { bu.DisableContext = true })
}

func BenchmarkAblationNoAltPaths(b *testing.B) {
	benchAblation(b, func(bu *core.Builder) { bu.DisableAltPaths = true })
}

func BenchmarkAblationPositionalOnly(b *testing.B) {
	benchAblation(b, func(bu *core.Builder) {
		bu.DisableContext = true
		bu.DisableAltPaths = true
	})
}
