package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// promFamilies scrapes ts's /metrics with a Prometheus Accept header
// and parses the exposition.
func promFamilies(t *testing.T, base string) ([]*obs.PromFamily, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics (prom): %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	fams, err := obs.ParseProm(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parsing exposition: %v\n%s", err, raw)
	}
	return fams, string(raw)
}

func familyByName(fams []*obs.PromFamily, name string) *obs.PromFamily {
	for _, f := range fams {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// TestPromExpositionGolden is the scrape acceptance test: real traffic
// through a real server, then the text exposition must parse, lint
// clean, declare every expected family with the right type, and agree
// with the JSON view served from the same endpoint.
func TestPromExpositionGolden(t *testing.T) {
	srv, ts := newTestServer(t)
	repo := testRepo(t, "movies")
	postJSONRepo(t, ts.URL, repo, "")

	// Traffic: two clean extractions and one failing one.
	for _, html := range []string{
		"<html><body><h1>A</h1></body></html>",
		"<html><body><h1>B</h1></body></html>",
		"<html><body><p>no title</p></body></html>",
	} {
		resp, err := http.Post(ts.URL+"/extract?repo=movies", "text/html", strings.NewReader(html))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// The default view stays JSON for untyped clients.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("default /metrics Content-Type = %q, want JSON", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	fams, raw := promFamilies(t, ts.URL)

	// The whole catalogue must satisfy the naming conventions.
	if problems := obs.Lint(fams, obs.LintOptions{}); len(problems) > 0 {
		t.Fatalf("exposition fails lint:\n%s", strings.Join(problems, "\n"))
	}

	// Every table row renders, in order, with its declared type.
	if len(fams) != len(families) {
		t.Errorf("exposition has %d families, the table declares %d:\n%s",
			len(fams), len(families), raw)
	}
	for i := 0; i < len(fams) && i < len(families); i++ {
		if fams[i].Name != families[i].Name || fams[i].Type != families[i].Type {
			t.Errorf("family %d = %s %s, table row says %s %s", i,
				fams[i].Name, fams[i].Type, families[i].Name, families[i].Type)
		}
	}

	// Spot-check values against the JSON view of the same counters.
	reqs := familyByName(fams, "extractd_requests_total")
	found := false
	for _, s := range reqs.Samples {
		if s.Label("endpoint") == "extract" {
			found = true
			if int64(s.Value) != snap.Requests["extract"] {
				t.Errorf("requests_total{endpoint=extract} = %v, JSON says %d",
					s.Value, snap.Requests["extract"])
			}
		}
	}
	if !found {
		t.Error("requests_total has no endpoint=extract sample")
	}

	pages := familyByName(fams, "extractd_pages_extracted_total")
	if len(pages.Samples) != 1 || int64(pages.Samples[0].Value) != snap.PagesExtracted {
		t.Errorf("pages_extracted_total = %+v, JSON says %d", pages.Samples, snap.PagesExtracted)
	}

	workers := familyByName(fams, "extractd_pool_workers")
	if len(workers.Samples) != 1 || int(workers.Samples[0].Value) != srv.Pool.Workers() {
		t.Errorf("pool_workers = %+v, want %d", workers.Samples, srv.Pool.Workers())
	}

	// Per-repo counters carry the traffic of the loaded version.
	repoPages := familyByName(fams, "extractd_repo_pages_total")
	found = false
	for _, s := range repoPages.Samples {
		if s.Label("repo") == "movies" && s.Label("version") == "1" {
			found = true
			if s.Value != 3 {
				t.Errorf("repo_pages_total{movies,1} = %v, want 3", s.Value)
			}
		}
	}
	if !found {
		t.Errorf("repo_pages_total has no movies/1 sample: %+v", repoPages.Samples)
	}
	active := familyByName(fams, "extractd_repo_active_version")
	if len(active.Samples) != 1 || active.Samples[0].Label("repo") != "movies" ||
		active.Samples[0].Value != 1 {
		t.Errorf("repo_active_version = %+v", active.Samples)
	}

	// The failing page shows up in the failure counter.
	fails := familyByName(fams, "extractd_extraction_failures_total")
	var missing float64
	for _, s := range fails.Samples {
		if s.Label("kind") == "missing-mandatory" {
			missing = s.Value
		}
	}
	if missing != 1 {
		t.Errorf("extraction_failures_total{missing-mandatory} = %v, want 1", missing)
	}

	// The histogram is cumulative and consistent.
	hist := familyByName(fams, "extractd_extraction_duration_seconds")
	var infCount, count float64
	for _, s := range hist.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket") && s.Label("le") == "+Inf":
			infCount = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		}
	}
	if infCount != 3 || count != 3 {
		t.Errorf("extraction histogram +Inf=%v count=%v, want 3 extractions", infCount, count)
	}
}

// TestPromAcceptVariants: openmetrics and plain Accept headers get the
// text view; JSON Accept and no Accept get JSON.
func TestPromAcceptVariants(t *testing.T) {
	_, ts := newTestServer(t)
	for accept, wantProm := range map[string]bool{
		"text/plain":                   true,
		"application/openmetrics-text": true,
		"text/plain;version=0.0.4":     true,
		"application/json":             false,
		"":                             false,
		"*/*":                          false,
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		ct := resp.Header.Get("Content-Type")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := ct == obs.PromContentType; got != wantProm {
			t.Errorf("Accept %q → Content-Type %q, wantProm=%v", accept, ct, wantProm)
		}
	}
}

// TestPromJSONParity holds the families table to the Snapshot it
// renders: every Snapshot field is claimed by at least one row (a field
// added to the JSON view alone fails here), every claimed field exists,
// and the fully populated snapshot renders exactly the table's families
// — in order, with each row's type, HELP and label keys.
func TestPromJSONParity(t *testing.T) {
	st := reflect.TypeOf(Snapshot{})
	claimed := map[string]bool{}
	for _, f := range families {
		if len(f.fields) == 0 {
			t.Errorf("%s claims no Snapshot field", f.Name)
		}
		for _, name := range f.fields {
			if _, ok := st.FieldByName(name); !ok {
				t.Errorf("%s claims %s, which is not a Snapshot field", f.Name, name)
			}
			claimed[name] = true
		}
	}
	for i := 0; i < st.NumField(); i++ {
		if name := st.Field(i).Name; !claimed[name] {
			t.Errorf("Snapshot field %s is claimed by no families row — "+
				"add the row that renders it", name)
		}
	}

	var buf bytes.Buffer
	if err := WriteProm(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != len(families) {
		t.Fatalf("rendered %d families, the table declares %d", len(fams), len(families))
	}
	for i, row := range families {
		got := fams[i]
		if got.Name != row.Name || got.Type != row.Type || got.Help != row.Help {
			t.Errorf("family %d renders as %s %s %q, row declares %s %s %q", i,
				got.Name, got.Type, got.Help, row.Name, row.Type, row.Help)
		}
		if len(got.Samples) == 0 {
			t.Errorf("%s renders no series from the golden snapshot", row.Name)
		}
		for _, s := range got.Samples {
			var keys []string
			for _, l := range s.Labels {
				if !(l.Key == "le" && strings.HasSuffix(s.Name, "_bucket")) {
					keys = append(keys, l.Key)
				}
			}
			if !slices.Equal(keys, row.Labels) {
				t.Errorf("%s sample has label keys %v, row declares %v", s.Name, keys, row.Labels)
			}
		}
	}
}

// goldenSnapshot populates every Snapshot field, with several series
// per labeled family, so each family renders with its full label set —
// the /metrics catalogue exactly as a busy daemon would expose it.
func goldenSnapshot() Snapshot {
	stage := obs.HistogramSnapshot{
		Count: 3, Sum: 0.5,
		Buckets: []obs.HistogramBucket{{LE: 0.1, Count: 2}, {LE: 0, Count: 1}},
	}
	var stages pipeline.TelemetrySnapshot
	for _, name := range []string{"source", "classify", "extract", "sink"} {
		stages = append(stages, pipeline.StageSnapshot{
			Stage: name, InFlight: 1, Errors: 1, Latency: stage,
		})
	}
	latency := make([]obs.HistogramBucket, 0, len(obs.DefaultLatencyBuckets)+1)
	for i, le := range append(slices.Clone(obs.DefaultLatencyBuckets), 0) { // 0 marks +Inf
		latency = append(latency, obs.HistogramBucket{LE: le, Count: int64(i % 3)})
	}
	return Snapshot{
		UptimeSeconds:      12.5,
		Requests:           map[string]int64{"extract": 3, "ingest": 1, "metrics": 2},
		Errors:             map[string]int64{"extract": 1},
		ExtractionFailures: map[string]int64{"missing-mandatory": 1, "multiple-values": 1},
		Lifecycle:          map[string]int64{"repair.attempted": 1, "rollback": 1},
		PagesExtracted:     13,
		PageCacheHits:      4,
		PageCacheMisses:    6,
		RouterHits:         5,
		RouterMisses:       2,
		RouterUnrouted:     3,
		StreamHits:         7,
		StreamFallbacks:    3,
		StreamFallbackReasons: map[string]int64{
			"general-xpath": 1, "parsed-doc": 1, "depth": 1,
		},
		InductionJobs: map[string]int64{
			"queued": 1, "running": 1, "staged": 1, "failed": 0,
		},
		UnroutedBuffered:      3,
		UnroutedBufferedBytes: 4096,
		UnroutedEvicted:       1,
		UnroutedDropped:       1,
		LatencySumSeconds:     0.375,
		LatencyCount:          13,
		LatencyHistogram:      latency,
		Pool: PoolSnapshot{
			Workers: 4, QueueDepth: 1, QueueCapacity: 16,
			InFlight: 2, SaturationRatio: 0.5,
		},
		Repos: []RepoVersionCount{
			{Repo: "movies", Version: 1, Pages: 5, FailedPages: 1, Failures: 2},
			{Repo: "movies", Version: 2, Active: true, Pages: 5},
			{Repo: "stocks", Version: 1, Active: true, Pages: 3},
		},
		Pipeline:     stages,
		FetchRetries: 4,
		Fetch: []FetchOutcomeCount{
			{Host: "dead.example", Outcome: "breaker_open", Count: 5},
			{Host: "example.com", Outcome: "ok", Count: 9},
			{Host: "example.com", Outcome: "transient", Count: 2},
		},
		Breakers: []BreakerStatus{
			{Host: "dead.example", State: 2}, {Host: "example.com", State: 0},
		},
		Shed:            2,
		PanicsRecovered: map[string]int64{"handler": 1, "extract": 1},
		Recrawls:        map[string]int64{"clean": 5, "repaired": 1, "failed": 1},
		Schedules: []ScheduleMetric{
			{Repo: "movies", IntervalSeconds: 120},
			{Repo: "stocks", IntervalSeconds: 60},
		},
		ChangefeedRecords: map[string]int64{"new": 12, "changed": 3, "vanished": 1},
		Build:             BuildInfo{GoVersion: "go1.24", Revision: "abc123"},
		Store: &store.Metrics{
			WALBytes: 2048, WALRecords: 12, Fsyncs: 3, TornTails: 1,
			ReplayRecords: 12, ReplayDurationSeconds: 0.02,
			SnapshotAgeSeconds: 30, Snapshots: 2,
		},
	}
}

// TestMetricsGolden is the byte-exact referee for both /metrics views:
// the fully populated snapshot must render exactly the committed
// Prometheus exposition and JSON body (run with UPDATE_GOLDEN=1 to
// regenerate after an intended change to the catalogue).
func TestMetricsGolden(t *testing.T) {
	snap := goldenSnapshot()
	var prom bytes.Buffer
	if err := WriteProm(&prom, snap); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, snap)
	for _, g := range []struct{ file, got string }{
		{"metrics.golden.prom", prom.String()},
		{"metrics.golden.json", rec.Body.String()},
	} {
		path := filepath.Join("testdata", g.file)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
		}
		if g.got != string(want) {
			t.Errorf("%s differs from golden:\n--- got ---\n%s\n--- want ---\n%s", g.file, g.got, want)
		}
	}
}

// TestMetricsConcurrentScrape hammers the extraction counters while
// scraping both /metrics views — meaningful under -race (CI runs it
// there), and each scraped exposition must still parse.
func TestMetricsConcurrentScrape(t *testing.T) {
	_, ts := newTestServer(t)
	repo := testRepo(t, "movies")
	postJSONRepo(t, ts.URL, repo, "")

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Post(ts.URL+"/extract?repo=movies", "text/html",
					strings.NewReader("<html><body><h1>T</h1></body></html>"))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				fams, _ := promFamilies(t, ts.URL)
				if len(fams) == 0 {
					t.Error("empty exposition mid-traffic")
					return
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				var snap Snapshot
				if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
					t.Errorf("JSON view mid-traffic: %v", err)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}
