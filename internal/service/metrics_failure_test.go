package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/rule"
)

// TestMetricsFailureKindCounters pins down the /metrics FailureKind
// accounting for both §7 detectors with exact counts: the
// mandatory-void case (a mandatory component absent from the page) and
// the multi-valued-singleton case (a single-valued rule matching more
// than one node). Exactness matters — an off-by-one here silently skews
// the drift statistics the lifecycle monitor alarms on.
func TestMetricsFailureKindCounters(t *testing.T) {
	srv, ts := newTestServer(t)
	repo := testRepo(t, "movies") // title: mandatory, single-valued, BODY//H1[1]/text()[1]
	err := repo.Record(rule.Rule{
		Name:         "tag",
		Optionality:  rule.Mandatory,
		Multiplicity: rule.SingleValued,
		Format:       rule.Text,
		Locations:    []string{"BODY//SPAN/text()"},
	})
	if err != nil {
		t.Fatal(err)
	}
	postJSONRepo(t, ts.URL, repo, "")

	post := func(html string) extractResult {
		t.Helper()
		resp, err := http.Post(ts.URL+"/extract?repo=movies", "text/html", strings.NewReader(html))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /extract: %d", resp.StatusCode)
		}
		var res extractResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Page 1: fully healthy — both components present exactly once.
	res := post("<html><body><h1>T</h1><span>s</span></body></html>")
	if len(res.Failures) != 0 {
		t.Fatalf("healthy page failures: %v", res.Failures)
	}

	// Page 2: mandatory-void — no H1 anywhere, SPAN fine.
	res = post("<html><body><p>no title here</p><span>s</span></body></html>")
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "missing-mandatory") {
		t.Fatalf("mandatory-void failures: %v", res.Failures)
	}

	// Page 3: multi-valued-singleton — two SPANs for a single-valued
	// rule, H1 fine.
	res = post("<html><body><h1>T</h1><span>a</span><span>b</span></body></html>")
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "multiple-values") {
		t.Fatalf("multi-singleton failures: %v", res.Failures)
	}

	// Page 4: both detectors at once.
	res = post("<html><body><span>a</span><span>b</span></body></html>")
	if len(res.Failures) != 2 {
		t.Fatalf("combined failures: %v", res.Failures)
	}

	var snap Snapshot
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if got := snap.ExtractionFailures["missing-mandatory"]; got != 2 {
		t.Errorf("missing-mandatory count = %d, want 2", got)
	}
	if got := snap.ExtractionFailures["multiple-values"]; got != 2 {
		t.Errorf("multiple-values count = %d, want 2", got)
	}
	if snap.PagesExtracted != 4 {
		t.Errorf("pagesExtracted = %d, want 4", snap.PagesExtracted)
	}
	if snap.LatencyCount != 4 {
		t.Errorf("latencyCount = %d, want 4", snap.LatencyCount)
	}

	// The per-version stats agree: 4 pages, 3 of them failing.
	e, ok := srv.Registry.Get("movies")
	if !ok {
		t.Fatal("repo vanished")
	}
	stats := e.Stats.Snapshot()
	if stats.Pages != 4 || stats.FailedPages != 3 || stats.Failures != 4 {
		t.Errorf("version stats = %+v, want {4 3 4}", stats)
	}

	// And the drift monitor saw the same taxonomy.
	h := srv.monitor("movies").Health()
	if h.FailuresByKind["missing-mandatory"] != 2 || h.FailuresByKind["multiple-values"] != 2 {
		t.Errorf("monitor kinds = %+v", h.FailuresByKind)
	}
	if h.FailuresByComponent["title"] != 2 || h.FailuresByComponent["tag"] != 2 {
		t.Errorf("monitor components = %+v", h.FailuresByComponent)
	}
}

// TestMetricsSnapshotUnderLoad records requests, errors and extractions
// from several goroutines while snapshotting: every snapshot must show
// no endpoint with more errors than requests, and as many pages as
// latency observations in the histogram's buckets.
func TestMetricsSnapshotUnderLoad(t *testing.T) {
	m := NewMetrics()
	failures := []extract.Failure{{Kind: extract.FailureMissingMandatory}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Request("extract", i%2 == 0)
				m.Extraction(time.Duration(i%5000)*time.Microsecond, failures[:i%2])
				m.Lifecycle("rollback")
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()
	for i := 0; i < 500; i++ {
		s := m.Snapshot()
		if s.Errors["extract"] > s.Requests["extract"] {
			t.Fatalf("snapshot %d: %d errors > %d requests", i, s.Errors["extract"], s.Requests["extract"])
		}
		var buckets int64
		for _, b := range s.LatencyHistogram {
			buckets += b.Count
		}
		if s.PagesExtracted != buckets || s.LatencyCount != buckets {
			t.Fatalf("snapshot %d: pages %d, latencyCount %d, buckets %d",
				i, s.PagesExtracted, s.LatencyCount, buckets)
		}
	}
}

// TestEmptyMetricsJSON pins the JSON shape of a fresh daemon: requests
// renders as an empty object, the empty labeled families are omitted.
func TestEmptyMetricsJSON(t *testing.T) {
	raw, err := json.Marshal(NewMetrics().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if got := string(top["requests"]); got != "{}" {
		t.Errorf("fresh snapshot renders requests as %q, want {}", got)
	}
	for _, key := range []string{"errors", "extractionFailures", "lifecycle",
		"streamFallbackReasons", "panicsRecovered", "recrawls", "fetch"} {
		if v, ok := top[key]; ok {
			t.Errorf("fresh snapshot renders empty %s: %s", key, v)
		}
	}
}
