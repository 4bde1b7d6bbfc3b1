package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/pipeline"
)

// Chaos end-to-end suite: the failure-hardening acceptance paths from
// PR 8, driven through real HTTP against a real server. CI runs these
// under -race.

// newChaosServer builds a deliberately tiny server (1 worker, 1 queue
// slot) so saturation is reachable with two blocked tasks.
func newChaosServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(1, 1, nil)
	srv.AdmissionWait = 25 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// blockPool occupies the worker and the queue slot; the returned release
// unblocks both.
func blockPool(t *testing.T, p *Pool) (release func()) {
	t.Helper()
	block := make(chan struct{})
	started := make(chan struct{})
	go func() { _ = p.DoWait(context.Background(), -1, func() { close(started); <-block }) }()
	<-started
	queued := make(chan struct{})
	go func() { _ = p.DoWait(context.Background(), -1, func() { close(queued) }) }()
	for p.QueueDepth() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	return func() { close(block); <-queued }
}

func postExtract(t *testing.T, base string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/extract?repo=movies", "text/html",
		strings.NewReader("<html><body><h1>T</h1></body></html>"))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestChaosOverloadShedsAndDrains: with every worker and queue slot
// occupied, /extract sheds with 503 + Retry-After after the bounded
// admission wait instead of queueing unboundedly — and once the pool
// drains, the same request succeeds. The shed shows up in both /metrics
// views.
func TestChaosOverloadShedsAndDrains(t *testing.T) {
	srv, ts := newChaosServer(t)
	_, repo := buildMoviesRepo(t, 17, 12)
	postJSONRepo(t, ts.URL, repo, "movies")

	release := blockPool(t, srv.Pool)
	released := false
	defer func() {
		if !released {
			release()
		}
	}()

	resp := postExtract(t, ts.URL)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated extract = %d (%s), want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed 503 carries no Retry-After header")
	}
	if !strings.Contains(string(body), "extraction not scheduled") {
		t.Fatalf("shed body %q, want scheduling error", body)
	}

	// The work already inside keeps draining; afterwards the same
	// request is served normally.
	release()
	released = true
	resp = postExtract(t, ts.URL)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain extract = %d, want 200", resp.StatusCode)
	}

	snap := srv.MetricsSnapshot()
	if snap.Shed < 1 {
		t.Fatalf("snapshot Shed = %d, want >= 1", snap.Shed)
	}
	fams, _ := promFamilies(t, ts.URL)
	shed := familyByName(fams, "extractd_shed_total")
	if shed == nil || len(shed.Samples) != 1 || shed.Samples[0].Value < 1 {
		t.Fatalf("extractd_shed_total = %+v, want >= 1", shed)
	}
}

// TestChaosPanickingRuleQuarantined: a repository whose processor
// panics fails only its own request — 500 naming the panic — while the
// daemon, its worker pool and other repositories keep serving. The
// recovered panic is counted by stage.
func TestChaosPanickingRuleQuarantined(t *testing.T) {
	srv, ts := newTestServer(t)
	_, repo := buildMoviesRepo(t, 19, 12)
	postJSONRepo(t, ts.URL, repo, "movies")

	// Poison the live entry: a nil processor panics on first use, the
	// way a buggy rule or corrupted hot-reload would.
	e, ok := srv.Registry.Get("movies")
	if !ok {
		t.Fatal("repo not loaded")
	}
	goodProc := e.Proc
	e.Proc = nil

	resp := postExtract(t, ts.URL)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned extract = %d (%s), want 500", resp.StatusCode, body)
	}
	var errResp map[string]string
	if err := json.Unmarshal(body, &errResp); err != nil {
		t.Fatalf("error body %q is not JSON: %v", body, err)
	}
	if !strings.Contains(errResp["error"], "panic") {
		t.Fatalf("error %q does not name the panic", errResp["error"])
	}

	// The daemon is alive and the pool worker survived: restore the
	// processor and extract again.
	e.Proc = goodProc
	resp = postExtract(t, ts.URL)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic extract = %d, want 200 (worker died?)", resp.StatusCode)
	}

	snap := srv.MetricsSnapshot()
	if snap.PanicsRecovered["pool"] < 1 {
		t.Fatalf("PanicsRecovered = %v, want pool >= 1", snap.PanicsRecovered)
	}
	fams, _ := promFamilies(t, ts.URL)
	panics := familyByName(fams, "extractd_panics_recovered_total")
	if panics == nil {
		t.Fatal("exposition missing extractd_panics_recovered_total")
	}
	var poolCount float64
	for _, s := range panics.Samples {
		if s.Label("stage") == "pool" {
			poolCount = s.Value
		}
	}
	if poolCount < 1 {
		t.Fatalf("panics_recovered_total{stage=pool} = %v, want >= 1", poolCount)
	}
}

// TestChaosDeadlineUnderSaturation: with a request deadline shorter
// than the admission wait and the pool wedged, the request fails when
// its deadline expires — deadline propagation reaches pool admission —
// and the server sheds rather than hangs.
func TestChaosDeadlineUnderSaturation(t *testing.T) {
	srv, ts := newChaosServer(t)
	srv.RequestTimeout = 30 * time.Millisecond
	srv.AdmissionWait = -1 // block "forever": only the deadline can save us
	_, repo := buildMoviesRepo(t, 23, 12)
	postJSONRepo(t, ts.URL, repo, "movies")

	release := blockPool(t, srv.Pool)
	defer release()

	start := time.Now()
	resp := postExtract(t, ts.URL)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadlined request took %v — deadline not propagated", elapsed)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadlined extract = %d (%s), want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "context deadline exceeded") {
		t.Fatalf("body %q, want deadline error", body)
	}
}

// TestChaosConcurrentOverload hammers a tiny server far past capacity:
// every request must terminate (200 or 503, nothing hangs, nothing
// 5xx-crashes), and at least one must have been shed.
func TestChaosConcurrentOverload(t *testing.T) {
	srv, ts := newChaosServer(t)
	srv.AdmissionWait = 5 * time.Millisecond
	_, repo := buildMoviesRepo(t, 29, 12)
	postJSONRepo(t, ts.URL, repo, "movies")

	release := blockPool(t, srv.Pool)
	var wg sync.WaitGroup
	codes := make(chan int, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postExtract(t, ts.URL)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	release()
	close(codes)
	shed := 0
	for code := range codes {
		switch code {
		case http.StatusOK, http.StatusServiceUnavailable:
			if code == http.StatusServiceUnavailable {
				shed++
			}
		default:
			t.Errorf("overload produced status %d, want 200 or 503", code)
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed under 16x overload of a wedged 1-worker pool")
	}
	// The server still serves after the storm.
	resp := postExtract(t, ts.URL)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-storm extract = %d, want 200", resp.StatusCode)
	}
}

// TestChaosIngestAdmissionBounded: /ingest runs outside the request
// deadline, so with the pool wedged and an unbounded admission wait
// only the per-page admission bound (RequestTimeout) keeps its pages
// from waiting forever. Each page must fail as unscheduled and the
// summary line must still arrive, within seconds.
func TestChaosIngestAdmissionBounded(t *testing.T) {
	srv, ts := newChaosServer(t)
	srv.RequestTimeout = 30 * time.Millisecond
	srv.AdmissionWait = -1
	cl, repo := buildMoviesRepo(t, 37, 12)
	postJSONRepo(t, ts.URL, repo, "movies")

	const pages = 4
	var in strings.Builder
	for _, p := range cl.Pages[:pages] {
		in.Write(mustJSON(t, pipeline.PageLine{URI: p.URI, HTML: dom.Render(p.Doc)}))
		in.WriteByte('\n')
	}

	release := blockPool(t, srv.Pool)
	defer release()

	// Without the bound the request never completes; the client timeout
	// turns that hang into a failure.
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/ingest?repo=movies", "application/x-ndjson",
		strings.NewReader(in.String()))
	if err != nil {
		t.Fatalf("/ingest under a wedged pool: %v — per-page admission bound lost", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/ingest under a wedged pool: %v — per-page admission bound lost", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != pages+1 {
		t.Fatalf("%d lines, want %d page lines + summary:\n%s", len(lines), pages, body)
	}
	for i, l := range lines[:pages] {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("line %d %q: %v", i, l, err)
		}
		if msg, _ := m["error"].(string); !strings.Contains(msg, "extraction not scheduled") {
			t.Errorf("line %d = %s, want an unscheduled-page error", i, l)
		}
	}
	var sum ingestSummary
	if err := json.Unmarshal([]byte(lines[pages]), &sum); err != nil || !sum.Done || sum.PageErrors != pages {
		t.Fatalf("summary %s (%v), want done with %d page errors", lines[pages], err, pages)
	}
}
