package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// TestTraceIDHeaderFlow: every request gets a trace ID — minted when the
// client sends none, adopted when the client sends a well-formed one,
// and re-minted (never trusted) when the header is malformed.
func TestTraceIDHeaderFlow(t *testing.T) {
	_, ts := newTestServer(t)
	postJSONRepo(t, ts.URL, testRepo(t, "movies"), "")

	do := func(traceHeader string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/extract?repo=movies",
			strings.NewReader("<html><body><h1>T</h1></body></html>"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "text/html")
		if traceHeader != "" {
			req.Header.Set("X-Trace-Id", traceHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/extract: %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Trace-Id")
	}

	minted := do("")
	if !obs.ValidTraceID(minted) {
		t.Fatalf("minted X-Trace-Id %q is not a valid trace ID", minted)
	}
	if again := do(""); again == minted {
		t.Fatal("two requests got the same minted trace ID")
	}

	const own = "cafe0123beef4567"
	if got := do(own); got != own {
		t.Fatalf("well-formed client trace not adopted: got %q, want %q", got, own)
	}

	for _, bad := range []string{"short", "has space in it", strings.Repeat("f", 65)} {
		got := do(bad)
		if got == bad {
			t.Errorf("malformed trace %q was adopted verbatim", bad)
		}
		if !obs.ValidTraceID(got) {
			t.Errorf("replacement for malformed trace %q is itself invalid: %q", bad, got)
		}
	}
}

// TestIngestLinesCarryTrace: the request's trace ID rides on every
// NDJSON result line and the trailing summary, so a saved stream still
// names the exchange (and the log lines) it came from.
func TestIngestLinesCarryTrace(t *testing.T) {
	_, ts := newTestServer(t)
	postJSONRepo(t, ts.URL, testRepo(t, "movies"), "")

	var body strings.Builder
	for _, title := range []string{"A", "B"} {
		line, err := json.Marshal(pipeline.PageLine{
			URI:  "http://x/" + title,
			HTML: "<html><body><h1>" + title + "</h1></body></html>",
		})
		if err != nil {
			t.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}

	const trace = "deadbeef8badf00d"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest?repo=movies",
		strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("X-Trace-Id", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != trace {
		t.Fatalf("response header trace = %q, want %q", got, trace)
	}

	sc := bufio.NewScanner(resp.Body)
	var lines []pipeline.ResultLine
	var summary ingestSummary
	for sc.Scan() {
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line: %v: %s", err, sc.Text())
		}
		if probe.Done {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var res pipeline.ResultLine
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d result lines, want 2", len(lines))
	}
	for i, res := range lines {
		if res.Trace != trace {
			t.Errorf("result line %d trace = %q, want %q", i, res.Trace, trace)
		}
		if res.Error != "" {
			t.Errorf("result line %d unexpectedly failed: %s", i, res.Error)
		}
	}
	if !summary.Done || summary.Trace != trace {
		t.Errorf("summary = %+v, want done with trace %q", summary, trace)
	}
}

// TestRouteLabelsBounded: the pprof route label is derived from the
// matched mux pattern, so client-chosen path segments never mint label
// values — every request no route matches profiles as "other".
func TestRouteLabelsBounded(t *testing.T) {
	srv := NewServer(1, 1, nil)
	defer srv.Close()
	mux := srv.routes()
	labelOf := func(method, path string) string {
		_, pattern := mux.Handler(httptest.NewRequest(method, path, nil))
		return routeLabel(pattern)
	}
	for req, want := range map[string]string{
		"POST /extract":                  "extract",
		"POST /extract/batch":            "extract.batch",
		"GET /repos/movies/health":       "repos.health",
		"POST /jobs/7/promote":           "jobs.promote",
		"GET /jobs/42":                   "jobs",
		"DELETE /schedules/movies":       "schedules",
		"GET /repos/x/attacker-chosen-1": "other",
		"GET /jobs/1/anything":           "other",
		"GET /no/such/route":             "other",
	} {
		method, path, _ := strings.Cut(req, " ")
		if got := labelOf(method, path); got != want {
			t.Errorf("%s: route label %q, want %q", req, got, want)
		}
	}

	labels := map[string]bool{}
	for i := 0; i < 200; i++ {
		tok := fmt.Sprintf("rnd%d", i)
		for _, method := range []string{"GET", "POST", "DELETE"} {
			for _, path := range []string{
				"/" + tok, "/repos/" + tok, "/repos/x/" + tok, "/repos/" + tok + "/health",
				"/jobs/" + tok, "/jobs/1/" + tok, "/schedules/" + tok, "/schedules/" + tok + "/" + tok,
			} {
				l := labelOf(method, path)
				if strings.Contains(l, "rnd") {
					t.Fatalf("%s %s: route label %q copies the path", method, path, l)
				}
				labels[l] = true
			}
		}
	}
	if len(labels) > 8 {
		t.Fatalf("unmatched and parameterised paths minted %d route labels: %v", len(labels), labels)
	}
}

// TestRouteLabelOnWaitingHandler: a request waiting for extraction
// admission is profiled under its route, because the extraction runs on
// the handler's own labelled goroutine rather than on a pool goroutine.
func TestRouteLabelOnWaitingHandler(t *testing.T) {
	srv := NewServer(1, 1, nil)
	srv.AdmissionWait = 10 * time.Second
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	_, repo := buildMoviesRepo(t, 17, 12)
	postJSONRepo(t, ts.URL, repo, "movies")

	release := blockPool(t, srv.Pool)
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/extract?repo=movies", "text/html",
			strings.NewReader("<html><body><h1>T</h1></body></html>"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d, want 200", resp.StatusCode)
			}
		}
		done <- err
	}()
	labelled := false
	for deadline := time.Now().Add(5 * time.Second); !labelled && time.Now().Before(deadline); {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		labelled = strings.Contains(buf.String(), `labels: {"route":"extract"}`)
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("extract after release: %v", err)
	}
	if !labelled {
		t.Fatal(`no goroutine carried the "route":"extract" label while the request waited`)
	}
}
