package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 50.5}, {99, 99.01}, {100, 100}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4)
// outputs, the spread formula the benchmark's bounds are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{0.5, 0.25, 0.75, 1.0, 2.0}, [3]float64{0.375, 0.75, 1.5}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, 2000, 5*time.Second, 50)
	b := poissonSchedule(7, 2000, 5*time.Second, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 2000, 5*time.Second, 50)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 9500 || n > 10500 {
		t.Errorf("%d arrivals in 5s at 2000/s", n)
	}
	for i, x := range a {
		if x.due >= 5*time.Second || (i > 0 && x.due < a[i-1].due) || x.page < 0 || x.page >= 50 {
			t.Fatalf("arrival %d out of order or range: %+v", i, x)
		}
	}
}

// TestRungReportsLateness runs one open-loop rung against a local
// server and checks that every request is timed from its due time and
// its generator lateness recorded.
func TestRungReportsLateness(t *testing.T) {
	const body = "{}\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("uri") == "bad" {
			http.Error(w, "no", http.StatusUnprocessableEntity)
			return
		}
		w.Write([]byte(body))
	}))
	defer srv.Close()
	c := &extractClient{client: srv.Client(), targets: []extractTarget{
		{url: srv.URL + "/extract?uri=ok", html: []byte("<p>x</p>"), want: []byte(body)},
		{url: srv.URL + "/extract?uri=bad", html: []byte("<p>x</p>"), want: []byte(body)},
	}}
	sched := poissonSchedule(1, 500, 200*time.Millisecond, 1)
	var failures int
	r := c.rung(context.Background(), 500, sched, func(error) { failures++ })
	if r.sent != len(sched) || len(r.latency) != len(sched) || len(r.lateness) != len(sched) {
		t.Fatalf("rung recorded %d/%d/%d of %d", r.sent, len(r.latency), len(r.lateness), len(sched))
	}
	for i := range sched {
		if r.lateness[i] < 0 || r.latency[i] < r.lateness[i] {
			t.Fatalf("request %d: lateness %v, latency %v", i, r.lateness[i], r.latency[i])
		}
	}
	if r.failed != 0 || failures != 0 {
		t.Fatalf("%d failures against a correct server", r.failed)
	}
	bad := []arrival{{due: 0, page: 1}, {due: time.Millisecond, page: 0}}
	if r := c.rung(context.Background(), 500, bad, func(error) { failures++ }); r.failed != 1 || failures != 1 {
		t.Fatalf("a 422 answer counted %d failures", r.failed)
	}
}

// TestClosedLoopPipelined drives the pipelined closed loop against a
// server that echoes each body: answers must pair with their requests in
// order, and a wrong answer fails only its own request.
func TestClosedLoopPipelined(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		if r.URL.Query().Get("uri") == "bad" {
			b = []byte("wrong")
		}
		w.Write(b)
	}))
	defer srv.Close()
	c := &extractClient{}
	for i := 0; i < 5; i++ {
		page := []byte("page " + strconv.Itoa(i))
		c.targets = append(c.targets, extractTarget{url: srv.URL + "/extract?uri=" + strconv.Itoa(i), html: page, want: page})
	}
	var failures int
	good, sent, _, _ := c.closedLoop(context.Background(), 1, 300*time.Millisecond, func(error) { failures++ })
	if failures != 0 || good != sent || sent < pipelineDepth {
		t.Fatalf("correct server: %d of %d answered correctly, %d failures", good, sent, failures)
	}
	c.targets = append(c.targets, extractTarget{url: srv.URL + "/extract?uri=bad", html: []byte("x"), want: []byte("x")})
	good, sent, _, _ = c.closedLoop(context.Background(), 1, 300*time.Millisecond, func(error) { failures++ })
	if failures == 0 || good+failures != sent {
		t.Fatalf("one wrong target: %d correct + %d failures of %d sent", good, failures, sent)
	}
}

func TestBacklogAndLimitRule(t *testing.T) {
	limit := 2 * time.Millisecond
	flat := make([]time.Duration, 100)
	growing := make([]time.Duration, 100)
	for i := range flat {
		flat[i] = 100 * time.Microsecond
		growing[i] = time.Duration(i) * 100 * time.Microsecond
	}
	if backlogGrowing(flat, limit) {
		t.Error("flat lateness reported as a growing backlog")
	}
	if !backlogGrowing(growing, limit) {
		t.Error("lateness growing to 10ms not reported as a growing backlog")
	}
	fast := func(rate float64) *rungResult {
		return &rungResult{rate: rate, latency: flat, lateness: flat}
	}
	slow := &rungResult{rate: 3000, latency: append(append([]time.Duration(nil), flat[:95]...),
		5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond, 5*time.Millisecond), lateness: flat}
	backlog := &rungResult{rate: 4000, latency: flat, lateness: growing}
	failed := fast(5000)
	failed.failed = 1
	rungs := []*rungResult{fast(1000), fast(2000), slow, backlog, failed}
	if !rungs[1].passes(limit) || slow.passes(limit) || backlog.passes(limit) || failed.passes(limit) {
		t.Error("rung pass rule wrong")
	}
	if got := maxPassingRate(rungs, limit); got != 2000 {
		t.Errorf("max passing rate %v, want 2000", got)
	}
	if got := maxPassingRate(rungs[2:], limit); got != 0 {
		t.Errorf("max passing rate of failing rungs %v, want 0", got)
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (extract d) (x)) S 1 4242 4242 0 -1 4194560 500 0 0 0 1234 567 0 0 20 0 9 0 100 1000 200"
	if got, err := parseCPUTicks(stat); err != nil || got != 1234+567 {
		t.Errorf("parseCPUTicks = %v, %v; want 1801", got, err)
	}
	if _, err := parseCPUTicks("4242 (short) S 1 2"); err == nil {
		t.Error("truncated stat line accepted")
	}
	status := "Name:\textractd\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 10000 kB\n"
	if got, err := parseVmHWMKB(status); err != nil || got != 20480 {
		t.Errorf("parseVmHWMKB = %v, %v; want 20480", got, err)
	}
	if _, err := parseVmHWMKB("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
	ps, err := readProc(os.Getpid())
	if err != nil || ps.hwmKB <= 0 || ps.cpu < 0 {
		t.Errorf("readProc(self) = %+v, %v", ps, err)
	}
}

func TestPromDelta(t *testing.T) {
	scrape := func(hit, unrouted, walBytes, sum float64) promSeries {
		text := "# HELP extractd_router_decisions_total Routing outcomes.\n" +
			"# TYPE extractd_router_decisions_total counter\n" +
			"extractd_router_decisions_total{outcome=\"hit\"} " + ftoa(hit) + "\n" +
			"extractd_router_decisions_total{outcome=\"unrouted\"} " + ftoa(unrouted) + "\n" +
			"# HELP extractd_store_wal_bytes WAL bytes.\n" +
			"# TYPE extractd_store_wal_bytes gauge\n" +
			"extractd_store_wal_bytes " + ftoa(walBytes) + "\n" +
			"# HELP extractd_pipeline_stage_duration_seconds Stage latency.\n" +
			"# TYPE extractd_pipeline_stage_duration_seconds histogram\n" +
			"extractd_pipeline_stage_duration_seconds_bucket{stage=\"extract\",le=\"+Inf\"} 3\n" +
			"extractd_pipeline_stage_duration_seconds_sum{stage=\"extract\"} " + ftoa(sum) + "\n" +
			"extractd_pipeline_stage_duration_seconds_count{stage=\"extract\"} 3\n"
		p, err := parseProm(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	d := scrape(10, 1, 100, 0.5).delta(scrape(25, 4, 1100, 0.75))
	for key, want := range map[string]float64{
		`extractd_router_decisions_total{outcome="hit"}`:                             15,
		`extractd_router_decisions_total{outcome="unrouted"}`:                        3,
		"extractd_store_wal_bytes":                                                   1000,
		`extractd_pipeline_stage_duration_seconds_sum{stage="extract"}`:              0.25,
		`extractd_pipeline_stage_duration_seconds_count{stage="extract"}`:            0,
		`extractd_pipeline_stage_duration_seconds_bucket{stage="extract",le="+Inf"}`: 0,
	} {
		if got, ok := d[key]; !ok || !near(got, want) {
			t.Errorf("delta[%s] = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if got := d.sum("extractd_router_decisions_total"); got != 18 {
		t.Errorf("family sum %v, want 18", got)
	}
	if _, err := parseProm(strings.NewReader("orphan_total 1\n")); err == nil {
		t.Error("sample without a family accepted")
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func TestCheckResultLine(t *testing.T) {
	p := &benchPage{repo: "books", uri: "http://books.example/item/1", record: []byte(`{"@uri":"http://books.example/item/1","price":"9"}`)}
	tail := p.resultTail("tr-1")
	good := []byte(`{"uri":"http://books.example/item/1","repo":"books","score":0.91,"record":{"@uri":"http://books.example/item/1","price":"9"},"trace":"tr-1"}` + "\n")
	if ok, why := checkResultLine(good, p, []byte(p.uri), "tr-1", tail); !ok {
		t.Fatalf("correct line rejected: %s", why)
	}
	for name, line := range map[string]string{
		"other record": `{"uri":"http://books.example/item/1","repo":"books","score":0.91,"record":{"@uri":"http://books.example/item/1","price":"8"},"trace":"tr-1"}`,
		"other repo":   `{"uri":"http://books.example/item/1","repo":"movies","score":0.91,"record":{"@uri":"http://books.example/item/1","price":"9"},"trace":"tr-1"}`,
		"no score":     `{"uri":"http://books.example/item/1","repo":"books","score":,"record":{"@uri":"http://books.example/item/1","price":"9"},"trace":"tr-1"}`,
		"unrouted":     `{"uri":"http://books.example/item/1","error":"unrouted: page","trace":"tr-1"}`,
	} {
		if ok, _ := checkResultLine([]byte(line+"\n"), p, []byte(p.uri), "tr-1", tail); ok {
			t.Errorf("%s: wrong line accepted", name)
		}
	}
	forum := &benchPage{uri: "http://forum.example/thread/1"}
	unrouted := []byte(`{"uri":"http://forum.example/thread/1","score":0.2,"error":"unrouted: page \"x\" best match \"books\" at 0.20 is below the routing threshold","trace":"tr-1"}` + "\n")
	if ok, why := checkResultLine(unrouted, forum, []byte(forum.uri), "tr-1", nil); !ok {
		t.Fatalf("unrouted line rejected: %s", why)
	}
	if ok, _ := checkResultLine(good, forum, []byte(forum.uri), "tr-1", nil); ok {
		t.Error("a routed answer for a page without a repository accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "page", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "cluster.route", Start: 10, End: 50},
		{ID: 2, Parent: 1, Name: "streamx.fingerprint", Start: 20, End: 45},
		{ID: 3, Parent: 0, Name: "extract.run", Start: 60, End: 90},
	}
	self, n := selfTimes(spans)
	want := map[string]time.Duration{"page": 30, "cluster.route": 15, "streamx.fingerprint": 25, "extract.run": 30}
	if !reflect.DeepEqual(self, want) || n["page"] != 1 {
		t.Errorf("self times %v (counts %v), want %v", self, n, want)
	}
	var tr tracer
	if tr.begin("x", -1, 0) != -1 || len(tr.spans) != 0 {
		t.Error("a disabled tracer recorded a span")
	}
}

func TestHostURI(t *testing.T) {
	got := hostURI(nil, "http://movies.example/title/tt0000001/", 42)
	if !bytes.Equal(got, []byte("http://n42.movies.example/title/tt0000001/")) {
		t.Errorf("hostURI = %s", got)
	}
}

func TestWindowCounterMedianRate(t *testing.T) {
	start := time.Unix(100, 0)
	w := newWindowCounter(start, 3)
	for _, ms := range []int{100, 200, 1500, 2100, 2200, 2300, 3100, -5} {
		w.add(start.Add(time.Duration(ms) * time.Millisecond))
	}
	if got := w.medianRate(); got != 2 {
		t.Errorf("median of windows [2 1 3] = %v, want 2 (events outside the windows ignored)", got)
	}
	if got := newWindowCounter(start, 0).medianRate(); got != 0 {
		t.Errorf("empty counter rate %v", got)
	}
}
