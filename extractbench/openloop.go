package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// latencyLimit is the p99 a ladder rung must stay under to count
	// toward max_rate_rps.
	latencyLimit = 2 * time.Millisecond
	// referenceRate is the rung whose latencies are reported as
	// latency_p50_ms and latency_p99_ms.
	referenceRate = 2000.0
	// dataConns is the data-plane connection cap: the box's core count,
	// so the generator cannot out-parallelize the daemon.
	dataConns = 2
)

// ladder is the open-loop offered rates, in requests per second.
var ladder = []float64{1000, 2000, 3000, 4000}

// extractTarget is one page as /extract traffic: its URL and the exact
// response body the daemon must answer with.
type extractTarget struct {
	url  string
	html []byte
	want []byte
}

type extractClient struct {
	client  *http.Client
	targets []extractTarget
}

// do sends one page and reports whether the daemon answered exactly the
// reference body; buf is the calling worker's response buffer.
func (c *extractClient) do(ctx context.Context, t *extractTarget, buf *bytes.Buffer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url, bytes.NewReader(t.html))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/html")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	if !bytes.Equal(buf.Bytes(), t.want) {
		return fmt.Errorf("body differs from the reference extraction: %.200s", buf.Bytes())
	}
	return nil
}

// runExtractOpen sends single-page POST /extract?uri=… requests, routed
// by the daemon, first open loop at each ladder rate, then a pipelined
// closed loop over dataConns connections for the throughput figure.
func runExtractOpen(ctx context.Context, cfg *runConfig, in *inputs, d *daemon, gens map[string]int) (*measurement, error) {
	m := &measurement{}
	c := &extractClient{client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: dataConns, MaxIdleConnsPerHost: dataConns, DisableCompression: true,
	}}}
	defer c.client.CloseIdleConnections()
	for _, p := range in.data {
		want, err := p.expectedExtractBody(gens[p.repo])
		if err != nil {
			return nil, err
		}
		c.targets = append(c.targets, extractTarget{
			url:  d.base + "/extract?uri=" + url.QueryEscape(p.uri),
			html: []byte(p.html),
			want: want,
		})
	}
	fail := func(err error) {
		m.failed++
		m.problem("%v", err)
	}

	// Four tenths of the run go to the ladder, the rest to the closed loop.
	rungDur := cfg.dur * 4 / 10 / time.Duration(len(ladder))
	var rungs []*rungResult
	for k, rate := range ladder {
		sched := poissonSchedule(cfg.seed*131+int64(k), rate, rungDur, len(c.targets))
		r := c.rung(ctx, rate, sched, fail)
		rungs = append(rungs, r)
		m.attempted += r.sent
		m.units += r.sent
		m.routed += r.sent
		// Let the rung's stragglers drain before the next rate starts.
		time.Sleep(50 * time.Millisecond)
	}
	m.report = append(m.report, fmt.Sprintf("open-loop ladder (%v per rung, %d connections, limit p99 < %v):",
		rungDur, dataConns, latencyLimit))
	m.report = append(m.report, "      rate   sent  failed  p50_ms   p99_ms  late_p50_ms  late_p99_ms  backlog  pass")
	for _, r := range rungs {
		lat, late := millis(r.latency), millis(r.lateness)
		m.report = append(m.report, fmt.Sprintf("  %8.0f %6d %7d %7.3f %8.3f %12.3f %12.3f  %7v  %v",
			r.rate, r.sent, r.failed, percentile(lat, 50), percentile(lat, 99),
			percentile(late, 50), percentile(late, 99), backlogGrowing(r.lateness, latencyLimit), r.passes(latencyLimit)))
		if r.rate == referenceRate {
			m.extra = append(m.extra,
				namedValue{"latency_p50_ms", percentile(lat, 50), "ms"},
				namedValue{"latency_p99_ms", percentile(lat, 99), "ms"},
				namedValue{"generator_late_p99_ms", percentile(late, 99), "ms"})
		}
	}
	m.extra = append(m.extra, namedValue{"max_rate_rps", maxPassingRate(rungs, latencyLimit), "1/s"})

	closedDur := cfg.dur - rungDur*time.Duration(len(ladder))
	good, sent, wall, rate := c.closedLoop(ctx, cfg.seed, closedDur, fail)
	m.attempted += sent
	m.units += sent
	m.routed += sent
	m.rate = rate
	m.report = append(m.report, fmt.Sprintf("closed loop: %d requests (%d correct) over %d connections, %d pipelined each, in %.3fs (%.1f/s overall)",
		sent, good, dataConns, pipelineDepth, wall.Seconds(), float64(good)/wall.Seconds()))
	return m, nil
}

// rung runs one open-loop schedule. dataConns workers take arrivals in
// order, each sleeping until its arrival is due; a request that finds
// both connections busy goes out late, and its latency still counts
// from its due time.
func (c *extractClient) rung(ctx context.Context, rate float64, sched []arrival, fail func(error)) *rungResult {
	r := &rungResult{
		rate: rate, sent: len(sched),
		latency:  make([]time.Duration, len(sched)),
		lateness: make([]time.Duration, len(sched)),
	}
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < dataConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].due)
				sleepUntil(due)
				sent := time.Now()
				err := c.do(ctx, &c.targets[sched[i].page], &buf)
				r.latency[i] = time.Since(due)
				r.lateness[i] = sent.Sub(due)
				if err != nil {
					mu.Lock()
					r.failed++
					fail(err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return r
}

// closedLoop runs dataConns connections for dur, each keeping up to
// pipelineDepth requests written ahead of its answers (HTTP/1.1
// pipelining; the daemon still serves each connection's requests one at
// a time). With one request in flight per connection, every answer waits
// for a wake-up of the client and then of the daemon, so a preempted vCPU
// on a shared host stalls the whole loop; requests queued in the socket
// keep the daemon busy through such gaps. It returns how many requests
// were answered correctly, how many were sent, the wall time, and the
// median one-second rate of correct answers.
func (c *extractClient) closedLoop(ctx context.Context, seed int64, dur time.Duration, fail func(error)) (good, sent int, wall time.Duration, rate float64) {
	raw := make([][]byte, len(c.targets))
	for i := range c.targets {
		req, err := http.NewRequest(http.MethodPost, c.targets[i].url, bytes.NewReader(c.targets[i].html))
		if err != nil {
			fail(err)
			return 0, 1, 0, 0
		}
		req.Header.Set("Content-Type", "text/html")
		var b bytes.Buffer
		if err := req.Write(&b); err != nil {
			fail(err)
			return 0, 1, 0, 0
		}
		raw[i] = b.Bytes()
	}
	host, err := url.Parse(c.targets[0].url)
	if err != nil {
		fail(err)
		return 0, 1, 0, 0
	}
	start := time.Now()
	deadline := start.Add(dur)
	win := newWindowCounter(start, int(dur/time.Second))
	var ok, all atomic.Int64
	var mu sync.Mutex
	lockedFail := func(err error) {
		mu.Lock()
		fail(err)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < dataConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n, answered := c.pipeline(ctx, host.Host, raw, rand.New(rand.NewSource(seed*977+int64(w))), deadline, win, lockedFail)
			all.Add(int64(n))
			ok.Add(int64(answered))
		}(w)
	}
	wg.Wait()
	return int(ok.Load()), int(all.Load()), time.Since(start), win.medianRate()
}

// pipelineDepth is how many requests one closed-loop connection keeps
// written ahead of its answers.
const pipelineDepth = 8

// pipeline drives one raw connection until deadline: a writer sends
// random targets' pre-encoded requests while fewer than pipelineDepth
// are unanswered, and the reader checks each answer in order against its
// reference body. It returns how many requests were sent and how many
// were answered correctly; every other sent request is reported to fail.
func (c *extractClient) pipeline(ctx context.Context, addr string, raw [][]byte, rng *rand.Rand, deadline time.Time, win *windowCounter, fail func(error)) (sent, good int) {
	var dialer net.Dialer
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		fail(err)
		return 1, 0
	}
	defer conn.Close()
	if d, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(d)
	}
	inFlight := make(chan int, pipelineDepth)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		br := bufio.NewReaderSize(conn, 64<<10)
		var buf bytes.Buffer
		broken := false
		for i := range inFlight {
			if broken {
				// The writer stops at its next send; what it already
				// sent goes unanswered.
				fail(errors.New("no answer: the connection broke before it"))
				continue
			}
			if err := readAnswer(br, &buf, &c.targets[i]); err != nil {
				fail(err)
				if !errors.Is(err, errWrongAnswer) {
					broken = true
					conn.Close()
				}
				continue
			}
			good++
			win.add(time.Now())
		}
	}()
	for time.Now().Before(deadline) {
		i := rng.Intn(len(raw))
		inFlight <- i
		sent++
		if _, err := conn.Write(raw[i]); err != nil {
			break
		}
	}
	close(inFlight)
	<-readerDone
	return sent, good
}

// errWrongAnswer marks a complete response that was not the reference
// answer; the connection stays in step after it.
var errWrongAnswer = errors.New("wrong answer")

// readAnswer reads one response from br and checks it is a 200 with
// exactly t's reference body.
func readAnswer(br *bufio.Reader, buf *bytes.Buffer, t *extractTarget) error {
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: status %d: %.200s", errWrongAnswer, resp.StatusCode, buf.Bytes())
	}
	if !bytes.Equal(buf.Bytes(), t.want) {
		return fmt.Errorf("%w: body differs from the reference extraction: %.200s", errWrongAnswer, buf.Bytes())
	}
	return nil
}
