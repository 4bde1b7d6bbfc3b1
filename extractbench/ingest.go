package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// unroutedEvery: on ingest_durable_mixed every fourth page is a page
	// no repository claims.
	unroutedEvery = 4
	// controlRate is the POST /repos rate beside the durable stream: low
	// enough to stay a control plane, high enough that p95 has ten
	// samples beyond it in a ten-second run.
	controlRate = 20.0
	// controlRepo is the repository the control writer re-posts.
	controlRepo = "books"
)

// ingestStream is the /ingest request body: NDJSON page lines, produced
// on demand until the run's duration has elapsed since the first byte.
// Line i's page and URI are a pure function of i, so the response reader
// recomputes what it expects without sharing state with the writer.
type ingestStream struct {
	in      *inputs
	durable bool
	order   []int // seeded order over in.data
	uorder  []int // seeded order over in.unrouted
	dur     time.Duration

	deadline time.Time
	buf      []byte
	off      int
	lines    atomic.Int64
	started  atomic.Int64 // unix nanos of the first byte
}

func newIngestStream(in *inputs, durable bool, seed int64, dur time.Duration) *ingestStream {
	s := &ingestStream{
		in: in, durable: durable, dur: dur,
		order: permutation(seed, len(in.data)),
	}
	if durable {
		s.uorder = permutation(seed+1, len(in.unrouted))
	}
	return s
}

// pageAt returns line i's page and appends its URI to dst. On the
// durable workload every line has a host of its own and every
// unroutedEvery-th line is an unrouted page.
func (s *ingestStream) pageAt(i int, dst []byte) (*benchPage, []byte) {
	if !s.durable {
		p := s.in.data[s.order[i%len(s.order)]]
		return p, append(dst, p.uri...)
	}
	var p *benchPage
	if i%unroutedEvery == unroutedEvery-1 {
		p = s.in.unrouted[s.uorder[(i/unroutedEvery)%len(s.uorder)]]
	} else {
		p = s.in.data[s.order[i%len(s.order)]]
	}
	return p, hostURI(dst, p.uri, i)
}

func (s *ingestStream) Read(b []byte) (int, error) {
	n := 0
	for n < len(b) {
		if s.off == len(s.buf) {
			i := int(s.lines.Load())
			now := time.Now()
			if i == 0 {
				s.started.Store(now.UnixNano())
				s.deadline = now.Add(s.dur)
			} else if now.After(s.deadline) {
				if n > 0 {
					return n, nil
				}
				return 0, io.EOF
			}
			var uri []byte
			var p *benchPage
			p, uri = s.pageAt(i, nil)
			s.buf = p.ingestLine(s.buf[:0], string(uri))
			s.off = 0
			s.lines.Add(1)
		}
		c := copy(b[n:], s.buf[s.off:])
		s.off += c
		n += c
	}
	return n, nil
}

// ingestSummary is the fields of the trailing /ingest line the benchmark checks.
type ingestSummary struct {
	Done     bool   `json:"done"`
	Pages    int    `json:"pages"`
	Unrouted int    `json:"unrouted"`
	Error    string `json:"error"`
	Trace    string `json:"trace"`
}

// runIngest streams one long /ingest request and checks every result
// line; on the durable workload a second connection re-posts a
// repository at controlRate meanwhile.
func runIngest(ctx context.Context, cfg *runConfig, in *inputs, d *daemon, _ map[string]int) (*measurement, error) {
	m := &measurement{}
	trace := fmt.Sprintf("bench-%s-%d", cfg.w.name, cfg.seed)
	stream := newIngestStream(in, cfg.w.durable, cfg.seed, cfg.dur)
	tails := map[*benchPage][]byte{}
	for _, p := range in.data {
		tails[p] = p.resultTail(trace)
	}
	var diskBefore int64
	if d.dataDir != "" {
		var err error
		if diskBefore, err = dirBytes(d.dataDir); err != nil {
			return nil, err
		}
	}

	ctrlCtx, stopCtrl := context.WithCancel(ctx)
	defer stopCtrl()
	var ctrl *controlResult
	var ctrlWG sync.WaitGroup
	if cfg.w.durable {
		ctrl = &controlResult{}
		ctrlWG.Add(1)
		go func() {
			defer ctrlWG.Done()
			ctrl.run(ctrlCtx, d, in.repo(controlRepo))
		}()
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/ingest", stream)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("X-Trace-Id", trace)
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("POST /ingest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("POST /ingest: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != trace {
		m.problem("X-Trace-Id %q, want %q", got, trace)
	}

	br := bufio.NewReaderSize(resp.Body, 1<<20)
	var sum ingestSummary
	var uri []byte
	var finished time.Time
	var win *windowCounter
	good, lines := 0, 0
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return nil, fmt.Errorf("reading /ingest results after %d lines: %w", lines, err)
		}
		if bytes.HasPrefix(line, []byte(`{"done":`)) {
			finished = time.Now()
			if err := json.Unmarshal(line, &sum); err != nil {
				return nil, fmt.Errorf("summary line: %w", err)
			}
			break
		}
		var p *benchPage
		p, uri = stream.pageAt(lines, uri[:0])
		if p.repo == "" {
			m.unrouted++
		} else {
			m.routed++
		}
		tail := tails[p]
		if cfg.w.durable && p.repo != "" {
			// The record names its page's URI (the @uri attribute); the
			// reference was extracted under the corpus URI.
			tail = bytes.ReplaceAll(tail, []byte(p.uri), uri)
		}
		if ok, why := checkResultLine(line, p, uri, trace, tail); ok {
			if win == nil {
				win = newWindowCounter(time.Unix(0, stream.started.Load()), int(cfg.dur/time.Second))
			}
			win.add(time.Now())
			good++
		} else {
			m.failed++
			m.problem("line %d (%s): %s: %.200s", lines, uri, why, line)
		}
		lines++
	}
	stopCtrl()
	ctrlWG.Wait()

	sent := int(stream.lines.Load())
	m.attempted = sent
	if lines != sent {
		m.failed += sent - lines
		m.problem("sent %d pages, got %d result lines", sent, lines)
	}
	if !sum.Done || sum.Pages != sent || sum.Unrouted != m.unrouted || sum.Error != "" || sum.Trace != trace {
		m.problem("summary %+v, want %d pages, %d unrouted, trace %q", sum, sent, m.unrouted, trace)
	}
	// Unrouted pages are answered correctly by an unrouted line; the
	// throughput counts every correctly answered page, per second of the
	// time the stream was being written.
	m.units = sent
	if win != nil {
		m.rate = win.medianRate()
	}
	wall := finished.Sub(time.Unix(0, stream.started.Load()))
	m.report = append(m.report, fmt.Sprintf("stream: %d pages (%d routed, %d unrouted, %d correct) in %.3fs (%.1f/s overall), %d bytes per line avg",
		sent, m.routed, m.unrouted, good, wall.Seconds(), float64(good)/wall.Seconds(), streamBytes(stream, sent)/int64(max(sent, 1))))

	if ctrl != nil {
		m.attempted += ctrl.sent
		m.failed += ctrl.failed
		for _, e := range ctrl.errs {
			m.problem("control POST /repos: %s", e)
		}
		lat := millis(ctrl.latency)
		m.extra = append(m.extra,
			namedValue{"control_p50_ms", percentile(lat, 50), "ms"},
			namedValue{"control_p95_ms", percentile(lat, 95), "ms"})
		m.report = append(m.report, fmt.Sprintf("control: %d POST /repos at %.0f/s beside the stream, %d failed",
			ctrl.sent, controlRate, ctrl.failed))
	}
	if d.dataDir != "" {
		after, err := dirBytes(d.dataDir)
		if err != nil {
			return nil, err
		}
		m.extra = append(m.extra, namedValue{"disk_bytes_per_page", float64(after-diskBefore) / float64(sent), "B"})
	}
	return m, nil
}

// streamBytes is the body size of the first n lines.
func streamBytes(s *ingestStream, n int) int64 {
	var total int64
	var uri []byte
	for i := 0; i < n; i++ {
		var p *benchPage
		p, uri = s.pageAt(i, uri[:0])
		total += int64(len(`{"uri":"`) + len(uri) + len(p.htmlJSON))
	}
	return total
}

// checkResultLine checks one /ingest result line against the reference:
// a routed page must come back from its own repository with a record
// byte-identical to the reference extraction, an unrouted page as an
// unrouted error; both carry the run's trace.
func checkResultLine(line []byte, p *benchPage, uri []byte, trace string, tail []byte) (bool, string) {
	head := append(append([]byte(`{"uri":"`), uri...), '"')
	if !bytes.HasPrefix(line, head) {
		return false, "wrong uri"
	}
	rest := line[len(head):]
	if p.repo == "" {
		if bytes.Contains(rest, []byte(`"repo":`)) || !bytes.Contains(rest, []byte(`,"error":"unrouted:`)) {
			return false, "page without a repository was not answered as unrouted"
		}
		if !bytes.HasSuffix(rest, append(append([]byte(`,"trace":`), jsonString(trace)...), "}\n"...)) {
			return false, "wrong trace"
		}
		return true, ""
	}
	repoHead := append(append([]byte(`,"repo":`), jsonString(p.repo)...), `,"score":`...)
	if !bytes.HasPrefix(rest, repoHead) {
		return false, "not routed to " + p.repo
	}
	rest = rest[len(repoHead):]
	if !bytes.HasSuffix(rest, tail) {
		return false, "record differs from the reference extraction"
	}
	score, err := strconv.ParseFloat(string(rest[:len(rest)-len(tail)]), 64)
	if err != nil || score <= 0 || score > 1 {
		return false, "bad router score"
	}
	return true, ""
}

// controlResult is the control writer's tally.
type controlResult struct {
	sent, failed int
	latency      []time.Duration // completion − due
	errs         []string
}

// run re-posts one repository on a fixed schedule (open loop, timed from
// each post's due time) until ctx ends. Every post stages and promotes a
// new version, appends to the WAL and re-registers the router signature.
func (c *controlResult) run(ctx context.Context, d *daemon, r *repoInput) {
	start := time.Now()
	gap := time.Duration(float64(time.Second) / controlRate)
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * gap)
		sleepUntil(due)
		if ctx.Err() != nil {
			return
		}
		c.sent++
		if _, err := d.postRepo(ctx, r); err != nil {
			if ctx.Err() != nil {
				// Cut off by the end of the run, not a daemon failure.
				c.sent--
				return
			}
			c.failed++
			if len(c.errs) < 3 {
				c.errs = append(c.errs, err.Error())
			}
			continue
		}
		c.latency = append(c.latency, time.Since(due))
	}
}
