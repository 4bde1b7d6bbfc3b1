package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// errorsAs is a local alias so handlers read without an import dance.
func errorsAs(err error, target any) bool { return err != nil && errors.As(err, target) }

// ingestSummary is the trailing NDJSON line of an /ingest response: run
// totals plus the run-level error, if any. Clients tell it apart from
// page results by the "done" marker.
type ingestSummary struct {
	Done bool `json:"done"`
	pipeline.Stats
	Error string `json:"error,omitempty"`
	// Trace echoes the request trace ID (also in the X-Trace-Id header
	// and on every result line) so a saved NDJSON stream still names the
	// exchange it came from.
	Trace string `json:"trace,omitempty"`
}

// pipelineConfig is the one pipeline setup behind every server-side run
// (/ingest, /extract/batch, recrawls): classify+extract concurrency sized
// to the extraction pool, server-side extraction, pipeline telemetry and
// panic accounting.
func (s *Server) pipelineConfig(classify pipeline.Classifier) pipeline.Config {
	return pipeline.Config{
		Workers:    s.Pool.Workers(),
		Classifier: classify,
		Extractor:  extractor{s},
		Telemetry:  s.Metrics.Pipeline,
		OnPanic:    s.pipelinePanic,
	}
}

// handleIngest streams a whole site through the extraction pipeline:
// NDJSON {"uri","html"} pages in the request body, one NDJSON result per
// page in the response, a summary line last. Pages are auto-routed via
// the signature router unless ?repo= pins a repository.
//
// The handler runs full-duplex: results stream back while the request
// body is still being produced, through a bounded in-flight window — so
// a client can pipe an arbitrarily large crawl through without either
// side buffering the site, and a slow reader throttles the uploader.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// A failed run counts as an ingest error even though the HTTP status
	// is long gone once the stream started — operators watch the
	// /metrics error counters, not just response codes.
	s.endpoint("ingest", w, r, func() error { return s.serveNDJSON(w, r, false) })
}

// handleExtractBatch is the buffered mode of the NDJSON exchange: the
// whole batch is read before the first response write — the documented
// /extract/batch contract (the body is bounded by MaxBody, so buffering
// is safe, and clients need no streaming upload support) — and each
// line is an extractResult, with no summary line.
func (s *Server) handleExtractBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.endpoint("extract.batch", w, r, func() error { return s.serveNDJSON(w, r, true) })
}

// serveNDJSON runs one NDJSON extraction exchange: {"uri","html"} lines
// in, one result line per page out, flushed as each page completes.
// buffered selects the /extract/batch mode (see handleExtractBatch);
// otherwise it is the streaming /ingest exchange. Once a line is out the
// status is sent, so a run-level error travels in-band: on /ingest's
// summary line, or as a compact {"error"} line ending a cut batch.
func (s *Server) serveNDJSON(w http.ResponseWriter, r *http.Request, buffered bool) error {
	classify, err := s.requestClassifier(r)
	if err != nil {
		return err
	}
	trace := obs.Trace(r.Context())
	var body io.Reader = r.Body
	// The sink runs on one goroutine, so /ingest renders every page into
	// one reused ResultLine instead of boxing a fresh one per line.
	var rl pipeline.ResultLine
	line := func(it *pipeline.Item) any {
		rl = pipeline.MakeResultLine(it)
		rl.Trace = trace
		return &rl
	}
	if buffered {
		b, err := s.readBody(r)
		if err != nil {
			return err
		}
		if len(bytes.TrimSpace(b)) == 0 {
			return errf(http.StatusBadRequest, "empty batch")
		}
		body, line = bytes.NewReader(b), s.batchResult
	} else {
		// Interleave request-body reads with response writes (HTTP/1.1
		// servers otherwise discard the remaining body once the response
		// starts). On transports without support (HTTP/2 always
		// interleaves) this is a no-op.
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		// /ingest is exempt from the per-request deadline (instrument)
		// and from the http.Server read/write timeouts (main.go
		// carve-out): the stream lives as long as the site does. Clear
		// any connection deadlines the listener config set so a long
		// migration isn't cut off mid-stream; each page's wait for a pool
		// slot is still bounded (pipelineAdmissionWait).
		_ = rc.SetReadDeadline(time.Time{})
		_ = rc.SetWriteDeadline(time.Time{})
		// One connection per ingest exchange. A site migration is a
		// long-lived stream with nothing to reuse afterwards — and on
		// HTTP/1.1, reusing a connection after a full-duplex exchange
		// that did not consume its body to EOF races the server's
		// background-read accounting (the post-handler body drain fires
		// the deferred background read after abortPendingRead already
		// ran, panicking the next read on the connection).
		w.Header().Set("Connection", "close")
	}
	// Lines are bounded like /extract bodies; an /ingest stream itself is
	// unbounded — that is the point.
	src := pipeline.NewNDJSONSource(body, int(s.maxBody()), s.pageFor)

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	sink := pipeline.FuncSink(func(it *pipeline.Item) error {
		if err := enc.Encode(line(it)); err != nil {
			return err
		}
		flush()
		return nil
	})

	start := time.Now()
	stats, runErr := pipeline.Run(r.Context(), s.pipelineConfig(classify), src, sink)
	if buffered {
		if runErr != nil && responseStarted(w) {
			_ = enc.Encode(map[string]string{"error": runErr.Error()})
			flush()
		}
		return runErr
	}

	// The response status is long gone; a run-level failure travels
	// on the summary line instead.
	sum := ingestSummary{Done: true, Stats: stats, Trace: trace}
	if runErr != nil {
		sum.Error = runErr.Error()
	}
	_ = enc.Encode(sum)
	flush()

	level := slog.LevelInfo
	if runErr != nil {
		level = slog.LevelError
	}
	s.logger().LogAttrs(r.Context(), level, "ingest.done",
		slog.Int("pages", stats.Pages), slog.Int("extracted", stats.Extracted),
		slog.Int("unrouted", stats.Unrouted), slog.Int("pageErrors", stats.PageErrors),
		slog.Duration("duration", time.Since(start)),
		slog.String("error", sum.Error))
	return runErr
}
