package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dom"
	"repro/internal/extract"
	"repro/internal/rule"
)

// pagesPerCluster is how many distinct pages each corpus cluster
// contributes. Streams cycle through them; it is far above the daemon's
// page-cache size (256 documents), so no workload fits in that cache.
const pagesPerCluster = 128

// repoInput is one repository the benchmark induces and loads through
// POST /repos.
type repoInput struct {
	name string
	repo *rule.Repository
	body []byte // wire JSON for POST /repos
	proc *extract.Processor
}

// benchPage is one generated page with its reference extraction.
type benchPage struct {
	repo string // owning repository, "" for pages no repository claims
	uri  string
	html string
	// htmlJSON is the page's NDJSON tail: `","html":<quoted html>}` plus
	// the newline, so a line is `{"uri":"` + uri + htmlJSON.
	htmlJSON []byte
	// record is the reference record, json-encoded exactly as the daemon
	// encodes it, and fails its failure strings.
	record []byte
	fails  []string
}

// inputs is everything a workload sends and checks, derived from one seed.
type inputs struct {
	repos    []*repoInput
	data     []*benchPage // pages of loaded repositories
	unrouted []*benchPage // pages no repository claims
}

func (in *inputs) repo(name string) *repoInput {
	for _, r := range in.repos {
		if r.name == name {
			return r
		}
	}
	return nil
}

// buildInputs generates the workload's corpus clusters from seed,
// induces one repository per routed cluster with core.Builder (ground
// truth as the oracle, as retrozilla does), records each cluster's
// routing signature, and computes every page's reference extraction
// through Processor.ExtractPage on the parsed DOM.
func buildInputs(w *workload, seed int64) (*inputs, error) {
	in := &inputs{}
	for i, name := range w.clusters {
		cl := generate(name, seed*7+int64(i))
		repo := rule.NewRepository(cl.Name)
		sample, _ := cl.RepresentativeSplit(10)
		builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
		if _, err := builder.BuildAll(repo, cl.ComponentNames()); err != nil {
			return nil, fmt.Errorf("inducing %s: %w", cl.Name, err)
		}
		infos := make([]cluster.PageInfo, 0, len(cl.Pages))
		for _, p := range cl.Pages {
			infos = append(infos, cluster.PageInfo{URI: p.URI, Doc: p.Doc})
		}
		repo.Signature = cluster.SignatureOf(infos)
		body, err := json.Marshal(repo)
		if err != nil {
			return nil, err
		}
		proc, err := extract.NewProcessor(repo)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", cl.Name, err)
		}
		ri := &repoInput{name: cl.Name, repo: repo, body: body, proc: proc.Freeze()}
		in.repos = append(in.repos, ri)
		for _, p := range cl.Pages {
			bp, err := newBenchPage(ri, p.URI, dom.Render(p.Doc))
			if err != nil {
				return nil, err
			}
			in.data = append(in.data, bp)
		}
	}
	for i, name := range w.unroutedClusters {
		cl := generate(name, seed*7+100+int64(i))
		for _, p := range cl.Pages {
			bp, err := newBenchPage(nil, p.URI, dom.Render(p.Doc))
			if err != nil {
				return nil, err
			}
			in.unrouted = append(in.unrouted, bp)
		}
	}
	return in, nil
}

func generate(name string, seed int64) *corpus.Cluster {
	switch name {
	case "movies":
		return corpus.GenerateMovies(corpus.DefaultMovieProfile(seed, pagesPerCluster))
	case "books":
		return corpus.GenerateBooks(corpus.DefaultBookProfile(seed, pagesPerCluster))
	case "stocks":
		return corpus.GenerateStocks(corpus.DefaultStockProfile(seed, pagesPerCluster))
	case "forum":
		return corpus.GenerateForum(corpus.DefaultForumProfile(seed, pagesPerCluster))
	}
	panic("unknown cluster " + name)
}

func newBenchPage(ri *repoInput, uri, html string) (*benchPage, error) {
	bp := &benchPage{uri: uri, html: html, htmlJSON: ndjsonTail(html)}
	if ri == nil {
		return bp, nil
	}
	bp.repo = ri.name
	el, fails := ri.proc.ExtractPage(core.NewPage(uri, html))
	var err error
	if bp.record, err = json.Marshal(el.JSONValue()); err != nil {
		return nil, err
	}
	for _, f := range fails {
		bp.fails = append(bp.fails, f.String())
	}
	return bp, nil
}

// jsonString quotes s the way encoding/json does (HTML-escaped).
func jsonString(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}

// ingestLine renders the page's /ingest NDJSON line under uri.
func (p *benchPage) ingestLine(dst []byte, uri string) []byte {
	dst = append(dst, `{"uri":"`...)
	dst = append(dst, uri...)
	return append(dst, p.htmlJSON...)
}

// resultTail is what a correct /ingest result line for the page ends
// with, after its router score: the record, any failures and the trace.
func (p *benchPage) resultTail(trace string) []byte {
	var b bytes.Buffer
	b.WriteString(`,"record":`)
	b.Write(p.record)
	if len(p.fails) > 0 {
		fails, _ := json.Marshal(p.fails) // a []string always marshals
		b.WriteString(`,"failures":`)
		b.Write(fails)
	}
	b.WriteString(`,"trace":`)
	b.Write(jsonString(trace))
	b.WriteString("}\n")
	return b.Bytes()
}

// extractResponse is the daemon's /extract body shape (field order and
// tags as the service encodes it).
type extractResponse struct {
	URI        string   `json:"uri"`
	Repo       string   `json:"repo"`
	Generation int      `json:"generation"`
	Record     any      `json:"record"`
	Failures   []string `json:"failures,omitempty"`
}

// expectedExtractBody is the exact /extract response body for the page
// when its repository serves at generation gen.
func (p *benchPage) expectedExtractBody(gen int) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(extractResponse{
		URI: p.uri, Repo: p.repo, Generation: gen,
		Record: json.RawMessage(p.record), Failures: p.fails,
	})
	return b.Bytes(), err
}

// permutation returns a seeded permutation of [0, n).
func permutation(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// hostURI moves uri onto a host unique to index i ("http://n<i>.<host>/…"),
// so a router that caches decisions by host and path shape sees a
// host it has never seen.
func hostURI(dst []byte, uri string, i int) []byte {
	const scheme = "http://"
	dst = append(dst, scheme...)
	dst = append(dst, 'n')
	dst = strconv.AppendInt(dst, int64(i), 10)
	dst = append(dst, '.')
	if len(uri) > len(scheme) && uri[:len(scheme)] == scheme {
		uri = uri[len(scheme):]
	}
	return append(dst, uri...)
}
