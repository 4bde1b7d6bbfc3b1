package service

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/dom"
	"repro/internal/rule"
)

func TestPageCacheLRUEviction(t *testing.T) {
	c := NewPageCache(2)
	docs := make([]*dom.Node, 3)
	keys := make([]PageKey, 3)
	for i := range docs {
		body := fmt.Sprintf("<html><body><p>page %d</p></body></html>", i)
		docs[i] = dom.Parse(body)
		keys[i] = PageKeyOf([]byte(body))
	}
	c.Put(keys[0], docs[0], 100)
	c.Put(keys[1], docs[1], 100)
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("key 0 should be cached")
	}
	// key 1 is now least recently used; inserting key 2 evicts it.
	c.Put(keys[2], docs[2], 100)
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("key 1 should have been evicted")
	}
	if d, ok := c.Get(keys[0]); !ok || d != docs[0] {
		t.Fatal("key 0 lost or swapped")
	}
	if d, ok := c.Get(keys[2]); !ok || d != docs[2] {
		t.Fatal("key 2 missing")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestPageCacheByteBudgetEviction(t *testing.T) {
	c := NewPageCache(100)
	c.SetMaxBytes(250)
	doc := dom.Parse("<html><body>x</body></html>")
	var keys []PageKey
	for i := 0; i < 4; i++ {
		key := PageKeyOf([]byte(fmt.Sprintf("body-%d", i)))
		keys = append(keys, key)
		c.Put(key, doc, 100)
	}
	// 4×100 bytes against a 250-byte budget: only the two most recent fit.
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	for i, key := range keys {
		_, ok := c.Get(key)
		if want := i >= 2; ok != want {
			t.Fatalf("key %d cached=%v, want %v", i, ok, want)
		}
	}
	// One oversized entry still caches (single-slot degradation, no churn).
	big := PageKeyOf([]byte("huge"))
	c.Put(big, doc, 1000)
	if _, ok := c.Get(big); !ok {
		t.Fatal("oversized entry should occupy the single remaining slot")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after oversized put, want 1", c.Len())
	}
}

func TestPageCacheDisabled(t *testing.T) {
	if NewPageCache(0) != nil {
		t.Fatal("size 0 should disable the cache")
	}
	srv := NewServer(1, 1, nil)
	defer srv.Close()
	srv.PageCache = nil
	body := "<html><body><p>x</p></body></html>"
	p1 := srv.pageFor("", body)
	p2 := srv.pageFor("", body)
	if p1.Doc != nil || p2.Doc != nil {
		t.Fatal("pages should stay lazy until a consumer parses")
	}
	if p1.Document() == p2.Document() {
		t.Fatal("disabled cache must re-parse")
	}
	if p1.URI != p2.URI || !strings.HasPrefix(p1.URI, "request:") {
		t.Fatalf("synthetic URIs differ: %q vs %q", p1.URI, p2.URI)
	}
}

func TestPageForSharesParseKeepsURI(t *testing.T) {
	srv := NewServer(1, 1, nil)
	defer srv.Close()
	body := "<html><body><p>shared</p></body></html>"
	a := srv.pageFor("http://site/a", body)
	if a.Doc != nil {
		t.Fatal("cache miss should produce a lazy page")
	}
	// Materializing the tree admits it to the cache; the next identical
	// body draws the same document on the hit path.
	adoc := a.Document()
	b := srv.pageFor("http://site/b", body)
	if b.Doc != adoc {
		t.Fatal("identical bodies should share one parsed document")
	}
	if a.URI != "http://site/a" || b.URI != "http://site/b" {
		t.Fatalf("URIs not preserved: %q / %q", a.URI, b.URI)
	}
	other := srv.pageFor("http://site/c", "<html><body><p>different</p></body></html>")
	if other.Document() == adoc {
		t.Fatal("different bodies must not share a document")
	}
	snap := srv.Metrics.Snapshot()
	if snap.PageCacheHits != 1 || snap.PageCacheMisses != 2 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/2", snap.PageCacheHits, snap.PageCacheMisses)
	}
}

func TestPageCacheConcurrentAccess(t *testing.T) {
	c := NewPageCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				body := fmt.Sprintf("<html><body>%d</body></html>", i%16)
				key := PageKeyOf([]byte(body))
				if doc, ok := c.Get(key); ok {
					if doc == nil {
						t.Error("nil cached doc")
					}
					continue
				}
				c.Put(key, dom.Parse(body), int64(len(body)))
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("cache over capacity: %d", c.Len())
	}
}

// TestExtractEndpointUsesPageCache drives the real handler with repeated
// identical bodies. A stream-eligible repo extracts straight off the raw
// bytes — no tree is built, so the page cache stays cold and the stream
// counter records the hits. A general-XPath repo parses on the first
// request, admits the tree, and the second request reuses it.
func TestExtractEndpointUsesPageCache(t *testing.T) {
	cl, repo := buildMoviesRepo(t, 21, 12)
	srv, ts := newTestServer(t)
	postJSONRepo(t, ts.URL, repo, "")

	// An unpositioned text step needs the general evaluator, so this repo
	// always takes the parse+DOM path.
	general := rule.NewRepository("generalcluster")
	if err := general.Record(rule.Rule{
		Name: "title", Optionality: rule.Optional, Multiplicity: rule.Multivalued,
		Format: rule.Text, Locations: []string{"//H1/text()"},
	}); err != nil {
		t.Fatal(err)
	}
	postJSONRepo(t, ts.URL, general, "")

	html := dom.Render(cl.Pages[0].Doc)
	doExtract := func(repoName string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/extract?repo="+repoName+"&uri=http://x/p1",
			"text/html", strings.NewReader(html))
		if err != nil {
			t.Fatal(err)
		}
		buf := new(strings.Builder)
		if _, err := io.Copy(buf, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repo %s: status %d: %s", repoName, resp.StatusCode, buf.String())
		}
		return buf.String()
	}

	if first, second := doExtract(cl.Name), doExtract(cl.Name); first != second {
		t.Fatal("repeat stream extraction differs from the first")
	}
	snap := srv.Metrics.Snapshot()
	if snap.StreamHits != 2 || snap.StreamFallbacks != 0 {
		t.Fatalf("stream counters hits=%d fallbacks=%d, want 2/0",
			snap.StreamHits, snap.StreamFallbacks)
	}
	if snap.PageCacheHits != 0 || snap.PageCacheMisses != 2 {
		t.Fatalf("cache counters hits=%d misses=%d, want 0/2 (stream path builds no tree)",
			snap.PageCacheHits, snap.PageCacheMisses)
	}

	if first, second := doExtract("generalcluster"), doExtract("generalcluster"); first != second {
		t.Fatal("cached extraction differs from the first")
	}
	snap = srv.Metrics.Snapshot()
	if snap.PageCacheHits != 1 || snap.PageCacheMisses != 3 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/3", snap.PageCacheHits, snap.PageCacheMisses)
	}
	if snap.StreamFallbackReasons["general-xpath"] != 2 {
		t.Fatalf("fallback reasons = %v, want general-xpath=2", snap.StreamFallbackReasons)
	}
}

// TestPageForStringHashesInPlace: a body is keyed without copying it
// into a []byte — under the same key PageKeyOf gives its bytes — and an
// anonymous body is named by the synthetic URI of that key and shares
// the cache entry of the identical named body.
func TestPageForStringHashesInPlace(t *testing.T) {
	srv := NewServer(1, 1, nil)
	defer srv.Close()
	html := "<html><body>" + strings.Repeat("<p>row</p>", 200) + "</body></html>"
	if got, want := pageKeyOfString(html), PageKeyOf([]byte(html)); got != want {
		t.Fatal("string key differs from the byte-slice key")
	}
	doc := srv.pageFor("http://site/a", html).Document()
	p := srv.pageFor("", html)
	if p.Doc != doc || p.URI != syntheticURI(PageKeyOf([]byte(html))) || p.URI != srv.pageFor("", html).URI {
		t.Fatal("anonymous bodies must share the cache entry and the content-addressed URI")
	}
	// The hit path allocates the Page and nothing else.
	allocs := testing.AllocsPerRun(100, func() {
		if srv.pageFor("http://site/a", html).Doc != doc {
			t.Error("cache miss")
		}
	})
	if allocs > 1 {
		t.Errorf("pageFor cache hit allocates %.1f/op, want 1", allocs)
	}
}
