package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// ndjsonLineSeeds cover the canonical envelope and every kind of line the
// single-pass decoder must hand to encoding/json.
var ndjsonLineSeeds = []string{
	`{"uri":"http://x/1","html":"<p>hi</p>"}`,
	`{"html":"<p>hi</p>","uri":"http://x/1"}`,
	" \t{ \"uri\" : \"u\" ,\t\"html\" : \"h\" } \r",
	`{"URI":"u","Html":"h"}`,
	`{"uri":"a","html":"h","uri":"b"}`,
	`{"uri":null,"html":"h"}`,
	`{"uri":7,"html":"h"}`,
	`{"uri":"u","html":"h","lang":"en"}`,
	`{"uri":"u","html":{"body":"h"}}`,
	`{"uri":"u","html":"<p> &amp; \"q\" \\ \/ \b\f\n\r\t \u00e9"}`,
	`{"uri":"u","html":"\ud83d\ude00 \ud834\udd1e"}`,
	`{"uri":"u","html":"lone \ud800 high"}`,
	`{"uri":"u","html":"\udc00\ud800 reversed"}`,
	`{"uri":"u","html":"bad \x escape"}`,
	"{\"uri\":\"u\",\"html\":\"invalid \xff\xfe utf-8\"}",
	"{\"uri\":\"u\",\"html\":\"raw \x01 control\"}",
	`{"uri":"u","html":"h"} trailing`,
	`{"uri":"u","html":"h"}{}`,
	`{"uri":"u","html":"unterminated`,
	`{"uri":"u","html":"h"}`,
	`{}`,
	`null`,
	`[1,2]`,
	"\v",
	"\u0085",
	"\u00a0{\"uri\":\"u\",\"html\":\"h\"}",
	" \t\r",
}

// FuzzNDJSONLine is the differential guarantee of the NDJSON source: for
// any line it accepts or rejects exactly what json.Unmarshal into
// PageLine accepts or rejects, with the same uri, html and error text.
func FuzzNDJSONLine(f *testing.F) {
	for _, s := range ndjsonLineSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if strings.Contains(line, "\n") || len(line) > 1<<16 {
			t.Skip("one bounded line")
		}
		var gotURI, gotHTML string
		src := NewNDJSONSource(strings.NewReader(line+"\n"), 1<<20, func(uri, html string) *core.Page {
			gotURI, gotHTML = uri, html
			return core.NewPageLazy(uri, html)
		})
		_, err := src.Next(context.Background())
		// The scanner drops the CR of a CRLF line ending.
		raw := []byte(strings.TrimSuffix(line, "\r"))
		if skipJSONSpace(raw, 0) == len(raw) {
			if err != io.EOF {
				t.Fatalf("blank line: Next = %v, want io.EOF", err)
			}
			return
		}
		var want PageLine
		if wantErr := json.Unmarshal(raw, &want); wantErr != nil {
			var pe *PageError
			if !errors.As(err, &pe) || pe.Line != 1 || pe.Err.Error() != wantErr.Error() {
				t.Fatalf("Next = %v, want line 1 error %q", err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Next = %v, json.Unmarshal accepts the line", err)
		}
		if gotURI != want.URI || gotHTML != want.HTML {
			t.Fatalf("decoded (%q, %q), json.Unmarshal (%q, %q)", gotURI, gotHTML, want.URI, want.HTML)
		}
	})
}

// TestCanonicalPageLineFastPath: lines encoding/json itself writes —
// HTML-escaped markup, any key order, supplementary-plane characters as
// raw UTF-8 or as surrogate-pair escapes — take the single-pass decoder,
// not the fallback.
func TestCanonicalPageLineFastPath(t *testing.T) {
	html := "<p class=\"a\">Café & \U0001F600\u2028</p>\t\\"
	marshaled, _ := json.Marshal(PageLine{URI: "http://x/1?a=1&b=<2>", HTML: html})
	var scratch []byte
	for _, line := range []string{
		string(marshaled),
		`{"html":"\ud83d\ude00\u00e9","uri":""}`,
		` {"uri" : "u"} `,
	} {
		got, ok := decodeCanonicalPageLine([]byte(line), &scratch)
		if !ok {
			t.Errorf("%s: fell back to encoding/json", line)
			continue
		}
		var want PageLine
		if err := json.Unmarshal([]byte(line), &want); err != nil || got != want {
			t.Errorf("%s: decoded %+v, json.Unmarshal %+v (%v)", line, got, want, err)
		}
	}
}

// TestNDJSONSourceOnlyJSONWhitespaceIsBlank: a line holding \v, \f,
// U+0085 or U+00A0 is not blank — it is a per-line error at its physical
// line number, not a page silently dropped.
func TestNDJSONSourceOnlyJSONWhitespaceIsBlank(t *testing.T) {
	input := " \n\u0085\n\v\n{\"uri\":\"http://x/4\",\"html\":\"<p>4</p>\"}\n\f\n\u00a0\n\t\r\n"
	src := NewNDJSONSource(strings.NewReader(input), 0, nil)
	var errLines []int
	var pages []string
	for {
		p, err := src.Next(context.Background())
		if err == io.EOF {
			break
		}
		var pe *PageError
		switch {
		case errors.As(err, &pe):
			errLines = append(errLines, pe.Line)
		case err != nil:
			t.Fatal(err)
		default:
			pages = append(pages, p.URI)
		}
	}
	if want := []int{2, 3, 5, 6}; !slices.Equal(errLines, want) {
		t.Errorf("error lines = %v, want %v", errLines, want)
	}
	if len(pages) != 1 || pages[0] != "http://x/4" {
		t.Errorf("pages = %v, want the line-4 page only", pages)
	}
}
