package extract

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONValueLeaf(t *testing.T) {
	e := NewElement("title")
	e.Text = "Taxi Driver"
	if got := e.JSONValue(); got != "Taxi Driver" {
		t.Fatalf("leaf = %#v", got)
	}
}

func TestJSONValueMultivaluedBecomesArray(t *testing.T) {
	page := NewElement("imdb-movie")
	page.SetAttr("uri", "http://x/1")
	page.Add(NewElement("title")).Text = "T"
	page.Add(NewElement("actor")).Text = "A"
	page.Add(NewElement("actor")).Text = "B"
	obj, ok := page.JSONValue().(map[string]any)
	if !ok {
		t.Fatalf("page = %#v", page.JSONValue())
	}
	if obj["@uri"] != "http://x/1" {
		t.Errorf("@uri = %v", obj["@uri"])
	}
	if obj["title"] != "T" {
		t.Errorf("single child must stay scalar: %v", obj["title"])
	}
	actors, ok := obj["actor"].([]any)
	if !ok || len(actors) != 2 || actors[0] != "A" || actors[1] != "B" {
		t.Errorf("actor = %#v", obj["actor"])
	}
}

func TestJSONValueNestedAggregate(t *testing.T) {
	page := NewElement("imdb-movie")
	op := page.Add(NewElement("users-opinion"))
	op.Add(NewElement("rating")).Text = "8.5/10"
	op.Add(NewElement("comment")).Text = "great"
	op.Add(NewElement("comment")).Text = "loved it"
	obj := page.JSONValue().(map[string]any)
	opinion, ok := obj["users-opinion"].(map[string]any)
	if !ok {
		t.Fatalf("users-opinion = %#v", obj["users-opinion"])
	}
	if opinion["rating"] != "8.5/10" {
		t.Errorf("rating = %v", opinion["rating"])
	}
	if cs, ok := opinion["comment"].([]any); !ok || len(cs) != 2 {
		t.Errorf("comment = %#v", opinion["comment"])
	}
}

func TestJSONValueAttributedLeaf(t *testing.T) {
	e := NewElement("page")
	e.SetAttr("uri", "u")
	e.Text = "body"
	obj, ok := e.JSONValue().(map[string]any)
	if !ok || obj["@uri"] != "u" || obj["#text"] != "body" {
		t.Fatalf("attributed leaf = %#v", e.JSONValue())
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	page := NewElement("movie")
	page.Add(NewElement("title")).Text = "T <&> \"q\""
	var b strings.Builder
	if err := page.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	movie := decoded["movie"].(map[string]any)
	if movie["title"] != "T <&> \"q\"" {
		t.Errorf("title = %v", movie["title"])
	}
	if b.String() != page.JSONString()+"\n" {
		t.Error("JSONString and WriteJSON disagree")
	}
}

// TestJSONMatchesExtraction ties the encoder to real extraction output:
// the Figure 5 movie pages rendered as JSON carry the same values as the
// XML document.
func TestJSONMatchesExtraction(t *testing.T) {
	repo := figure5Repo(t)
	p, err := NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	pages := moviePages()
	el, _ := p.ExtractPage(pages[0])
	obj, ok := el.JSONValue().(map[string]any)
	if !ok {
		t.Fatalf("JSONValue = %#v", el.JSONValue())
	}
	if obj["@uri"] != pages[0].URI {
		t.Errorf("@uri = %v", obj["@uri"])
	}
	for _, c := range el.Children {
		if _, present := obj[c.Name]; !present {
			t.Errorf("component %q missing from JSON", c.Name)
		}
	}
}

// fuzzNames are the element and attribute names fuzzed trees draw from:
// repeated names make multivalued groups, and "@id"/"#text" collide with
// the keys attributes and leaf text map to.
var fuzzNames = []string{"actor", "title", "id", "@id", "#text", "a<b>&c", "x\u2028y", "\xff", ""}

// fuzzElement decodes a byte program into an element tree. Each op byte
// adds a child, an attribute or text to the current element, or closes
// it; string operands are length-prefixed slices of the program, so
// values carry whatever bytes the fuzzer supplies.
func fuzzElement(prog []byte) *Element {
	str := func() string {
		if len(prog) == 0 {
			return ""
		}
		n := min(int(prog[0]&0x1f), len(prog)-1)
		s := string(prog[1 : 1+n])
		prog = prog[1+n:]
		return s
	}
	name := func() string {
		if len(prog) == 0 || prog[0] < 0x80 {
			i := 0
			if len(prog) > 0 {
				i = int(prog[0]) % len(fuzzNames)
				prog = prog[1:]
			}
			return fuzzNames[i]
		}
		return str()
	}
	root := NewElement("record")
	stack := []*Element{root}
	for len(prog) > 0 {
		op := prog[0]
		prog = prog[1:]
		cur := stack[len(stack)-1]
		switch op % 5 {
		case 0:
			child := cur.Add(NewElement(name()))
			if len(stack) < 8 {
				stack = append(stack, child)
			}
		case 1:
			cur.Attrs = append(cur.Attrs, Attr{Name: name(), Value: str()})
		case 2:
			cur.Text = str()
		case 3:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		case 4:
			cur.Add(&Element{Name: name(), Text: str()})
		}
	}
	return root
}

// FuzzRecordJSON is the differential guarantee of the record encoder:
// AppendJSON renders every element tree exactly as encoding/json renders
// its JSONValue, and appends without disturbing dst.
func FuzzRecordJSON(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{2, 5, 'T', 'a', 'x', 'i', '!'}, // leaf text
		{1, 2, 3, 'v', '<', '>', 1, 2, 1, '&', 2, 3, 1, 0x1f, '\n'},  // repeated attribute, #text, control bytes
		{4, 0, 1, 'A', 4, 0, 1, 'B', 4, 1, 1, 'C'},                   // repeated child names
		{1, 2, 1, 'a', 4, 3, 1, 'b'},                                 // child "@id" vs attribute id
		{0, 4, 2, 1, 't', 3, 4, 4, 1, 'u'},                           // children named "#text"
		{1, 5, 2, '<', '&', 4, 6, 3, 0xe2, 0x80, 0xa8},               // <>& and U+2028
		{4, 7, 2, 0xff, 0xfe, 1, 0x81, '@', 1, 0xc3},                 // invalid UTF-8
		{0, 0, 1, 2, 1, 'x', 0, 1, 4, 0, 1, 'y', 3, 3, 4, 0, 1, 'z'}, // nesting
		{0, 0x81, 'z', 4, 0x82, 'a', 'b', 1, 'q', 0, 3, '"', '\\', '/'},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		e := fuzzElement(prog)
		want, err := json.Marshal(e.JSONValue())
		if err != nil {
			t.Fatal(err)
		}
		if got := e.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON = %s\njson.Marshal = %s", got, want)
		}
		if got := e.AppendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendJSON onto a prefix = %s", got)
		}
	})
}
