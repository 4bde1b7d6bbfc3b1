package extract

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"unicode/utf8"
)

// JSON rendering of extraction output, the service-friendly sibling of
// the paper's XML document: the same element tree, mapped with a compact
// XML→JSON convention so records round-trip into ordinary JSON consumers.
//
// Mapping rules:
//
//   - attributes become "@name" keys;
//   - a leaf element (no children) contributes its text as a plain string,
//     or an object carrying "@attrs" plus "#text" when it has attributes;
//   - children are grouped by element name; a name occurring once maps to
//     its value, a name occurring several times maps to an array — so
//     multivalued components ("actor") naturally become JSON arrays;
//   - an element with both attributes and children merges "@attr" keys
//     into the children object.
//
// The grouping loses sibling interleaving order between *different*
// component names, which the XML keeps; order among same-named siblings
// is preserved. That trade is standard for record-oriented consumers —
// anyone who needs exact document order asks for XML.

// JSONValue returns the element rendered as a generic JSON-ready value
// (string or map[string]any), following the package's XML→JSON mapping.
func (e *Element) JSONValue() any {
	if len(e.Children) == 0 && len(e.Attrs) == 0 {
		return e.Text
	}
	obj := make(map[string]any, len(e.Attrs)+len(e.Children)+1)
	for _, a := range e.Attrs {
		obj["@"+a.Name] = a.Value
	}
	if len(e.Children) == 0 {
		if e.Text != "" {
			obj["#text"] = e.Text
		}
		return obj
	}
	// Group children by name, preserving per-name order.
	order := make([]string, 0, len(e.Children))
	grouped := map[string][]any{}
	for _, c := range e.Children {
		if _, seen := grouped[c.Name]; !seen {
			order = append(order, c.Name)
		}
		grouped[c.Name] = append(grouped[c.Name], c.JSONValue())
	}
	for _, name := range order {
		vs := grouped[name]
		if len(vs) == 1 {
			obj[name] = vs[0]
		} else {
			obj[name] = vs
		}
	}
	return obj
}

// WriteJSON serializes the element as indented JSON, wrapped in a
// single-key object naming the element — the JSON analogue of WriteXML.
func (e *Element) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{e.Name: e.JSONValue()})
}

// JSONString returns the serialized JSON document.
func (e *Element) JSONString() string {
	b, err := json.MarshalIndent(map[string]any{e.Name: e.JSONValue()}, "", "  ")
	if err != nil {
		return ""
	}
	return string(b)
}

// AppendJSON appends the element's JSON rendering to dst and returns the
// extended buffer. The bytes equal json.Marshal(e.JSONValue()) — keys in
// sorted order, a child group overriding a same-named "@attr" key and a
// later attribute an earlier one, strings HTML-escaped, invalid UTF-8 as
// \ufffd, U+2028/U+2029 escaped — but no intermediate map or reflection
// is involved: into a buffer with room, a record costs no allocation.
func (e *Element) AppendJSON(dst []byte) []byte {
	if len(e.Children) == 0 && len(e.Attrs) == 0 {
		return appendJSONString(dst, e.Text)
	}
	// Every map assignment JSONValue makes, in assignment order: the
	// stable sort keeps that order within a key, so the last entry of a
	// run of equal keys is the one the map keeps.
	var stack [32]jsonKey
	keys := stack[:0]
	for i, a := range e.Attrs {
		keys = append(keys, jsonKey{name: a.Name, attr: true, idx: i})
	}
	if len(e.Children) == 0 && e.Text != "" {
		keys = append(keys, jsonKey{name: "#text"})
	}
	for i, c := range e.Children {
		keys = append(keys, jsonKey{name: c.Name, child: true, idx: i})
	}
	slices.SortStableFunc(keys, compareJSONKeys)
	dst = append(dst, '{')
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && compareJSONKeys(keys[i], keys[j]) == 0 {
			j++
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		k, last := keys[i], keys[j-1]
		if k.attr {
			dst = append(dst, '"', '@')
			dst = appendJSONStringBody(dst, k.name)
			dst = append(dst, '"')
		} else {
			dst = appendJSONString(dst, k.name)
		}
		dst = append(dst, ':')
		switch {
		case last.child:
			// Same-named children group, in document order, after any
			// colliding attribute.
			first := i
			for !keys[first].child {
				first++
			}
			group := keys[first:j]
			if len(group) == 1 {
				dst = e.Children[group[0].idx].AppendJSON(dst)
				break
			}
			dst = append(dst, '[')
			for n, c := range group {
				if n > 0 {
					dst = append(dst, ',')
				}
				dst = e.Children[c.idx].AppendJSON(dst)
			}
			dst = append(dst, ']')
		case last.attr:
			dst = appendJSONString(dst, e.Attrs[last.idx].Value)
		default:
			dst = appendJSONString(dst, e.Text)
		}
		i = j
	}
	return append(dst, '}')
}

// jsonKey is one key assignment of an element's JSON object: the key is
// "@"+name for an attribute, name otherwise; idx indexes Attrs or
// Children.
type jsonKey struct {
	name        string
	attr, child bool
	idx         int
}

// compareJSONKeys orders keys the way encoding/json sorts map keys —
// bytewise on the full key — without building the "@"+name strings.
func compareJSONKeys(a, b jsonKey) int {
	switch {
	case a.attr == b.attr:
		return strings.Compare(a.name, b.name)
	case b.attr:
		return -compareJSONKeys(b, a)
	}
	// a is "@"+a.name, b is plain.
	if b.name == "" {
		return 1
	}
	if c := cmp.Compare('@', b.name[0]); c != 0 {
		return c
	}
	return strings.Compare(a.name, b.name[1:])
}

// appendJSONString appends s as a JSON string literal, escaped exactly
// as encoding/json escapes it by default.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendJSONStringBody(dst, s)
	return append(dst, '"')
}

// appendJSONStringBody appends the escaped contents of a JSON string
// literal: encoding/json's rules with HTML escaping on.
func appendJSONStringBody(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
