package osnhttp

import (
	"fmt"
	"html"
	"strconv"
	"strings"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/sim"
)

// The crawler-side parser. The original study downloaded Facebook HTML and
// extracted fields with a custom parser; this one does the same against the
// simulator's pages. It makes one pass over a page's class="…" markers
// rather than building a DOM: the markers are a stable contract with the
// server's page writers (html.go), and the scanning tolerates reformatting
// around them.
//
// The pass returns exactly what scanning the page once per class returned
// before it (the reference helpers in parse_ref_test.go, checked against
// it on any input by FuzzDecodersMatchReference): each class keeps its own
// cursor, so a marker that a per-class scan would have skipped is skipped
// here too. Every string a decoder keeps is a substring of the page, which
// the wire's decoders copy out of the read buffer once.

// htmlWire is the HTML pages' half of Client.
var htmlWire = wire{
	find:    "/find-friends?",
	city:    "/city-search?",
	graph:   "/graph-search?",
	token:   func(b []byte) (string, error) { return parseToken(string(b)) },
	schools: func(b []byte) ([]osn.SchoolRef, error) { return pageSchools(string(b)) },
	results: func(b []byte) ([]osn.SearchResult, bool, error) { return parseResults(string(b)) },
	profile: func(b []byte, id osn.PublicID) (*osn.PublicProfile, error) { return pageProfile(string(b), id) },
	friends: func(b []byte) ([]osn.FriendRef, bool, error) {
		return pageRows[osn.FriendRef](string(b), "friends", "friend")
	},
}

// ErrMalformed reports a page that failed structural validation: truncated
// mid-transfer, garbled, or missing the container its endpoint always
// serves. Callers treat it as transient and refetch — a half-delivered
// friend-list page must never be mistaken for a short friend list. The
// sentinel value lives in osn so non-HTTP layers can classify it.
var ErrMalformed = osn.ErrMalformed

// malformed wraps a body-damage description in the transient sentinel.
func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// pageTrailer closes every page the server emits; its absence means the
// body was cut off.
const pageTrailer = "</body></html>"

// validatePage checks the structural contract every well-formed page
// satisfies: the endpoint's container element is present and the document
// is complete. It returns an ErrMalformed-wrapped error otherwise.
func validatePage(body, container string) error {
	if !strings.Contains(body, `id="`+container+`"`) {
		return malformed("missing %q container", container)
	}
	if !strings.HasSuffix(strings.TrimRight(body, " \t\r\n"), pageTrailer) {
		return malformed("truncated body")
	}
	return nil
}

const classAttr = `class="`

// nextClass finds the first class="…" marker at or after i. It returns the
// marker's class, where the marker starts, and the index just past its
// closing quote; at is -1 when no marker is left.
func nextClass(page string, i int) (class string, at, end int) {
	j := strings.Index(page[i:], classAttr)
	if j < 0 {
		return "", -1, 0
	}
	at = i + j
	v := at + len(classAttr)
	q := strings.IndexByte(page[v:], '"')
	if q < 0 {
		return "", -1, 0
	}
	return page[v : v+q], at, v + q + 1
}

// cursor is one class's own scan inside the pass: it takes a marker only
// at or after from, and takes none once done.
type cursor struct {
	from int
	done bool
}

func (c *cursor) takes(at int) bool { return !c.done && at >= c.from }

// markText reads the text of the element whose class marker ends at i:
// from the tag's '>' to the next '<', trimmed, with entities decoded. It
// moves c to the '<', or marks it done when the page ends first.
func markText(page string, i int, c *cursor) string {
	gt := strings.IndexByte(page[i:], '>')
	if gt < 0 {
		c.done = true
		return ""
	}
	start := i + gt + 1
	lt := strings.IndexByte(page[start:], '<')
	if lt < 0 {
		c.done = true
		return ""
	}
	c.from = start + lt
	return html.UnescapeString(strings.TrimSpace(page[start : start+lt]))
}

// markID reads the data-id attribute of the tag whose class marker ends at
// i, e.g. `<div class="result" data-id="u12">`; ok is false when the tag
// has none. It moves c to the tag's '>', or marks it done when the page
// ends first.
func markID(page string, i int, c *cursor) (id string, ok bool) {
	end := strings.IndexByte(page[i:], '>')
	if end < 0 {
		c.done = true
		return "", false
	}
	c.from = i + end
	const attr = `data-id="`
	tag := page[i : i+end]
	k := strings.Index(tag, attr)
	if k < 0 {
		return "", false
	}
	v := tag[k+len(attr):]
	q := strings.IndexByte(v, '"')
	if q < 0 {
		return "", false
	}
	return html.UnescapeString(v[:q]), true
}

// rowMarks is what one pass over a row page collects: the data-id of each
// row tag, the texts of up to two text classes, the number of row markers
// and whether a next link is present.
type rowMarks struct {
	ids    []string
	texts  [2][]string
	marked int
	next   bool
}

// scanRows makes the pass for the row class and the text classes (an
// empty one is unused), appending to m's slices.
func scanRows(page, class string, text [2]string, m rowMarks) rowMarks {
	var ids cursor
	var texts [2]cursor
	for c, at, end := nextClass(page, 0); at >= 0; c, at, end = nextClass(page, at+len(classAttr)) {
		if c == class {
			m.marked++
			if ids.takes(at) {
				if id, ok := markID(page, end, &ids); ok {
					m.ids = append(m.ids, id)
				}
			}
		}
		for k, t := range text {
			if c == t && t != "" && texts[k].takes(at) {
				if s := markText(page, end, &texts[k]); !texts[k].done {
					m.texts[k] = append(m.texts[k], s)
				}
			}
		}
		if c == "next" {
			m.next = true
		}
	}
	return m
}

// check verifies that every row marker yielded a parsed row: a mismatch
// means rows were damaged, and the page is reported malformed instead of
// silently shortened.
func (m *rowMarks) check(class string) error {
	if m.marked != len(m.ids) {
		return malformed("%d %q rows, parsed %d", m.marked, class, len(m.ids))
	}
	return nil
}

// nth returns texts[i], or "" when a damaged page yielded fewer texts.
func nth(texts []string, i int) string {
	if i < len(texts) {
		return texts[i]
	}
	return ""
}

// parseToken reads the bare token the HTML wire answers a registration with.
func parseToken(body string) (string, error) {
	tok := strings.TrimSpace(body)
	if tok == "" {
		return "", malformed("empty register response")
	}
	return tok, nil
}

// pageSchools extracts the portal directory, validating the page and
// every row's id.
func pageSchools(body string) ([]osn.SchoolRef, error) {
	if err := validatePage(body, "schools"); err != nil {
		return nil, err
	}
	var ids, names, cities [64]string
	m := scanRows(body, "school", [2]string{"schoolname", "schoolcity"},
		rowMarks{ids: ids[:0], texts: [2][]string{names[:0], cities[:0]}})
	if err := m.check("school"); err != nil {
		return nil, err
	}
	if len(m.ids) == 0 {
		return nil, nil
	}
	out := make([]osn.SchoolRef, len(m.ids))
	for i, s := range m.ids {
		id, err := strconv.Atoi(s)
		if err != nil {
			return nil, malformed("bad school id %q", s)
		}
		out[i] = osn.SchoolRef{ID: id, Name: nth(m.texts[0], i), City: nth(m.texts[1], i)}
	}
	return out, nil
}

// listRow is the shape of a search result and of a friend-list entry.
type listRow = struct {
	ID   osn.PublicID
	Name string
}

// pageRows extracts one page of class-marked rows from the container,
// validating the page and that no damaged row was dropped. A row's name is
// the name text of the same rank.
func pageRows[T ~listRow](body, container, class string) ([]T, bool, error) {
	if err := validatePage(body, container); err != nil {
		return nil, false, err
	}
	// The default pages' 20 or 40 rows fit these arrays, which stay on
	// the stack, so the result is the only slice allocated; a longer page
	// spills to the heap (pageSchools does the same).
	var ids, names [64]string
	m := scanRows(body, class, [2]string{"name"}, rowMarks{ids: ids[:0], texts: [2][]string{names[:0]}})
	if err := m.check(class); err != nil {
		return nil, false, err
	}
	if len(m.ids) == 0 {
		return nil, m.next, nil
	}
	out := make([]T, len(m.ids))
	for i, id := range m.ids {
		out[i] = T(listRow{ID: osn.PublicID(id), Name: nth(m.texts[0], i)})
	}
	return out, m.next, nil
}

// parseResults extracts one page of search results.
func parseResults(body string) ([]osn.SearchResult, bool, error) {
	return pageRows[osn.SearchResult](body, "results", "result")
}

// pageProfile extracts a profile from a page, first validating that the
// page arrived intact (ErrMalformed otherwise). A text field is its class's
// first element; a flag is set when any element carries its class.
func pageProfile(body string, id osn.PublicID) (*osn.PublicProfile, error) {
	if err := validatePage(body, "profile"); err != nil {
		return nil, err
	}
	pp := &osn.PublicProfile{ID: id}
	var gradYear, photoCount, birthday string
	var taken uint16 // the text classes whose first element was read
	first := func(bit uint16, dst *string, end int) {
		if taken&bit == 0 {
			taken |= bit
			*dst = markText(body, end, &cursor{})
		}
	}
	for c, at, end := nextClass(body, 0); at >= 0; c, at, end = nextClass(body, at+len(classAttr)) {
		switch c {
		case "name":
			first(1<<0, &pp.Name, end)
		case "gender":
			first(1<<1, &pp.Gender, end)
		case "network":
			first(1<<2, &pp.Network, end)
		case "school":
			first(1<<3, &pp.HighSchool, end)
		case "gradyear":
			first(1<<4, &gradYear, end)
		case "birthday":
			first(1<<5, &birthday, end)
		case "hometown":
			first(1<<6, &pp.Hometown, end)
		case "currentcity":
			first(1<<7, &pp.CurrentCity, end)
		case "photocount":
			first(1<<8, &photoCount, end)
		case "photo":
			pp.HasPhoto = true
		case "gradschool":
			pp.GradSchool = true
		case "relationship":
			pp.Relationship = true
		case "interested":
			pp.InterestedIn = true
		case "friendlink":
			pp.FriendListVisible = true
		case "contact":
			pp.ContactInfo = true
		case "message":
			pp.CanMessage = true
		case "searchable":
			pp.Searchable = true
		}
	}
	pp.Birthday = parseDate(birthday)
	if gradYear != "" {
		if n, err := strconv.Atoi(strings.TrimPrefix(gradYear, "Class of ")); err == nil {
			pp.GradYear = n
		}
	}
	if photoCount != "" {
		if n, err := strconv.Atoi(photoCount); err == nil {
			pp.PhotoCount = n
		}
	}
	return pp, nil
}

// parseDate reads a birthday as both wires write it, YYYY-MM-DD. Anything
// else reads as no birthday shown. Three runs of digits joined by '-' are
// parsed directly, as fmt.Sscanf reads them; other text goes through
// fmt.Sscanf, so the results are Sscanf's on every input.
func parseDate(s string) *sim.Date {
	if s == "" {
		return nil
	}
	var d sim.Date
	if digitDate(s, &d) {
		return &d
	}
	if _, err := fmt.Sscanf(s, "%d-%d-%d", &d.Year, &d.Month, &d.Day); err != nil {
		return nil
	}
	return &d
}

// digitDate parses s into d when s is three runs of ASCII digits joined
// by '-' and each fits an int.
func digitDate(s string, d *sim.Date) bool {
	for k, dst := range [3]*int{&d.Year, &d.Month, &d.Day} {
		if k > 0 {
			if s == "" || s[0] != '-' {
				return false
			}
			s = s[1:]
		}
		i := 0
		for i < len(s) && isDigit(s[i]) {
			i++
		}
		n, err := strconv.Atoi(s[:i])
		if i == 0 || err != nil {
			return false
		}
		*dst, s = n, s[i:]
	}
	return s == ""
}
