package osnhttp

import "hsprofiler/internal/osn"

// The HTML pages the paper's crawlers scraped, written with the same
// append encoder as /api/v1. Each writer takes view values, never the
// request, and produces exactly the bytes html/template produced from the
// pages it replaced (kept as the reference renderer in reference_test.go
// and checked against it by FuzzHTMLMatchesTemplates):
//
//   - text and quoted attribute values: NUL becomes U+FFFD, the five
//     specials and '+' become &#34; &amp; &#39; &#43; &lt; &gt;, and every
//     other byte passes through (text);
//   - a value after a URL attribute's path prefix: bytes outside RFC 3986's
//     unreserved and reserved sets are percent-encoded in lower-case hex,
//     valid %xx escapes are kept, then '&' and '+' become entities (url);
//   - next links: each carried value query-escaped (a path id
//     path-escaped) as net/url does, then escaped as above (queryValue,
//     pathSegment);
//   - numbers through strconv, a birthday as YYYY-MM-DD.
//
// The class markers and the closing </body></html> are the contract the
// client's parser (parse.go) validates.

var ctHTML = []string{"text/html; charset=utf-8"}

// htmlEscapes is html/template's htmlReplacementTable, which its text and
// quoted-attribute escapers share. A byte loop is exact: UTF-8 never
// folds an ASCII byte into a multi-byte rune, and bytes of invalid UTF-8
// pass through as the template's rune loop passes them.
var htmlEscapes = [256]string{
	0:    "\uFFFD",
	'"':  "&#34;",
	'&':  "&amp;",
	'\'': "&#39;",
	'+':  "&#43;",
	'<':  "&lt;",
	'>':  "&gt;",
}

// text appends s escaped for HTML text or a quoted attribute value.
func (e *enc) text(s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		if rep := htmlEscapes[s[i]]; rep != "" {
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, rep...)
			start = i + 1
		}
	}
	e.b = append(e.b, s[start:]...)
}

// Byte classes of the URL writers.
const (
	urlPercent  = iota // percent-encode
	urlKeep            // pass through
	urlEntity          // '&' or '+': an attribute entity
	urlReserved        // RFC 3986 reserved: kept by the normalizer, escaped in a query value
)

var urlClass = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] = urlKeep
	}
	for c := 'A'; c <= 'Z'; c++ {
		t[c] = urlKeep
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = urlKeep
	}
	for _, c := range "-._~" {
		t[c] = urlKeep
	}
	for _, c := range "!#$*,/:;=?@[]" {
		t[c] = urlReserved
	}
	t['&'], t['+'] = urlEntity, urlEntity
	return t
}()

func (e *enc) entity(c byte) {
	if c == '&' {
		e.raw("&amp;")
	} else {
		e.raw("&#43;")
	}
}

func (e *enc) percent(c byte, digits string) {
	e.b = append(e.b, '%', digits[c>>4], digits[c&0xf])
}

const upperHex = "0123456789ABCDEF"

// url appends s as html/template writes a value after a URL attribute's
// path prefix: its URL normalizer, then its attribute escaper.
func (e *enc) url(s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; urlClass[c] {
		case urlKeep, urlReserved:
			e.b = append(e.b, c)
		case urlEntity:
			e.entity(c)
		default:
			if c == '%' && i+2 < len(s) && isHex(s[i+1]) && isHex(s[i+2]) {
				e.b = append(e.b, c)
			} else {
				e.percent(c, hexDigits)
			}
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// queryValue appends url.QueryEscape(s) as it reads inside an href: of the
// escaped form (unreserved bytes, '+' for a space, upper-case %XX) the
// template's escapers change only the '+'.
func (e *enc) queryValue(s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case urlClass[c] == urlKeep:
			e.b = append(e.b, c)
		case c == ' ':
			e.entity('+')
		default:
			e.percent(c, upperHex)
		}
	}
}

// pathSegment appends url.PathEscape(s) as it reads inside an href:
// PathEscape also keeps "$&+:=@", of which '&' and '+' become entities.
func (e *enc) pathSegment(s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case urlClass[c] == urlKeep, c == '$', c == ':', c == '=', c == '@':
			e.b = append(e.b, c)
		case c == '&', c == '+':
			e.entity(c)
		default:
			e.percent(c, upperHex)
		}
	}
}

const (
	htmlHead = "<html><body>\n"
	htmlTail = "</body></html>"
)

func (e *enc) htmlSchools(schools []osn.SchoolRef) {
	e.raw(htmlHead + "<ul id=\"schools\">\n")
	for _, sc := range schools {
		e.raw(`<li class="school" data-id="`)
		e.int(sc.ID)
		e.raw(`"><span class="schoolname">`)
		e.text(sc.Name)
		e.raw(`</span> <span class="schoolcity">`)
		e.text(sc.City)
		e.raw("</span></li>\n")
	}
	e.raw("</ul>\n" + htmlTail)
}

// htmlResults writes a search result page; q is the request it answers,
// from which the next link is built.
func (e *enc) htmlResults(results []osn.SearchResult, more bool, q *query) {
	e.raw(htmlHead + "<div id=\"results\">\n")
	for _, r := range results {
		e.raw(`<div class="result" data-id="`)
		e.text(string(r.ID))
		e.raw(`"><span class="name">`)
		e.text(r.Name)
		e.raw("</span></div>\n")
	}
	e.raw("</div>\n")
	if more {
		e.raw(`<a class="next" href="`)
		switch q.kind {
		case searchSchool:
			e.raw("/find-friends?school=")
			e.int(q.school)
		case searchCity:
			e.raw("/city-search?city=")
			e.queryValue(q.city)
		case searchGraph:
			e.raw("/graph-search?school=")
			e.int(q.school)
			e.raw("&amp;current=")
			e.bit(q.current)
			e.raw("&amp;after=")
			e.int(q.after)
			e.raw("&amp;before=")
			e.int(q.before)
			e.raw("&amp;city=")
			e.queryValue(q.city)
		}
		e.nextPage("&amp;", q)
		e.raw(`">See more results</a>`)
	}
	e.raw("\n" + htmlTail)
}

// bit appends a flag as the query value 1 or 0.
func (e *enc) bit(v bool) {
	if v {
		e.b = append(e.b, '1')
	} else {
		e.b = append(e.b, '0')
	}
}

// nextPage ends a next link after sep: the following page, for the same
// account.
func (e *enc) nextPage(sep string, q *query) {
	e.raw(sep)
	e.raw("page=")
	e.int(q.page + 1)
	e.raw("&amp;acct=")
	e.queryValue(q.acct)
}

// htmlProfile writes a profile page. Every optional section keeps its
// line when hidden, as the template's {{if}} lines did.
func (e *enc) htmlProfile(pp *osn.PublicProfile) {
	e.raw(htmlHead + "<div id=\"profile\" data-id=\"")
	e.text(string(pp.ID))
	e.raw("\">\n<h1 class=\"name\">")
	e.text(pp.Name)
	e.raw("</h1>\n")
	if pp.HasPhoto {
		e.raw(`<img class="photo" src="/photo/`)
		e.url(string(pp.ID))
		e.raw(`.jpg">`)
	}
	e.raw("\n")
	e.span("gender", pp.Gender)
	e.span("network", pp.Network)
	if pp.HighSchool != "" {
		e.raw(`<div class="education"><span class="school">`)
		e.text(pp.HighSchool)
		e.raw(`</span> <span class="gradyear">Class of `)
		e.int(pp.GradYear)
		e.raw(`</span></div>`)
	}
	e.raw("\n")
	e.flag(pp.GradSchool, `<div class="gradschool">Graduate school</div>`)
	e.flag(pp.Relationship, `<span class="relationship">In a relationship</span>`)
	e.flag(pp.InterestedIn, `<span class="interested">Interested in</span>`)
	if pp.Birthday != nil {
		e.raw(`<span class="birthday">`)
		e.dateDigits(*pp.Birthday)
		e.raw(`</span>`)
	}
	e.raw("\n")
	e.span("hometown", pp.Hometown)
	e.span("currentcity", pp.CurrentCity)
	if pp.FriendListVisible {
		e.raw(`<a class="friendlink" href="/friends/`)
		e.url(string(pp.ID))
		e.raw(`">Friends</a>`)
	}
	e.raw("\n")
	if pp.PhotoCount != 0 {
		e.raw(`<span class="photocount">`)
		e.int(pp.PhotoCount)
		e.raw(`</span>`)
	}
	e.raw("\n")
	e.flag(pp.ContactInfo, `<span class="contact">Contact info</span>`)
	if pp.CanMessage {
		e.raw(`<a class="message" href="/message/`)
		e.url(string(pp.ID))
		e.raw(`">Message</a>`)
	}
	e.raw("\n")
	e.flag(pp.Searchable, `<meta class="searchable" content="1">`)
	e.raw("</div>\n" + htmlTail)
}

// span writes a profile line holding v in a span of the class, or an
// empty line when v is hidden.
func (e *enc) span(class, v string) {
	if v != "" {
		e.raw(`<span class="`)
		e.raw(class)
		e.raw(`">`)
		e.text(v)
		e.raw(`</span>`)
	}
	e.raw("\n")
}

// flag writes a profile line holding the fixed markup when v is set.
func (e *enc) flag(v bool, markup string) {
	if v {
		e.raw(markup)
	}
	e.raw("\n")
}

// A friend page is written in three parts, so its rows can stream from
// the platform's CSR row (see Server.friends).

func (e *enc) htmlFriendsHead() { e.raw(htmlHead + "<ul id=\"friends\">\n") }

func (e *enc) htmlFriend(f osn.FriendRef) {
	e.raw(`<li class="friend" data-id="`)
	e.text(string(f.ID))
	e.raw(`"><span class="name">`)
	e.text(f.Name)
	e.raw("</span></li>\n")
}

func (e *enc) htmlFriendsTail(id string, more bool, q *query) {
	e.raw("</ul>\n")
	if more {
		e.raw(`<a class="next" href="/friends/`)
		e.pathSegment(id)
		e.nextPage("?", q)
		e.raw(`">More friends</a>`)
	}
	e.raw("\n" + htmlTail)
}
