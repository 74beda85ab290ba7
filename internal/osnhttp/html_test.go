package osnhttp

import (
	"fmt"
	"html"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/sim"
	"hsprofiler/internal/worldgen"
)

// refNextURL is the next link a handler built before template escaping:
// each carried value query-escaped, a path id path-escaped.
func refNextURL(q *query, id string) string {
	acct := url.QueryEscape(q.acct)
	switch {
	case id != "":
		return fmt.Sprintf("/friends/%s?page=%d&acct=%s", url.PathEscape(id), q.page+1, acct)
	case q.kind == searchCity:
		return fmt.Sprintf("/city-search?city=%s&page=%d&acct=%s", url.QueryEscape(q.city), q.page+1, acct)
	case q.kind == searchGraph:
		current := "0"
		if q.current {
			current = "1"
		}
		return fmt.Sprintf("/graph-search?school=%d&current=%s&after=%d&before=%d&city=%s&page=%d&acct=%s",
			q.school, current, q.after, q.before, url.QueryEscape(q.city), q.page+1, acct)
	}
	return fmt.Sprintf("/find-friends?school=%d&page=%d&acct=%s", q.school, q.page+1, acct)
}

// htmlPages renders the same view values through the writers and the
// reference templates, page by page.
func htmlPages(name, city, id, token string, n int, bits uint16) (got, want []string) {
	add := func(fill func(e *enc), ref string) {
		e := getEnc()
		fill(e)
		got, want = append(got, string(e.b)), append(want, ref)
		putEnc(e)
	}
	bit := func(i uint) bool { return bits&(1<<i) != 0 }

	schools := []osn.SchoolRef{{ID: n, Name: name, City: city}, {ID: 7, Name: city, City: token}}
	add(func(e *enc) { e.htmlSchools(schools) }, refSchools(schools))

	results := []osn.SearchResult{{ID: osn.PublicID(id), Name: name}, {ID: osn.PublicID(token), Name: city}}
	for _, kind := range []searchKind{searchSchool, searchCity, searchGraph} {
		q := query{acct: token, page: n, kind: kind, school: n, city: city,
			current: bit(0), after: n / 3, before: -n}
		more := bit(1) || kind == searchGraph
		add(func(e *enc) { e.htmlResults(results, more, &q) }, refSearch(results, more, refNextURL(&q, "")))
	}

	birthday := sim.Date{Year: n & 0x3fff, Month: n >> 14 & 0xff, Day: n >> 22 & 0xff}
	pp := &osn.PublicProfile{
		ID: osn.PublicID(id), Name: name, HasPhoto: bit(2), Gender: city, Network: token,
		HighSchool: name, GradYear: n, GradSchool: bit(3), Relationship: bit(4), InterestedIn: bit(5),
		Hometown: token, CurrentCity: city, FriendListVisible: bit(6), PhotoCount: n - 1,
		ContactInfo: bit(7), CanMessage: bit(8), Searchable: bit(9),
	}
	if bit(10) {
		pp.Birthday = &birthday
	}
	if bit(11) {
		pp.HighSchool, pp.Gender = "", ""
	}
	add(func(e *enc) { e.htmlProfile(pp) }, refProfile(pp))

	friends := []osn.FriendRef{{ID: osn.PublicID(id), Name: name}, {ID: "u1", Name: city}}
	q := query{acct: token, page: n}
	more := bit(12)
	add(func(e *enc) {
		e.htmlFriendsHead()
		for _, f := range friends {
			e.htmlFriend(f)
		}
		e.htmlFriendsTail(id, more, &q)
	}, refFriends(friends, more, refNextURL(&q, id)))
	return got, want
}

// FuzzHTMLMatchesTemplates drives the page writers and the reference
// templates with the same view values and requires identical bytes.
// The seeds cover html/template's escaping corners: the specials and '+',
// NUL, non-ASCII, invalid UTF-8, the U+FDD0–U+FFFF noncharacters, percent
// escapes valid and not, and URL-significant bytes in ids and tokens.
func FuzzHTMLMatchesTemplates(f *testing.F) {
	f.Add("Ann O'Neil", "Rivercrest", "u1a2b3", "acct-1-crawler0", 2013, uint16(0xffff))
	f.Add(`<b>&"'+</b>`, "Ash & Oak+Vale", "u/1?x#y", "acct-1-a&b+c d", 0, uint16(0x1555))
	f.Add("nul\x00byte", "Zürich 日本", "%41%zz%", "tok%2F;,=@$:", -7, uint16(0x0aaa))
	f.Add("bad\xff\xfeutf8", "\uFDD0\uFDEF\uFFF0\uFFFE\uFFFF", "\u00e9\x00'", "javascript:alert(1)", 1<<30, uint16(0x1fff))
	f.Add("", "", "", "", 1, uint16(0))
	f.Fuzz(func(t *testing.T, name, city, id, token string, n int, bits uint16) {
		got, want := htmlPages(name, city, id, token, n, bits)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("page %d differs from the template:\nwriter:   %q\ntemplate: %q", i, got[i], want[i])
			}
		}
	})
}

// TestBadPageIs400: a negative or non-numeric page, or non-numeric graph
// year bounds, is a 400 on both wires; the HTML wire used to answer 500
// for a negative page and read a non-numeric one as 0.
func TestBadPageIs400(t *testing.T) {
	p, tok, open := statusWorld(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	acct := "acct=" + url.QueryEscape(tok)
	for _, path := range []string{
		"/friends/" + open + "?page=-1&" + acct,
		"/friends/" + open + "?page=x&" + acct,
		"/find-friends?school=0&page=-1&" + acct,
		"/find-friends?school=0&page=1x&" + acct,
		"/city-search?city=x&page=-1&" + acct,
		"/graph-search?school=0&page=-2&" + acct,
		"/graph-search?school=0&after=x&" + acct,
		"/graph-search?school=0&before=2013x&" + acct,
		"/api/v1/friends/" + open + "?page=-1&" + acct,
		"/api/v1/search?school=0&page=-1&" + acct,
		"/api/v1/search?graph=1&school=0&after=x&" + acct,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// nextHref extracts the decoded href of a page's next link.
func nextHref(t *testing.T, body string) string {
	t.Helper()
	const marker = `class="next" href="`
	i := strings.Index(body, marker)
	if i < 0 {
		t.Fatalf("page has no next link:\n%s", body)
	}
	href := body[i+len(marker):]
	return html.UnescapeString(href[:strings.IndexByte(href, '"')])
}

// TestNextLinkKeepsAccountAndCity follows the next link of every paged
// HTML endpoint for an account token and a city that need escaping
// ('&', '+', a space and a quote), and requires it to serve page 1 of the
// same query to the same account.
func TestNextLinkKeepsAccountAndCity(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	// Rename the first school's city, everywhere it appears, to one that
	// a raw query value would break.
	const city = "Ash & Oak+Vale d'Or"
	old := w.Schools[0].City
	for i := range w.Schools {
		if w.Schools[i].City == old {
			w.Schools[i].City = city
		}
	}
	for _, person := range w.People {
		if person.CurrentCity == old {
			person.CurrentCity = city
		}
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{SearchPageSize: 3, FriendPageSize: 3})
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	tok, err := p.RegisterAccount("a&b+c d", mustDate(1985, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.ContainsAny(tok, "&+ ") {
		t.Fatalf("token %q needs no escaping", tok)
	}
	get := func(path string) string {
		t.Helper()
		code, body := rawGet(t, srv, path)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, code, body)
		}
		return body
	}
	// results reads a result page back as the HTML client does.
	results := func(body string) []osn.SearchResult {
		t.Helper()
		res, _, err := parseResults(body)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	acct := "acct=" + url.QueryEscape(tok)
	esc := url.QueryEscape(city)
	graph := osn.GraphQuery{SchoolID: 0, City: city}
	searches := []struct {
		first string
		want  func() ([]osn.SearchResult, bool, error)
	}{
		{"/find-friends?school=0&" + acct, func() ([]osn.SearchResult, bool, error) { return p.SchoolSearch(tok, 0, 1) }},
		{"/city-search?city=" + esc + "&" + acct, func() ([]osn.SearchResult, bool, error) { return p.CitySearch(tok, city, 1) }},
		{"/graph-search?school=0&city=" + esc + "&" + acct, func() ([]osn.SearchResult, bool, error) { return p.GraphSearch(tok, graph, 1) }},
	}
	for _, s := range searches {
		next := nextHref(t, get(s.first))
		before := p.RequestsServed(tok)
		got := results(get(next))
		if p.RequestsServed(tok) != before+1 {
			t.Errorf("%s: next link %q was not served to %q", s.first, next, tok)
		}
		want, _, err := s.want()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: next link %q served %v, want page 1 %v", s.first, next, got, want)
		}
	}

	// A friend list longer than one page, in the renamed city.
	var id osn.PublicID
	for _, person := range w.People {
		pub, ok := p.PublicIDOf(person.ID)
		if !ok || person.CurrentCity != city {
			continue
		}
		if _, more, err := p.FriendPage(tok, pub, 0); err == nil && more {
			id = pub
			break
		}
	}
	if id == "" {
		t.Fatal("no multi-page friend list to follow")
	}
	next := nextHref(t, get("/friends/"+string(id)+"?"+acct))
	before := p.RequestsServed(tok)
	body := get(next)
	if p.RequestsServed(tok) != before+1 {
		t.Errorf("friends next link %q was not served to %q", next, tok)
	}
	want, _, err := p.FriendPage(tok, id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := classDataIDs(body, "friend"); len(got) != len(want) || got[0] != string(want[0].ID) {
		t.Errorf("friends next link %q served %v, want page 1 %v", next, got, want)
	}
	if !strings.Contains(next, "page=1&") {
		t.Errorf("friends next link %q is not page 1", next)
	}
}
