package osnhttp

import (
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"

	"hsprofiler/internal/faults"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/worldgen"
)

// TestJSONClientParityWithHTML serves one platform on both wires and checks
// the two clients decode identical values for every crawl primitive. The
// clients share tokens so the platform's per-account search views line up.
func TestJSONClientParityWithHTML(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	html := NewClient(srv.URL, srv.Client(), nil)
	if err := html.RegisterAccounts(2); err != nil {
		t.Fatal(err)
	}
	jc := NewJSONClient(srv.URL, srv.Client(), nil)
	jc.tokens = html.tokens

	ref, err := html.LookupSchool(p.Schools()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	jref, err := jc.LookupSchool(p.Schools()[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if ref != jref {
		t.Fatalf("LookupSchool: html %+v, json %+v", ref, jref)
	}

	for acct := 0; acct < 2; acct++ {
		for page := 0; ; page++ {
			hr, hMore, err := html.Search(acct, ref.ID, page)
			if err != nil {
				t.Fatal(err)
			}
			jr, jMore, err := jc.Search(acct, ref.ID, page)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hr, jr) || hMore != jMore {
				t.Fatalf("Search(acct=%d, page=%d): html (%v, %v), json (%v, %v)",
					acct, page, hr, hMore, jr, jMore)
			}
			if !hMore {
				break
			}
		}
	}

	res, _, err := html.Search(0, ref.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		hp, herr := html.Profile(0, r.ID)
		jp, jerr := jc.Profile(0, r.ID)
		if (herr == nil) != (jerr == nil) {
			t.Fatalf("Profile(%s): html err %v, json err %v", r.ID, herr, jerr)
		}
		if herr != nil {
			continue
		}
		if !reflect.DeepEqual(hp, jp) {
			t.Fatalf("Profile(%s):\nhtml %+v\njson %+v", r.ID, hp, jp)
		}
		hf, hMore, herr := html.FriendPage(0, r.ID, 0)
		jf, jMore, jerr := jc.FriendPage(0, r.ID, 0)
		if !errors.Is(jerr, herr) && (herr == nil) != (jerr == nil) {
			t.Fatalf("FriendPage(%s): html err %v, json err %v", r.ID, herr, jerr)
		}
		if herr == nil && (!reflect.DeepEqual(hf, jf) || hMore != jMore) {
			t.Fatalf("FriendPage(%s): html (%v, %v), json (%v, %v)", r.ID, hf, hMore, jf, jMore)
		}
	}

	// The JSON error mapping must agree with the HTML one on hidden and
	// not-found targets too.
	if _, err := jc.Profile(0, "no-such"); !errors.Is(err, osn.ErrNotFound) {
		t.Fatalf("json Profile(no-such) = %v, want ErrNotFound", err)
	}

	// The wires' path tables are all that differs in the other searches.
	type search func(c *Client, page int) ([]osn.SearchResult, bool, error)
	same := func(name string, page int, s search) bool {
		hr, hMore, herr := s(html, page)
		jr, jMore, jerr := s(jc, page)
		if herr != nil || jerr != nil {
			t.Fatalf("%s(page=%d): html err %v, json err %v", name, page, herr, jerr)
		}
		if !reflect.DeepEqual(hr, jr) || hMore != jMore {
			t.Fatalf("%s(page=%d): html (%v, %v), json (%v, %v)", name, page, hr, hMore, jr, jMore)
		}
		if page == 0 && len(hr) == 0 {
			t.Fatalf("%s(page=0) found nobody", name)
		}
		return hMore
	}
	walk := func(name string, s search) {
		for page := 0; ; page++ {
			if !same(name, page, s) {
				return
			}
		}
	}
	walk("CitySearch", func(c *Client, page int) ([]osn.SearchResult, bool, error) {
		return c.CitySearch(0, ref.City, page)
	})
	walk("GraphSearch(current)", func(c *Client, page int) ([]osn.SearchResult, bool, error) {
		return c.GraphSearch(1, osn.GraphQuery{SchoolID: 0, CurrentStudents: true}, page)
	})
	// The window fits on page 0, so page 1 is empty on both wires.
	window := func(c *Client, page int) ([]osn.SearchResult, bool, error) {
		return c.GraphSearch(0, osn.GraphQuery{SchoolID: ref.ID, GradYearAfter: 2010, GradYearBefore: 2015}, page)
	}
	walk("GraphSearch(window)", window)
	same("GraphSearch(window)", 1, window)
	for wire, c := range map[string]*Client{"html": html, "json": jc} {
		if _, err := c.LookupSchool("Nowhere High"); !errors.Is(err, osn.ErrNoSchool) {
			t.Fatalf("%s LookupSchool(Nowhere High) = %v, want ErrNoSchool", wire, err)
		}
	}
}

// TestParsePageMalformed checks every body-damage class maps to the
// transient ErrMalformed sentinel, which the crawler retries.
func TestParsePageMalformed(t *testing.T) {
	cases := []struct {
		name string
		body string
		key  string
	}{
		{"invalid JSON", `{"n":1,"results":[{"id":"u1","name":"A"}]`, "results"},
		{"html instead of JSON", `<html><body>search</body></html>`, "results"},
		{"missing container", `{"n":0,"more":false}`, "results"},
		{"wrong container", `{"n":1,"friends":[{"id":"u1","name":"A"}]}`, "results"},
		{"bad rows", `{"n":1,"results":[42]}`, "results"},
		{"count mismatch", `{"n":3,"results":[{"id":"u1","name":"A"}]}`, "results"},
		{"truncated with junk", `{"n":2,"results":[{"id":"u1","na<!-- x`, "friends"},
	}
	for _, tc := range cases {
		if _, _, err := parsePage([]byte(tc.body), tc.key); !errors.Is(err, osn.ErrMalformed) {
			t.Errorf("%s: parsePage = %v, want ErrMalformed", tc.name, err)
		}
	}
	// A healthy page must not trip the damage detector.
	rows, more, err := parsePage([]byte(`{"n":1,"results":[{"id":"u1","name":"A"}],"more":true}`), "results")
	if err != nil || len(rows) != 1 || !more {
		t.Fatalf("healthy page: rows=%v more=%v err=%v", rows, more, err)
	}
	// Empty-but-present container is valid (an exhausted page), not damage.
	if _, _, err := parsePage([]byte(`{"n":0,"results":[],"more":false}`), "results"); err != nil {
		t.Fatalf("empty page: %v", err)
	}
}

// TestAPIStatusErrMapping checks error statuses map onto the platform's
// error taxonomy whatever the body: an /api/v1 envelope, a damaged one, or
// an HTML-wire text body.
func TestAPIStatusErrMapping(t *testing.T) {
	env := func(code string) []byte {
		return []byte(`{"error":{"code":"` + code + `","message":"m"}}`)
	}
	cases := []struct {
		status int
		body   []byte
		want   error
	}{
		{401, env("unauthorized"), osn.ErrUnauthorized},
		{429, env("suspended"), osn.ErrSuspended},
		{503, env("throttled"), osn.ErrThrottled},
		{503, env("overload"), osn.ErrThrottled},
		{403, env("underage"), osn.ErrUnderage},
		{404, env("not_found"), osn.ErrNotFound},
		{410, env("hidden"), osn.ErrHidden},
		// Damaged envelope: the status still decides.
		{503, []byte("garbage"), osn.ErrThrottled},
		{404, []byte(`{"err`), osn.ErrNotFound},
		// HTML-wire text body.
		{410, []byte("hidden\n"), osn.ErrHidden},
	}
	for _, tc := range cases {
		if err := statusErr(tc.status, tc.body); !errors.Is(err, tc.want) {
			t.Errorf("statusErr(%d, %q) = %v, want %v", tc.status, tc.body, err, tc.want)
		}
	}
	// Unknown forward-compatible codes, and unmapped statuses on the HTML
	// wire, must stay errors without mapping to a sentinel by accident.
	for _, tc := range []struct {
		status int
		body   []byte
	}{
		{400, env("some_future_code")},
		{500, []byte("boom\n")},
	} {
		err := statusErr(tc.status, tc.body)
		if err == nil {
			t.Fatalf("statusErr(%d, %q) = nil", tc.status, tc.body)
		}
		for _, sentinel := range []error{osn.ErrThrottled, osn.ErrSuspended, osn.ErrMalformed,
			osn.ErrHidden, osn.ErrNotFound, osn.ErrUnauthorized, osn.ErrUnderage} {
			if errors.Is(err, sentinel) {
				t.Fatalf("statusErr(%d, %q) mapped to %v", tc.status, tc.body, sentinel)
			}
		}
	}
}

// TestJSONClientFaultDamage puts the fault middleware in front of the JSON
// server and checks wire damage surfaces as ErrMalformed — the same
// transient class the HTML parser reports — while healthy retries succeed.
func TestJSONClientFaultDamage(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{})
	inj := faults.New(faults.Config{Seed: 5, Truncate: 0.5, Garble: 0.5, MaxConsecutive: 2})
	srv := httptest.NewServer(inj.Middleware(NewServer(p)))
	defer srv.Close()
	c := NewJSONClient(srv.URL, srv.Client(), nil)
	if err := c.RegisterAccounts(1); err != nil {
		t.Fatal(err) // POSTs pass through the injector untouched
	}
	sawMalformed := false
	for i := 0; i < 20; i++ {
		_, _, err := c.Search(0, 0, 0)
		switch {
		case err == nil:
		case errors.Is(err, osn.ErrMalformed):
			sawMalformed = true
		default:
			t.Fatalf("request %d: unexpected error class %v", i, err)
		}
	}
	if !sawMalformed {
		t.Fatal("injector mangled nothing across 20 requests")
	}
	if inj.Stats().Total() == 0 {
		t.Fatal("injector reports no faults")
	}
	// MaxConsecutive guarantees the same request eventually serves clean.
	var ok bool
	for i := 0; i < 4 && !ok; i++ {
		_, _, err := c.Search(0, 0, 1)
		ok = err == nil
	}
	if !ok {
		t.Fatal("request never recovered within the consecutive-fault cap")
	}
}

// TestJSONClientErrorBodyDrained checks error responses carry a fully
// drained body so the transport can reuse the connection (the keep-alive
// test asserts reuse end to end; this guards the status path stays JSON).
func TestJSONClientErrorBodyDrained(t *testing.T) {
	_, c := testAPIServer(t, osn.Config{})
	_, err := c.Profile(0, "no-such")
	if !errors.Is(err, osn.ErrNotFound) {
		t.Fatalf("Profile = %v, want ErrNotFound", err)
	}
	if _, _, err := c.Search(5, 0, 0); err == nil {
		t.Fatal("unregistered account index did not error")
	}
}
