package cache

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"hsprofiler/internal/crawler"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/sim"
)

// reload writes c's archive and restores it over inner.
func reload(t testing.TB, c *Cache, inner crawler.Client) *Cache {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf, inner)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// walk fetches id's friend list from page 0 until the last page and
// returns the pages and their has-more flags.
func walk(t testing.TB, c *Cache, id osn.PublicID) ([][]osn.FriendRef, []bool) {
	t.Helper()
	var pages [][]osn.FriendRef
	var mores []bool
	for pg := 0; ; pg++ {
		batch, more, err := c.FriendPage(0, id, pg)
		if err != nil {
			t.Fatalf("%s page %d: %v", id, pg, err)
		}
		pages = append(pages, batch)
		mores = append(mores, more)
		if !more {
			return pages, mores
		}
	}
}

// TestStoreProfileRoundTrip: a fetched profile survives the archive with
// every field, and the restored cache serves it without asking the
// platform; a profile never fetched is not held.
func TestStoreProfileRoundTrip(t *testing.T) {
	inner := newScript()
	pp := &osn.PublicProfile{ID: "u1", Name: "Ann", HighSchool: "X High", GradYear: 2013,
		Birthday: &sim.Date{Year: 1996, Month: 4, Day: 2}, CanMessage: true}
	inner.profiles["u1"] = pp
	c := New(inner)
	if _, err := c.Profile(0, "u1"); err != nil {
		t.Fatal(err)
	}
	got, err := reload(t, c, inner).Profile(0, "u1")
	if err != nil || !reflect.DeepEqual(got, pp) {
		t.Fatalf("restored profile %+v, %v; want %+v", got, err, pp)
	}
	if n := inner.calls("u1"); n != 1 {
		t.Fatalf("restored cache asked the platform: %d profile fetches, want 1", n)
	}
	if _, err := reload(t, c, inner).Profile(0, "u2"); !errors.Is(err, osn.ErrNotFound) {
		t.Fatalf("ghost profile: %v", err)
	}
}

// TestStoreFriendsAndHidden: a walked list and a hidden verdict are held
// and counted; a list never asked for is not.
func TestStoreFriendsAndHidden(t *testing.T) {
	inner := newScript()
	inner.friends["a"] = [][]osn.FriendRef{{{ID: "b", Name: "Bo"}}}
	inner.hidden["c"] = true
	c := New(inner)
	if f, more, err := c.FriendPage(0, "a", 0); err != nil || more || len(f) != 1 {
		t.Fatalf("a: %v %v %v", f, more, err)
	}
	if _, _, err := c.FriendPage(0, "c", 0); !errors.Is(err, osn.ErrHidden) {
		t.Fatalf("c: %v", err)
	}
	if n := c.Contents(); n != (Contents{FriendLists: 1, HiddenLists: 1}) {
		t.Fatalf("contents %+v", n)
	}
	if _, _, err := reload(t, c, inner).FriendPage(0, "c", 0); !errors.Is(err, osn.ErrHidden) {
		t.Fatalf("hidden marker lost: %v", err)
	}
}

// TestStoreJSONRoundTrip: the archive restores every kind of entry, serves
// each with the page boundaries the platform used and without asking it,
// and writes back byte for byte.
func TestStoreJSONRoundTrip(t *testing.T) {
	inner := newScript()
	inner.profiles["u1"] = &osn.PublicProfile{ID: "u1", Name: "Ann"}
	inner.friends["u1"] = [][]osn.FriendRef{{{ID: "u2", Name: "Bo"}, {ID: "u4"}}, {{ID: "u5"}}, {}}
	inner.friends["u6"] = [][]osn.FriendRef{{{ID: "u7"}}, {{ID: "u8"}}}
	inner.hidden["u3"] = true
	c := New(inner)
	if _, err := c.Profile(0, "u1"); err != nil {
		t.Fatal(err)
	}
	wantPages, wantMores := walk(t, c, "u1")
	c.FriendPage(0, "u3", 0)
	c.FriendPage(0, "u6", 0) // a walk interrupted after its first page
	var first bytes.Buffer
	if err := c.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(first.Bytes()), inner)
	if err != nil {
		t.Fatal(err)
	}
	if got.Contents() != c.Contents() || c.Contents() != (Contents{Profiles: 1, FriendLists: 1, HiddenLists: 1, PartialLists: 1}) {
		t.Fatalf("contents %+v, restored %+v", c.Contents(), got.Contents())
	}
	var second bytes.Buffer
	if err := got.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if second.String() != first.String() {
		t.Fatalf("archive changed across a round trip:\n%s\n%s", first.String(), second.String())
	}
	if pp, err := got.Profile(0, "u1"); err != nil || pp.Name != "Ann" {
		t.Fatalf("profile lost: %+v, %v", pp, err)
	}
	pages, mores := walk(t, got, "u1")
	if !reflect.DeepEqual(mores, wantMores) || len(pages) != len(wantPages) {
		t.Fatalf("replayed %d pages %v, served %d pages %v", len(pages), mores, len(wantPages), wantMores)
	}
	for i := range pages {
		if len(pages[i]) != len(wantPages[i]) {
			t.Fatalf("page %d replayed with %d entries, served with %d", i, len(pages[i]), len(wantPages[i]))
		}
	}
	if _, _, err := got.FriendPage(0, "u3", 0); !errors.Is(err, osn.ErrHidden) {
		t.Fatalf("hidden marker lost in round trip: %v", err)
	}
	if b, more, err := got.FriendPage(0, "u6", 0); err != nil || !more || len(b) != 1 {
		t.Fatalf("partial walk lost in round trip: %v %v %v", b, more, err)
	}
	for key, n := range inner.pageCalls {
		if n != 1 {
			t.Fatalf("%s reached the platform %d times, want 1", key, n)
		}
	}
	if n := inner.calls("u1"); n != 1 {
		t.Fatalf("profile reached the platform %d times, want 1", n)
	}
}

// storeArchive is an archive of the retired crawl store (format version 1),
// with the null profile it used to accept.
const storeArchive = `{"version":1,"seq":1,"profiles":{"x":{"profile":null,"seq":1}},"friends":{}}`

func TestReadJSONRejectsGarbage(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"not JSON", "nope"},
		{"truncated", `{"version":2,"profiles":{`},
		{"no version", `{}`},
		{"version 9", `{"version":9}`},
		{"store archive", storeArchive},
		{"null profile", `{"version":2,"profiles":{"x":null}}`},
		{"store-style profile", `{"version":2,"profiles":{"x":{"profile":null}}}`},
		{"profile under another id", `{"version":2,"profiles":{"x":{"ID":"y"}}}`},
		{"null friend list", `{"version":2,"friends":{"x":null}}`},
		{"hidden list with pages", `{"version":2,"friends":{"x":{"hidden":true,"pages":[[{"ID":"y"}]]}}}`},
		{"hidden complete list", `{"version":2,"friends":{"x":{"hidden":true,"complete":true}}}`},
		{"complete list without pages", `{"version":2,"friends":{"x":{"complete":true}}}`},
		{"partial list without pages", `{"version":2,"friends":{"x":{}}}`},
	} {
		if _, err := ReadJSON(strings.NewReader(tc.in), newScript()); !errors.Is(err, ErrArchive) {
			t.Errorf("%s: got %v, want ErrArchive", tc.name, err)
		}
	}
	if _, err := ReadJSON(strings.NewReader(storeArchive), newScript()); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("store archive: error %v does not name its version", err)
	}
	c, err := ReadJSON(strings.NewReader(`{"version":2}`), newScript())
	if err != nil || c.Contents() != (Contents{}) {
		t.Fatalf("empty archive: %+v, %v", c, err)
	}
}

// TestStorePartialCheckpointAndPromotion: a walk interrupted mid-list is
// held page by page; out-of-order and repeated pages do not corrupt it; it
// survives the archive; and finishing the walk on the restored cache
// promotes it to a complete list in walk order.
func TestStorePartialCheckpointAndPromotion(t *testing.T) {
	inner := newScript()
	inner.friends["a"] = [][]osn.FriendRef{{{ID: "b"}, {ID: "c"}}, {{ID: "d"}}, {{ID: "e"}}}
	c := New(inner)
	for pg := 0; pg < 2; pg++ {
		if _, more, err := c.FriendPage(0, "a", pg); err != nil || !more {
			t.Fatalf("page %d: more=%v err=%v", pg, more, err)
		}
	}
	// Out-of-order and duplicate fetches are not recorded, and a jump on a
	// list never walked creates no entry.
	c.FriendPage(0, "a", 0)
	c.FriendPage(0, "a", 5)
	c.FriendPage(0, "z", 3)
	if n := c.Contents(); n != (Contents{PartialLists: 1}) {
		t.Fatalf("contents %+v, want one partial list", n)
	}
	if e := c.friends["a"]; len(e.Pages) != 2 || e.Complete || e.Pages[1][0].ID != "d" {
		t.Fatalf("checkpoint %+v", e)
	}
	got := reload(t, c, inner)
	if n := got.Contents(); n != (Contents{PartialLists: 1}) {
		t.Fatalf("checkpoint lost in round trip: %+v", n)
	}
	pages, _ := walk(t, got, "a")
	var ids []osn.PublicID
	for _, p := range pages {
		for _, f := range p {
			ids = append(ids, f.ID)
		}
	}
	if !reflect.DeepEqual(ids, []osn.PublicID{"b", "c", "d", "e"}) {
		t.Fatalf("promoted walk %v", ids)
	}
	if n := got.Contents(); n != (Contents{FriendLists: 1}) {
		t.Fatalf("checkpoint not promoted: %+v", n)
	}
	if inner.pages("a", 0) != 1 || inner.pages("a", 1) != 1 || inner.pages("a", 2) != 1 {
		t.Fatal("the resumed walk re-fetched its checkpointed prefix")
	}
}

// TestPageOfBounds: a negative page is an error before any lookup (it used
// to index out of range once the list was held), and a page past the end
// of a complete list comes back empty with no more to follow.
func TestPageOfBounds(t *testing.T) {
	inner := newScript()
	inner.friends["u"] = [][]osn.FriendRef{{{ID: "f1"}}, {{ID: "f2"}}}
	c := New(inner)
	walk(t, c, "u")
	before := c.Stats()
	for _, id := range []osn.PublicID{"u", "fresh"} {
		if _, _, err := c.FriendPage(0, id, -1); err == nil {
			t.Fatalf("%s: negative page accepted", id)
		}
		if n := inner.pages(id, -1); n != 0 {
			t.Fatalf("%s: negative page reached the platform", id)
		}
	}
	if c.Stats() != before {
		t.Fatalf("negative pages counted as traffic: %+v, before %+v", c.Stats(), before)
	}
	got, more, err := c.FriendPage(0, "u", 2)
	if err != nil || len(got) != 0 || more {
		t.Fatalf("past-the-end page: %v more=%v err=%v", got, more, err)
	}
}

// TestCachedClientArchiveAndPassthrough: a cache seeded from an archive
// serves the archived list without asking the platform, while account
// counts, school lookups and searches pass through and leave nothing in
// the archive.
func TestCachedClientArchiveAndPassthrough(t *testing.T) {
	inner := newScript()
	c, err := ReadJSON(strings.NewReader(`{"version":2,"friends":{"zz":{"complete":true,"pages":[[{"ID":"a","Name":"A"}]]}}}`), inner)
	if err != nil {
		t.Fatal(err)
	}
	if f, more, err := c.FriendPage(0, "zz", 0); err != nil || more || len(f) != 1 || f[0].ID != "a" {
		t.Fatalf("archived list: %v more=%v err=%v", f, more, err)
	}
	if n := inner.pages("zz", 0); n != 0 {
		t.Fatal("archived list reached the platform")
	}
	if c.Accounts() != 2 {
		t.Fatalf("accounts %d", c.Accounts())
	}
	if s, err := c.LookupSchool("X High"); err != nil || s.Name != "X High" {
		t.Fatalf("lookup: %+v, %v", s, err)
	}
	if _, _, err := c.Search(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if n := reload(t, c, inner).Contents(); n != (Contents{FriendLists: 1}) {
		t.Fatalf("contents after pass-throughs %+v", n)
	}
}

// FuzzReadArchive: an archive either fails with ErrArchive, or restores a
// cache whose own archive reads back to the same bytes and which serves
// every entry it holds, with its page boundaries, without asking the
// platform.
func FuzzReadArchive(f *testing.F) {
	inner := newScript()
	inner.profiles["u1"] = &osn.PublicProfile{ID: "u1", Name: "Ann", Birthday: &sim.Date{Year: 1997, Month: 1, Day: 5}}
	inner.friends["u1"] = [][]osn.FriendRef{{{ID: "u2", Name: "Bo"}}, {}}
	inner.friends["u4"] = [][]osn.FriendRef{{{ID: "u1"}}, {{ID: "u2"}}}
	inner.hidden["u3"] = true
	c := New(inner)
	c.Profile(0, "u1")
	walk(f, c, "u1")
	c.FriendPage(0, "u3", 0)
	c.FriendPage(0, "u4", 0)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{buf.String(), `{"version":2}`, storeArchive, "nope",
		`{"version":2,"profiles":{"x":{"ID":"y"}}}`,
		`{"version":2,"friends":{"x":{"hidden":true,"complete":true}}}`,
		`{"version":2,"friends":{"x":{"pages":[null,[{"ID":""}]]}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inner := newScript()
		c, err := ReadJSON(bytes.NewReader(data), inner)
		if err != nil {
			if !errors.Is(err, ErrArchive) {
				t.Fatalf("error %v is not ErrArchive", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := c.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJSON(bytes.NewReader(first.Bytes()), inner)
		if err != nil {
			t.Fatalf("own archive rejected: %v\n%s", err, first.Bytes())
		}
		if err := got.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("archive changed across a round trip:\n%s\n%s", first.Bytes(), second.Bytes())
		}
		for id := range got.profiles {
			if pp, err := got.Profile(0, id); err != nil || pp == nil || pp.ID != id {
				t.Fatalf("profile %q served as %+v, %v", id, pp, err)
			}
		}
		for id, e := range got.friends {
			if e.Hidden {
				if _, _, err := got.FriendPage(0, id, 0); !errors.Is(err, osn.ErrHidden) {
					t.Fatalf("hidden list %q served with %v", id, err)
				}
				continue
			}
			for pg := range e.Pages {
				batch, more, err := got.FriendPage(0, id, pg)
				want := !e.Complete || pg < len(e.Pages)-1
				if err != nil || more != want || len(batch) != len(e.Pages[pg]) {
					t.Fatalf("list %q page %d served as %d entries, more=%v, %v", id, pg, len(batch), more, err)
				}
			}
		}
		if len(inner.profileCalls) != 0 || len(inner.pageCalls) != 0 {
			t.Fatalf("serving the archive reached the platform: %v %v", inner.profileCalls, inner.pageCalls)
		}
	})
}
