package osnhttp

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hsprofiler/internal/faults"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/sim"
)

// Native fuzz targets. In plain `go test` runs these execute their seed
// corpora as regression tests; use `go test -fuzz FuzzParseProfile
// ./internal/osnhttp` to explore further.

// intactProfile is a representative complete profile page, the base for the
// fault-injector-derived corpus below.
const intactProfile = `<html><body>
<div id="profile" data-id="u1">
<h1 class="name">Ann</h1>
<span class="gender">female</span>
<div class="education"><span class="school">Oakfield High School</span> <span class="gradyear">Class of 2013</span></div>
<span class="birthday">1994-02-03</span>
<a class="friendlink" href="/friends/u1">Friends</a>
</div>
</body></html>`

// faultedPages derives truncated and garbled variants of a page exactly the
// way the fault injector's middleware does, seeding the corpus with the
// failure shapes the crawler must survive.
func faultedPages(page string) []string {
	var out []string
	for seed := uint64(1); seed <= 6; seed++ {
		r := sim.New(seed).Stream("fuzz-corpus")
		out = append(out,
			faults.TruncateHTML(page, r),
			faults.GarbleHTML(page, r),
		)
	}
	return out
}

func FuzzParseProfile(f *testing.F) {
	f.Add(`<div id="profile" data-id="u1"><h1 class="name">Ann</h1></div>`)
	f.Add(`<span class="gradyear">Class of 2013</span><span class="birthday">1994-02-03</span>`)
	f.Add(`<span class="name">unterminated`)
	f.Add("")
	f.Add(`class="name"`)
	f.Add(intactProfile)
	for _, page := range faultedPages(intactProfile) {
		f.Add(page)
	}
	f.Fuzz(func(t *testing.T, page string) {
		pp, err := parseProfile(page, "u")
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("non-typed parse error: %v", err)
			}
			return
		}
		if pp == nil {
			t.Fatal("nil profile without error")
		}
		if pp.GradYear < 0 || pp.PhotoCount < 0 {
			t.Fatalf("negative numeric field: %+v", pp)
		}
	})
}

const intactFriends = `<html><body>
<ul id="friends">
<li class="friend" data-id="u2"><span class="name">Bo</span></li>
<li class="friend" data-id="u3"><span class="name">Cy</span></li>
</ul>
<a class="next" href="/friends/u1?page=1">More friends</a>
</body></html>`

func FuzzClassScanners(f *testing.F) {
	f.Add(`<div class="result" data-id="u1"><span class="name">A</span></div>`, "result")
	f.Add(`<li class="friend" data-id="`, "friend")
	f.Add("", "")
	f.Add(intactFriends, "friend")
	for _, page := range faultedPages(intactFriends) {
		f.Add(page, "friend")
	}
	f.Fuzz(func(t *testing.T, page, class string) {
		ids := classDataIDs(page, class)
		_ = classText(page, class)
		_ = hasClass(page, class)
		_ = firstClassText(page, class)
		if len(ids) > classCount(page, class) {
			t.Fatalf("parsed %d ids from %d marked rows", len(ids), classCount(page, class))
		}
	})
}

// FuzzParseResults drives the full page-level validation the crawler relies
// on: any accepted page yields exactly as many rows as it marks.
func FuzzParseResults(f *testing.F) {
	intact := `<html><body>
<div id="results">
<div class="result" data-id="u5"><span class="name">Di</span></div>
</div>
</body></html>`
	f.Add(intact)
	f.Add("")
	for _, page := range faultedPages(intact) {
		f.Add(page)
	}
	f.Fuzz(func(t *testing.T, page string) {
		results, _, err := parseResults(page)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("non-typed parse error: %v", err)
			}
			return
		}
		if len(results) != classCount(page, "result") {
			t.Fatalf("accepted page dropped rows: %d parsed, %d marked", len(results), classCount(page, "result"))
		}
	})
}

// jsonWireValues builds rows, a school directory and a profile from fuzz
// values, as the platform could hold them: strings are valid UTF-8 (the
// encoder passes bytes through, and the decoder replaces invalid UTF-8)
// and date parts are non-negative (the encoder pads them as digits).
func jsonWireValues(id, name string, n uint8, year uint16, month, day uint8, flags uint16) (
	[]osn.SearchResult, []osn.FriendRef, []osn.SchoolRef, *osn.PublicProfile) {
	id, name = strings.ToValidUTF8(id, "\uFFFD"), strings.ToValidUTF8(name, "\uFFFD")
	var (
		results []osn.SearchResult
		friends []osn.FriendRef
		schools []osn.SchoolRef
	)
	for i := 0; i < int(n%6); i++ {
		rid := osn.PublicID(id + strconv.Itoa(i))
		results = append(results, osn.SearchResult{ID: rid, Name: name})
		friends = append(friends, osn.FriendRef{ID: rid, Name: name})
		schools = append(schools, osn.SchoolRef{ID: i, Name: name, City: id})
	}
	bit := func(i uint) bool { return flags&(1<<i) != 0 }
	str := func(i uint) string {
		if bit(i) {
			return name
		}
		return ""
	}
	pp := &osn.PublicProfile{
		ID: osn.PublicID(id), Name: name, HasPhoto: bit(0), Gender: str(1), Network: str(2),
		HighSchool: str(3), GradYear: int(year), GradSchool: bit(4), Relationship: bit(5),
		InterestedIn: bit(6), Hometown: str(7), CurrentCity: str(8), FriendListVisible: bit(9),
		PhotoCount: int(n), ContactInfo: bit(10), CanMessage: bit(11), Searchable: bit(12),
	}
	if bit(13) {
		pp.Birthday = &sim.Date{Year: int(year), Month: int(month), Day: int(day)}
	}
	return results, friends, schools, pp
}

// jsonWireBodies writes the values with the server's own /api/v1 writers.
func jsonWireBodies(results []osn.SearchResult, more bool, schools []osn.SchoolRef, pp *osn.PublicProfile) (
	resultsBody, friendsBody, schoolsBody, profileBody []byte) {
	e := getEnc()
	defer putEnc(e)
	list := func(key string) []byte {
		e.b = appendListHead(e.b[:0], len(results), key)
		for i, r := range results {
			e.sep(i)
			e.jsonRow(r.ID, r.Name)
		}
		e.jsonListTail(more, 3)
		return append([]byte(nil), e.b...)
	}
	resultsBody, friendsBody = list("results"), list("friends")
	e.b = e.b[:0]
	e.jsonSchools(schools, 3)
	schoolsBody = append([]byte(nil), e.b...)
	e.b = e.b[:0]
	e.jsonProfile(pp, 3)
	return resultsBody, friendsBody, schoolsBody, append([]byte(nil), e.b...)
}

// FuzzJSONWire checks the /api/v1 decoders against the server's encoder.
// Values the platform can hold, written by the server, decode back to the
// same values, with zero rows as nil as on the HTML wire. And any body,
// fed to every decoder, never panics and fails only with ErrMalformed:
// damage is transient, so the crawler retries it.
func FuzzJSONWire(f *testing.F) {
	results, _, schools, pp := jsonWireValues("u7", "Zo\u00eb \"Q\" \\ <b>&\t", 3, 1997, 2, 29, 0x3fff)
	r, fr, s, p := jsonWireBodies(results, true, schools, pp)
	for _, body := range [][]byte{r, fr, s, p,
		[]byte(`{"token":"acct-1-abc"}`),
		[]byte(`{"n":0,"results":[],"more":false,"epoch":1}`),
		[]byte(`{"error":{"code":"hidden","message":"m"}}`),
	} {
		f.Add(body, "u7", "Ann", uint8(2), true, uint16(2012), uint8(3), uint8(15), uint16(0x3fff))
		for _, page := range faultedPages(string(body)) {
			f.Add([]byte(page), "", "", uint8(0), false, uint16(0), uint8(0), uint8(0), uint16(0))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, id, name string, n uint8, more bool, year uint16, month, day uint8, flags uint16) {
		results, friends, schools, pp := jsonWireValues(id, name, n, year, month, day, flags)
		rb, fb, sb, pb := jsonWireBodies(results, more, schools, pp)
		if got, gotMore, err := jsonWire.results(rb); err != nil || !reflect.DeepEqual(got, results) || gotMore != more {
			t.Fatalf("results %s: decoded (%v, %v, %v), want (%v, %v)", rb, got, gotMore, err, results, more)
		}
		if got, gotMore, err := jsonWire.friends(fb); err != nil || !reflect.DeepEqual(got, friends) || gotMore != more {
			t.Fatalf("friends %s: decoded (%v, %v, %v), want (%v, %v)", fb, got, gotMore, err, friends, more)
		}
		if got, err := jsonWire.schools(sb); err != nil || !reflect.DeepEqual(got, schools) {
			t.Fatalf("schools %s: decoded (%v, %v), want %v", sb, got, err, schools)
		}
		if got, err := jsonWire.profile(pb, pp.ID); err != nil || !reflect.DeepEqual(got, pp) {
			t.Fatalf("profile %s: decoded (%+v, %v), want %+v", pb, got, err, pp)
		}

		typed := func(decoder string, err error) {
			if err != nil && !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s(%q): untyped error %v", decoder, body, err)
			}
		}
		_, err := jsonWire.token(body)
		typed("token", err)
		_, err = jsonWire.profile(body, "u")
		typed("profile", err)
		gs, err := jsonWire.schools(body)
		typed("schools", err)
		gr, _, err := jsonWire.results(body)
		typed("results", err)
		gf, _, err := jsonWire.friends(body)
		typed("friends", err)
		if gs != nil && len(gs) == 0 || gr != nil && len(gr) == 0 || gf != nil && len(gf) == 0 {
			t.Fatalf("%q: zero rows decoded to an empty slice, not nil", body)
		}
	})
}
