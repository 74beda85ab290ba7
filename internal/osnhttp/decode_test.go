package osnhttp

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/sim"
	"hsprofiler/internal/worldgen"
)

// decoder is one body decoder of a wire beside its reference: the
// class-by-class HTML scans or the encoding/json decoders. key names the
// list container the JSON scanner reads, where it is stricter than
// encoding/json about a repeated one.
type decoder struct {
	wire, kind, key string
	got, ref        func(body []byte) (any, bool, error)
}

func rowsOf[T any](rows []T, more bool, err error) (any, bool, error) { return rows, more, err }
func valueOf[T any](v T, err error) (any, bool, error)                { return v, false, err }

// decoders lists every decoder with a reference; profiles decode as id.
func decoders(id osn.PublicID) []decoder {
	return []decoder{
		{"html", "results", "",
			func(b []byte) (any, bool, error) { return rowsOf(htmlWire.results(b)) },
			func(b []byte) (any, bool, error) {
				return rowsOf(parseRows[osn.SearchResult](string(b), "results", "result"))
			}},
		{"html", "friends", "",
			func(b []byte) (any, bool, error) { return rowsOf(htmlWire.friends(b)) },
			func(b []byte) (any, bool, error) {
				return rowsOf(parseRows[osn.FriendRef](string(b), "friends", "friend"))
			}},
		{"html", "schools", "",
			func(b []byte) (any, bool, error) { return valueOf(htmlWire.schools(b)) },
			func(b []byte) (any, bool, error) { return valueOf(parseSchools(string(b))) }},
		{"html", "profile", "",
			func(b []byte) (any, bool, error) { return valueOf(htmlWire.profile(b, id)) },
			func(b []byte) (any, bool, error) { return valueOf(parseProfile(string(b), id)) }},
		{"json", "results", "results",
			func(b []byte) (any, bool, error) { return rowsOf(jsonWire.results(b)) },
			func(b []byte) (any, bool, error) { return rowsOf(decodeList[osn.SearchResult](b, "results")) }},
		{"json", "friends", "friends",
			func(b []byte) (any, bool, error) { return rowsOf(jsonWire.friends(b)) },
			func(b []byte) (any, bool, error) { return rowsOf(decodeList[osn.FriendRef](b, "friends")) }},
		{"json", "schools", "schools",
			func(b []byte) (any, bool, error) { return valueOf(jsonWire.schools(b)) },
			func(b []byte) (any, bool, error) {
				schools, _, err := decodeList[osn.SchoolRef](b, "schools")
				return valueOf(schools, err)
			}},
		{"json", "profile", "",
			func(b []byte) (any, bool, error) { return valueOf(jsonWire.profile(b, id)) },
			func(b []byte) (any, bool, error) { return valueOf(decodeProfile(b, id)) }},
		{"json", "token", "",
			func(b []byte) (any, bool, error) { return valueOf(jsonWire.token(b)) },
			func(b []byte) (any, bool, error) { return valueOf(decodeToken(b)) }},
	}
}

// dupContainer reports whether a body the reference accepts has a second
// array under the container key with no null between the two, which
// encoding/json merges into the first and the scanner rejects.
func dupContainer(body []byte, key string) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	found := false
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return false
		}
		if k, _ := tok.(string); !strings.EqualFold(k, key) {
			continue
		}
		switch v = bytes.TrimSpace(v); {
		case string(v) == "null":
			found = false
		case len(v) > 0 && v[0] == '[':
			if found {
				return true
			}
			found = true
		}
	}
	return false
}

// jnode is a parsed JSON value that keeps its object members in order.
type jnode struct {
	obj, arr bool
	keys     []string // an object's keys
	vals     []*jnode // an object's values or an array's elements
	lit      any      // a scalar: string, json.Number, bool or nil
}

func parseJNode(dec *json.Decoder) (*jnode, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	if tok != json.Delim('{') && tok != json.Delim('[') {
		return &jnode{lit: tok}, nil
	}
	n := &jnode{obj: tok == json.Delim('{'), arr: tok == json.Delim('[')}
	for dec.More() {
		if n.obj {
			k, err := dec.Token()
			if err != nil {
				return nil, err
			}
			n.keys = append(n.keys, k.(string))
		}
		v, err := parseJNode(dec)
		if err != nil {
			return nil, err
		}
		n.vals = append(n.vals, v)
	}
	_, err = dec.Token()
	return n, err
}

func mustJNode(t *testing.T, body []byte) *jnode {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	n, err := parseJNode(dec)
	if err != nil {
		t.Fatalf("re-reading %s: %v", body, err)
	}
	return n
}

// member returns the value under key, or nil.
func (n *jnode) member(key string) *jnode {
	for i, k := range n.keys {
		if k == key {
			return n.vals[i]
		}
	}
	return nil
}

// write appends n compactly, with each object's members in reverse order
// when rev. Strings are written by encoding/json, which escapes <, > and &
// and spells invalid UTF-8 as U+FFFD.
func (n *jnode) write(b *bytes.Buffer, rev bool) {
	open, close := byte('['), byte(']')
	if n.obj {
		open, close = '{', '}'
	}
	if !n.obj && !n.arr {
		v, _ := json.Marshal(n.lit)
		b.Write(v)
		return
	}
	b.WriteByte(open)
	for i := range n.vals {
		j := i
		if rev {
			j = len(n.vals) - 1 - i
		}
		if i > 0 {
			b.WriteByte(',')
		}
		if n.obj {
			k, _ := json.Marshal(n.keys[j])
			b.Write(k)
			b.WriteByte(':')
		}
		n.vals[j].write(b, rev)
	}
	b.WriteByte(close)
}

func (n *jnode) bytes(rev bool) []byte {
	var b bytes.Buffer
	n.write(&b, rev)
	return b.Bytes()
}

// unknownField is a member no /api/v1 body carries, nested so that
// skipping it exercises every kind of value.
const unknownField = `{"a":[1,-2.5e3,0.5E-2,"s\u00e9\n\ud83d\ude00",true,false,null,{}],"b":{"c":[[]]}}`

// reserialized rewrites a server-written body as another encoder could:
// re-indented, with every object's keys reversed, and with an unknown field
// added at the top level, inside the first row and inside the profile.
func reserialized(t *testing.T, body []byte, key string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	var ind bytes.Buffer
	if err := json.Indent(&ind, body, "\r\n ", "\t"); err != nil {
		t.Fatalf("indenting %s: %v", body, err)
	}
	out["indented"] = ind.Bytes()
	out["reordered"] = mustJNode(t, body).bytes(true)
	extra := func(name string, at func(root *jnode) *jnode) {
		root := mustJNode(t, body)
		n := at(root)
		if n == nil || !n.obj {
			return
		}
		n.keys = append([]string{"x_future"}, n.keys...)
		n.vals = append([]*jnode{mustJNode(t, []byte(unknownField))}, n.vals...)
		out[name] = root.bytes(false)
	}
	extra("unknown at top", func(root *jnode) *jnode { return root })
	extra("unknown in a row", func(root *jnode) *jnode {
		if rows := root.member(key); rows != nil && len(rows.vals) > 0 {
			return rows.vals[0]
		}
		return nil
	})
	extra("unknown in the profile", func(root *jnode) *jnode { return root.member("profile") })
	return out
}

// serverHTML writes the values with the server's HTML page writers.
func serverHTML(results []osn.SearchResult, friends []osn.FriendRef, more bool,
	schools []osn.SchoolRef, pp *osn.PublicProfile) map[string][]byte {
	e := getEnc()
	defer putEnc(e)
	page := func(write func()) []byte {
		e.b = e.b[:0]
		write()
		return append([]byte(nil), e.b...)
	}
	q := &query{acct: "acct-1-a&b", page: 2, kind: searchCity, city: "Ash & Oak"}
	return map[string][]byte{
		"results": page(func() { e.htmlResults(results, more, q) }),
		"friends": page(func() {
			e.htmlFriendsHead()
			for _, f := range friends {
				e.htmlFriend(f)
			}
			e.htmlFriendsTail(string(pp.ID), more, q)
		}),
		"schools": page(func() { e.htmlSchools(schools) }),
		"profile": page(func() { e.htmlProfile(pp) }),
	}
}

// FuzzDecodersMatchReference checks the one-pass decoders of both wires
// against their references.
//   - HTML, on any input and on the server's pages: exactly the reference's
//     rows, more, profile and error-or-not.
//   - JSON, on the server's bodies and on their re-serializations
//     (re-indented, keys reordered, an unknown field at the top level,
//     inside a row and inside the profile): both accept, with the same
//     values.
//   - JSON, on any input: the scanner never panics, fails only with
//     ErrMalformed, and accepts a body only when the reference does, with
//     the same values. It rejects one the reference accepts only when the
//     container is repeated.
func FuzzDecodersMatchReference(f *testing.F) {
	results, friends, schools, pp := jsonWireValues("u7", "Zo\u00eb \"Q\" \\ <b>&\t", 3, 1997, 2, 29, 0x3fff)
	rb, fb, sb, pb := jsonWireBodies(results, true, schools, pp)
	html := serverHTML(results, friends, true, schools, pp)
	seeds := [][]byte{rb, fb, sb, pb, html["results"], html["friends"], html["schools"], html["profile"],
		[]byte(intactProfile), []byte(intactFriends),
		[]byte(`{"token":"acct-1-abc"}`),
		[]byte(`{"N":1,"RESULTS":[{"ID":"u1","Name":"A","city":3}],"\u006dore":true}`),
		[]byte(`{"n":1,"results":[null],"friends":null,"schools":[{"id":2}]}`),
		[]byte(`{"n":1,"results":[{"id":"a"}],"results":[{"id":"b"}]}`),
		[]byte(`{"n":1,"results":null,"results":[{"id":"\ud800x","name":"\u00e9\/\b"}]}`),
		[]byte(`{"profile":{"name":"A"},"profile":{"gender":"f"},"\u017frofile":null}`),
		[]byte(`{"profile":{"birthday":"1994-2-3x","grad_year":-0,"photo_count":1e2}}`),
		[]byte(`<li class="friend" data-id="u1" class="friend"><span class="name">x</span>` + pageTrailer),
		// encoding/json's nesting limit: 10000 open arrays and objects
		// pass, 10001 fail.
		[]byte(`{"n":0,"results":[],"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`),
		[]byte(`{"n":0,"results":[],"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`),
	}
	for _, body := range seeds {
		f.Add(body, "u7", "Ann", uint8(2), true, uint16(2012), uint8(3), uint8(15), uint16(0x3fff))
		for _, page := range faultedPages(string(body)) {
			f.Add([]byte(page), "", "", uint8(0), false, uint16(0), uint8(0), uint8(0), uint16(0))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, id, name string, n uint8, more bool, year uint16, month, day uint8, flags uint16) {
		for _, d := range decoders("u") {
			got, gotMore, gotErr := d.got(body)
			want, wantMore, wantErr := d.ref(body)
			if gotErr != nil && !errors.Is(gotErr, ErrMalformed) {
				t.Fatalf("%s %s(%q): untyped error %v", d.wire, d.kind, body, gotErr)
			}
			if d.wire == "json" && gotErr != nil && wantErr == nil && d.key != "" && dupContainer(body, d.key) {
				continue
			}
			if (gotErr == nil) != (wantErr == nil) || gotMore != wantMore || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s(%q):\ndecoder   (%#v, %v, %v)\nreference (%#v, %v, %v)",
					d.wire, d.kind, body, got, gotMore, gotErr, want, wantMore, wantErr)
			}
		}

		results, friends, schools, pp := jsonWireValues(id, name, n, year, month, day, flags)
		rb, fb, sb, pb := jsonWireBodies(results, more, schools, pp)
		html := serverHTML(results, friends, more, schools, pp)
		written := map[string][]byte{"results": rb, "friends": fb, "schools": sb, "profile": pb}
		for _, d := range decoders(pp.ID) {
			bodies := map[string][]byte{"server": html[d.kind]}
			if d.wire == "json" {
				if written[d.kind] == nil {
					continue
				}
				bodies = reserialized(t, written[d.kind], d.key)
				bodies["server"] = written[d.kind]
			}
			for how, body := range bodies {
				got, gotMore, gotErr := d.got(body)
				want, wantMore, wantErr := d.ref(body)
				if d.wire == "json" && (gotErr != nil || wantErr != nil) {
					t.Fatalf("json %s, %s body %s: decoder error %v, reference error %v", d.kind, how, body, gotErr, wantErr)
				}
				if (gotErr == nil) != (wantErr == nil) || gotMore != wantMore || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s, %s body %q:\ndecoder   (%#v, %v, %v)\nreference (%#v, %v, %v)",
						d.wire, d.kind, how, body, got, gotMore, gotErr, want, wantMore, wantErr)
				}
			}
		}
	})
}

// fixedBodies writes one body of each fetch kind on each wire with the
// server's writers: a 40-row search page, a 20-row friend page, a full
// profile and a three-school directory, as "wire/kind".
func fixedBodies() (map[string][]byte, osn.PublicID) {
	var results []osn.SearchResult
	var friends []osn.FriendRef
	for i := 0; i < 40; i++ {
		id := osn.PublicID("u" + strconv.Itoa(1000+i))
		name := "Student Number " + strconv.Itoa(i)
		results = append(results, osn.SearchResult{ID: id, Name: name})
		if i < 20 {
			friends = append(friends, osn.FriendRef{ID: id, Name: name})
		}
	}
	schools := []osn.SchoolRef{{ID: 0, Name: "Oakfield High School", City: "Oakfield"},
		{ID: 1, Name: "Rivercrest Union High School", City: "Rivercrest"}, {ID: 2, Name: "Lakeside High", City: "Lakeside"}}
	pp := &osn.PublicProfile{ID: "u1042", Name: "Student Number 42", HasPhoto: true, Gender: "female",
		Network: "Oakfield network", HighSchool: "Oakfield High School", GradYear: 2013, GradSchool: true,
		Relationship: true, InterestedIn: true, Birthday: &sim.Date{Year: 1995, Month: 4, Day: 9},
		Hometown: "Oakfield", CurrentCity: "Oakfield", FriendListVisible: true, PhotoCount: 37,
		ContactInfo: true, CanMessage: true, Searchable: true}
	out := map[string][]byte{}
	for kind, body := range serverHTML(results, friends, true, schools, pp) {
		out["html/"+kind] = body
	}
	e := getEnc()
	defer putEnc(e)
	list := func(key string, n int) []byte {
		e.b = appendListHead(e.b[:0], n, key)
		for i, r := range results[:n] {
			e.sep(i)
			e.jsonRow(r.ID, r.Name)
		}
		e.jsonListTail(true, 3)
		return append([]byte(nil), e.b...)
	}
	out["json/results"], out["json/friends"] = list("results", 40), list("friends", 20)
	e.b = e.b[:0]
	e.jsonSchools(schools, 3)
	out["json/schools"] = append([]byte(nil), e.b...)
	e.b = e.b[:0]
	e.jsonProfile(pp, 3)
	out["json/profile"] = append([]byte(nil), e.b...)
	return out, pp.ID
}

// TestDecodeAllocs pins each decoder's allocations on the fixed bodies,
// as the server's 0 allocs/op guards pin the handlers'. A page costs its
// body's one string copy and the result: the rows slice, or the profile
// and its birthday. The JSON decoders must also allocate fewer objects
// than the encoding/json references.
func TestDecodeAllocs(t *testing.T) {
	bodies, id := fixedBodies()
	type pair struct{ got, ref func(b []byte) }
	cases := map[string]pair{
		"html/results": {func(b []byte) { htmlWire.results(b) },
			func(b []byte) { parseRows[osn.SearchResult](string(b), "results", "result") }},
		"html/friends": {func(b []byte) { htmlWire.friends(b) },
			func(b []byte) { parseRows[osn.FriendRef](string(b), "friends", "friend") }},
		"html/schools": {func(b []byte) { htmlWire.schools(b) }, func(b []byte) { parseSchools(string(b)) }},
		"html/profile": {func(b []byte) { htmlWire.profile(b, id) }, func(b []byte) { parseProfile(string(b), id) }},
		"json/results": {func(b []byte) { jsonWire.results(b) }, func(b []byte) { decodeList[osn.SearchResult](b, "results") }},
		"json/friends": {func(b []byte) { jsonWire.friends(b) }, func(b []byte) { decodeList[osn.FriendRef](b, "friends") }},
		"json/schools": {func(b []byte) { jsonWire.schools(b) }, func(b []byte) { decodeList[osn.SchoolRef](b, "schools") }},
		"json/profile": {func(b []byte) { jsonWire.profile(b, id) }, func(b []byte) { decodeProfile(b, id) }},
	}
	pins := map[string]float64{
		"html/results": 2, "html/friends": 2, "html/schools": 2, "html/profile": 3,
		"json/results": 2, "json/friends": 2, "json/schools": 2, "json/profile": 3,
	}
	for name, c := range cases {
		body := bodies[name]
		got := testing.AllocsPerRun(100, func() { c.got(body) })
		ref := testing.AllocsPerRun(100, func() { c.ref(body) })
		t.Logf("%s: %v allocs/op, reference %v", name, got, ref)
		if got != pins[name] {
			t.Errorf("%s: %v allocs/op, want %v", name, got, pins[name])
		}
		if strings.HasPrefix(name, "json/") && got >= ref {
			t.Errorf("%s: %v allocs/op, not fewer than encoding/json's %v", name, got, ref)
		}
	}
}

// TestDecodersCopyOut checks that no decoder's result aliases its input:
// the client reads every body into a pooled buffer and reuses it as soon
// as the decoder returns.
func TestDecodersCopyOut(t *testing.T) {
	bodies, id := fixedBodies()
	bodies["json/token"] = []byte(`{"token":"acct-1-crawler0"}`)
	bodies["json/escaped"] = []byte(`{"n":1,"friends":[{"id":"u\u00e91","name":"A\tB"}]}`)
	cases := map[string]func([]byte) (any, bool, error){
		"html/token":   func(b []byte) (any, bool, error) { return valueOf(htmlWire.token(b)) },
		"json/escaped": func(b []byte) (any, bool, error) { return rowsOf(jsonWire.friends(b)) },
	}
	bodies["html/token"] = []byte("acct-1-crawler0\n")
	for _, d := range decoders(id) {
		cases[d.wire+"/"+d.kind] = d.got
	}
	for name, decode := range cases {
		body := append([]byte(nil), bodies[name]...)
		got, _, err := decode(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _, _ := decode(append([]byte(nil), body...))
		for i := range body {
			body[i] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result changed when its input was overwritten:\n%#v\nwant %#v", name, got, want)
		}
	}
}

// TestClientConcurrentFetches runs 8 goroutines on one Client per wire,
// sharing its pooled read buffers, and requires every profile and friend
// page to equal the platform's direct answer.
func TestClientConcurrentFetches(t *testing.T) {
	w, err := worldgen.Generate(worldgen.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	p := osn.NewPlatform(w, osn.Facebook(), osn.Config{FriendPageSize: 7})
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()
	tok, err := p.RegisterAccount("oracle", w.Now.AddYears(-30))
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		profile *osn.PublicProfile
		friends []osn.FriendRef
		more    bool
		err     error
	}
	var ids []osn.PublicID
	want := map[osn.PublicID]answer{}
	for _, person := range w.People {
		if len(ids) == 48 {
			break
		}
		id, ok := p.PublicIDOf(person.ID)
		if !ok {
			continue
		}
		var a answer
		if a.profile, err = p.Profile(tok, id); err != nil {
			t.Fatal(err)
		}
		a.friends, a.more, a.err = p.FriendPage(tok, id, 0)
		ids = append(ids, id)
		want[id] = a
	}
	for _, wire := range []*wire{&htmlWire, &jsonWire} {
		c := newClient(srv.URL, srv.Client(), nil, wire)
		if err := c.RegisterAccounts(2); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ids {
					id := ids[(i+g*len(ids)/8)%len(ids)]
					a := want[id]
					pp, err := c.Profile(g%2, id)
					if err != nil || !reflect.DeepEqual(pp, a.profile) {
						t.Errorf("%s Profile(%s) = %+v, %v; want %+v", wire.prefix, id, pp, err, a.profile)
					}
					friends, more, err := c.FriendPage(g%2, id, 0)
					if !errors.Is(err, a.err) || !reflect.DeepEqual(friends, a.friends) || more != a.more {
						t.Errorf("%s FriendPage(%s) = %v, %v, %v; want %v, %v, %v",
							wire.prefix, id, friends, more, err, a.friends, a.more, a.err)
					}
				}
			}()
		}
		wg.Wait()
	}
}

var decodeSink any

// BenchmarkDecode times each decoder on its fixed body, beside its
// reference.
func BenchmarkDecode(b *testing.B) {
	bodies, id := fixedBodies()
	for _, d := range decoders(id) {
		body, ok := bodies[d.wire+"/"+d.kind]
		if !ok {
			continue
		}
		for _, side := range []struct {
			name   string
			decode func([]byte) (any, bool, error)
		}{{"", d.got}, {"/reference", d.ref}} {
			b.Run(d.wire+"/"+d.kind+side.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				for i := 0; i < b.N; i++ {
					decodeSink, _, _ = side.decode(body)
				}
			})
		}
	}
}
