package osnhttp

import (
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"hsprofiler/internal/osn"
)

// jsonWire is the /api/v1 half of Client. Its decoders classify damage as
// the HTML parser does: a body that is not valid JSON, is missing its
// container, holds a value of the wrong type, or whose "n" count disagrees
// with the rows delivered is ErrMalformed — transient, so the crawler
// retries it.
//
// One hand-written scanner decodes every body in a single pass. It reads
// exactly what encoding/json reads into the same Go types (the reference
// decoders in jsonwire_ref_test.go, checked against it by
// FuzzDecodersMatchReference): keys in any order, matched exactly or else
// case-insensitively; unknown keys skipped, as the wire's versioning policy
// requires of clients; null leaving a scalar as it was; escapes resolved
// and each byte of invalid UTF-8 read as U+FFFD; nesting at most 10000
// deep; nothing but whitespace after the object. It is stricter in one
// place only: a second array under the requested container key, which
// encoding/json would merge into the first, is ErrMalformed.
//
// The scanner copies the body into one string first, and every string it
// keeps is a substring of that copy or a fresh unescaped string, so the
// caller may reuse the body's buffer as soon as it returns.
var jsonWire = wire{
	prefix: "/api/v1",
	find:   "/search?",
	city:   "/search?",
	graph:  "/search?graph=1&",
	token:  scanToken,
	schools: func(b []byte) ([]osn.SchoolRef, error) {
		schools, _, err := scanList(b, "schools", true, schoolRow)
		return schools, err
	},
	results: func(b []byte) ([]osn.SearchResult, bool, error) { return parsePage(b, "results") },
	profile: scanProfile,
	friends: func(b []byte) ([]osn.FriendRef, bool, error) {
		return scanList(b, "friends", false, personRow[osn.FriendRef])
	},
}

// parsePage decodes a page of search results whose rows sit under key.
func parsePage(body []byte, key string) ([]osn.SearchResult, bool, error) {
	return scanList(body, key, false, personRow[osn.SearchResult])
}

// maxDepth is encoding/json's nesting limit: a body whose objects and
// arrays nest deeper is invalid.
const maxDepth = 10000

// jscan is a cursor over one body.
type jscan struct {
	s string
	i int
}

func (d *jscan) ws() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *jscan) peek() byte {
	d.ws()
	if d.i < len(d.s) {
		return d.s[d.i]
	}
	return 0
}

// eat consumes c if it is the next byte after whitespace.
func (d *jscan) eat(c byte) bool {
	if d.peek() == c {
		d.i++
		return true
	}
	return false
}

// word consumes the literal w (true, false or null).
func (d *jscan) word(w string) bool {
	if strings.HasPrefix(d.s[d.i:], w) {
		d.i += len(w)
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *jscan) end() bool {
	d.ws()
	return d.i == len(d.s)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits advances i past a run of digits and reports whether there was one.
func (d *jscan) digits() bool {
	start := d.i
	for d.i < len(d.s) && isDigit(d.s[d.i]) {
		d.i++
	}
	return d.i > start
}

// number consumes a JSON number and returns its literal.
func (d *jscan) number() (string, bool) {
	start := d.i
	if d.i < len(d.s) && d.s[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.s) && d.s[d.i] == '0':
		d.i++
	case !d.digits():
		return "", false
	}
	if d.i < len(d.s) && d.s[d.i] == '.' {
		d.i++
		if !d.digits() {
			return "", false
		}
	}
	if d.i < len(d.s) && (d.s[d.i] == 'e' || d.s[d.i] == 'E') {
		d.i++
		if d.i < len(d.s) && (d.s[d.i] == '+' || d.s[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			return "", false
		}
	}
	return d.s[start:d.i], true
}

// str consumes a string (the next byte is its opening quote) and returns
// its value. One with no escape and no invalid UTF-8 is a substring of the
// body; any other is built by unescape.
func (d *jscan) str() (string, bool) {
	s := d.s
	start := d.i + 1
	for i := start; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			return s[start:i], true
		case c == '\\':
			return d.unescape(start, i)
		case c < ' ':
			return "", false
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && n == 1 {
				return d.unescape(start, i)
			}
			i += n
		}
	}
	return "", false
}

// unescape finishes a string whose bytes from start to i need no
// rewriting, as encoding/json does: escapes resolved, a lone or reversed
// surrogate read as U+FFFD, and each byte of invalid UTF-8 as U+FFFD.
func (d *jscan) unescape(start, i int) (string, bool) {
	s := d.s
	b := append(make([]byte, 0, i-start+32), s[start:i]...)
	for i < len(s) {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			return string(b), true
		case c < ' ':
			return "", false
		case c == '\\':
			if i+1 >= len(s) {
				return "", false
			}
			if e := s[i+1]; e != 'u' {
				switch e {
				case '"', '\\', '/':
				case 'b':
					e = '\b'
				case 'f':
					e = '\f'
				case 'n':
					e = '\n'
				case 'r':
					e = '\r'
				case 't':
					e = '\t'
				default:
					return "", false
				}
				b = append(b, e)
				i += 2
				continue
			}
			r := hex4(s, i)
			if r < 0 {
				return "", false
			}
			i += 6
			if utf16.IsSurrogate(r) {
				if dec := utf16.DecodeRune(r, hex4(s, i)); dec != utf8.RuneError {
					r = dec
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			b = utf8.AppendRune(b, r)
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	return "", false
}

// hex4 reads the \uXXXX escape at s[i:], or returns -1.
func hex4(s string, i int) rune {
	if i+6 > len(s) || s[i] != '\\' || s[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range []byte(s[i+2 : i+6]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skip consumes any value inside depth open objects and arrays.
func (d *jscan) skip(depth int) bool {
	switch d.peek() {
	case '"':
		_, ok := d.str()
		return ok
	case '{':
		return d.object(depth, func(string) bool { return d.skip(depth + 1) })
	case '[':
		if depth+1 > maxDepth {
			return false
		}
		d.i++
		if d.eat(']') {
			return true
		}
		for {
			if !d.skip(depth + 1) {
				return false
			}
			if !d.eat(',') {
				return d.eat(']')
			}
		}
	case 't':
		return d.word("true")
	case 'f':
		return d.word("false")
	case 'n':
		return d.word("null")
	}
	_, ok := d.number()
	return ok
}

// object consumes an object that opens inside depth open objects and
// arrays, calling member for each key with the cursor on its value.
func (d *jscan) object(depth int, member func(key string) bool) bool {
	if depth+1 > maxDepth || !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	for {
		if d.peek() != '"' {
			return false
		}
		key, ok := d.str()
		if !ok || !d.eat(':') || !member(key) {
			return false
		}
		if !d.eat(',') {
			return d.eat('}')
		}
	}
}

// field returns the index of key in names, matched as encoding/json
// matches a key to a field: exactly, else under Unicode case folding.
// It returns -1 for an unknown key.
func field(key string, names ...string) int {
	for i, n := range names {
		if key == n {
			return i
		}
	}
	for i := 0; i < len(key); i++ {
		// Only an upper-case or non-ASCII byte can fold onto the
		// lower-case ASCII names.
		if c := key[i]; 'A' <= c && c <= 'Z' || c >= utf8.RuneSelf {
			for j, n := range names {
				if strings.EqualFold(key, n) {
					return j
				}
			}
			return -1
		}
	}
	return -1
}

// setStr reads a string field: a string, or null, which leaves it as it
// was. Any other value is a wrong type.
func (d *jscan) setStr(v *string) bool {
	switch d.peek() {
	case '"':
		s, ok := d.str()
		*v = s
		return ok
	case 'n':
		return d.word("null")
	}
	return false
}

// setInt reads an int field: an integer literal that fits, or null.
func (d *jscan) setInt(v *int) bool {
	if d.peek() == 'n' {
		return d.word("null")
	}
	lit, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.Atoi(lit)
	*v = n
	return err == nil
}

// setBool reads a bool field: true, false or null.
func (d *jscan) setBool(v *bool) bool {
	switch d.peek() {
	case 't':
		*v = true
		return d.word("true")
	case 'f':
		*v = false
		return d.word("false")
	case 'n':
		return d.word("null")
	}
	return false
}

// jrow is one list row as the scanner reads it. A school's id is a
// number and a person's a string, and only a school has a city.
type jrow struct {
	id, name, city string
	num            int
}

// personRow makes a search result or friend entry of a row.
func personRow[T ~listRow](r jrow) T { return T(listRow{ID: osn.PublicID(r.id), Name: r.name}) }

func schoolRow(r jrow) osn.SchoolRef { return osn.SchoolRef{ID: r.num, Name: r.name, City: r.city} }

// row reads one row into r: an object, or null, which leaves r zero. Its
// keys match the fields of the osn row type, as encoding/json matches
// them.
func (d *jscan) row(school bool, r *jrow) bool {
	if d.peek() == 'n' {
		return d.word("null")
	}
	return d.object(2, func(key string) bool {
		switch field(key, "id", "name", "city") {
		case 0:
			if school {
				return d.setInt(&r.num)
			}
			return d.setStr(&r.id)
		case 1:
			return d.setStr(&r.name)
		case 2:
			if school {
				return d.setStr(&r.city)
			}
		}
		return d.skip(3)
	})
}

// rows reads a container's array of rows, appending each to *out when out
// is not nil and only checking it otherwise.
func rows[T any](d *jscan, school bool, conv func(jrow) T, out *[]T) bool {
	if !d.eat('[') {
		return false
	}
	if d.eat(']') {
		return true
	}
	for {
		var r jrow
		if !d.row(school, &r) {
			return false
		}
		if out != nil {
			*out = append(*out, conv(r))
		}
		if !d.eat(',') {
			return d.eat(']')
		}
	}
}

// scanList decodes a list body whose rows sit under key: that container
// must be present and hold "n" rows. Zero rows decode to nil, as on the
// HTML wire. The other two containers' keys, which encoding/json would
// decode into the same row type, are checked and dropped.
func scanList[T any](body []byte, key string, school bool, conv func(jrow) T) ([]T, bool, error) {
	d := &jscan{s: string(body)}
	var (
		n           int
		more, found bool
		list        []T
	)
	ok := d.object(0, func(k string) bool {
		switch field(k, "n", "more", key, "results", "friends", "schools") {
		case 0:
			return d.setInt(&n)
		case 1:
			return d.setBool(&more)
		case 2:
			if d.peek() == 'n' {
				// null unsets the container, as encoding/json nils its
				// pointer.
				found, list = false, nil
				return d.word("null")
			}
			if found {
				return false
			}
			found = true
			if n > 0 && n <= len(d.s)/2 {
				list = make([]T, 0, n)
			}
			return rows(d, school, conv, &list)
		case 3, 4, 5:
			if d.peek() == 'n' {
				return d.word("null")
			}
			return rows[T](d, school, conv, nil)
		}
		return d.skip(1)
	})
	switch {
	case !ok || !d.end():
		return nil, false, malformed("bad JSON at byte %d", d.i)
	case !found:
		return nil, false, malformed("missing %q container", key)
	case n != len(list):
		return nil, false, malformed("row count mismatch: n=%d, got %d", n, len(list))
	case len(list) == 0:
		return nil, more, nil
	}
	return list, more, nil
}

// scanToken reads the token of a registration answer.
func scanToken(body []byte) (string, error) {
	d := &jscan{s: string(body)}
	var tok string
	ok := d.object(0, func(k string) bool {
		if field(k, "token") == 0 {
			return d.setStr(&tok)
		}
		return d.skip(1)
	})
	if !ok || !d.end() || tok == "" {
		return "", malformed("register response %q", body)
	}
	return tok, nil
}

// profileFields are the profile object's keys, in the order scanProfile's
// switch reads them. "id" is not among them: the profile's ID comes from
// the request, as on the HTML wire, so the body's copy is skipped like any
// unknown key.
var profileFields = [...]string{
	"name", "has_photo", "gender", "network", "high_school", "grad_year",
	"grad_school", "relationship", "interested_in", "birthday", "hometown",
	"current_city", "friend_list_visible", "photo_count", "contact_info",
	"can_message", "searchable",
}

// scanProfile decodes a profile body.
func scanProfile(body []byte, id osn.PublicID) (*osn.PublicProfile, error) {
	d := &jscan{s: string(body)}
	var (
		pp       osn.PublicProfile
		birthday string
		found    bool
	)
	member := func(k string) bool {
		switch field(k, profileFields[:]...) {
		case 0:
			return d.setStr(&pp.Name)
		case 1:
			return d.setBool(&pp.HasPhoto)
		case 2:
			return d.setStr(&pp.Gender)
		case 3:
			return d.setStr(&pp.Network)
		case 4:
			return d.setStr(&pp.HighSchool)
		case 5:
			return d.setInt(&pp.GradYear)
		case 6:
			return d.setBool(&pp.GradSchool)
		case 7:
			return d.setBool(&pp.Relationship)
		case 8:
			return d.setBool(&pp.InterestedIn)
		case 9:
			return d.setStr(&birthday)
		case 10:
			return d.setStr(&pp.Hometown)
		case 11:
			return d.setStr(&pp.CurrentCity)
		case 12:
			return d.setBool(&pp.FriendListVisible)
		case 13:
			return d.setInt(&pp.PhotoCount)
		case 14:
			return d.setBool(&pp.ContactInfo)
		case 15:
			return d.setBool(&pp.CanMessage)
		case 16:
			return d.setBool(&pp.Searchable)
		}
		return d.skip(2)
	}
	ok := d.object(0, func(k string) bool {
		if field(k, "profile") != 0 {
			return d.skip(1)
		}
		if d.peek() == 'n' {
			found = false
			return d.word("null")
		}
		if !found {
			// A first object, or one after a null, starts from zero; a
			// repeated one updates the fields it names, as encoding/json
			// decodes it into the profile it already holds.
			pp, birthday, found = osn.PublicProfile{}, "", true
		}
		return d.object(1, member)
	})
	if !ok || !d.end() {
		return nil, malformed("bad JSON at byte %d", d.i)
	}
	if !found {
		return nil, malformed("missing %q container", "profile")
	}
	pp.ID = id
	pp.Birthday = parseDate(birthday)
	return &pp, nil
}
