package osnhttp

import (
	"net/http"
	"strconv"
	"sync"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/sim"
)

// The versioned JSON wire API. The HTML endpoints exist because the paper's
// crawlers scraped HTML; production serving wants a machine-readable surface
// with the same semantics. /api/v1 serves exactly the stranger-visible views
// the HTML pages render, through the same router, request parser and
// encoder, backed by the same frozen read plane, under a stability contract
// (see DESIGN.md "Wire protocol"):
//
//	GET  /api/v1/schools                      {"n":2,"schools":[{"id":0,"name":..,"city":..}]}
//	GET  /api/v1/search?school=N&page=P&acct= {"n":40,"results":[{"id":..,"name":..}],"more":true}
//	GET  /api/v1/search?city=X&page=P&acct=   (by-city people search)
//	GET  /api/v1/search?graph=1&school=N&...  (structured graph-search query)
//	GET  /api/v1/profile/{id}?acct=           {"profile":{..}} (absent fields are hidden)
//	GET  /api/v1/friends/{id}?page=P&acct=    {"n":20,"friends":[..],"more":false}
//	POST /api/v1/register (form: name, birth) {"token":".."}
//
// Errors use one envelope at the error's HTTP status:
//
//	{"error":{"code":"throttled","message":"osn: rate limited, retry later"}}
//
// Steady-state GET handlers are allocation-free on both wires: routing and
// query parsing slice the request strings in place, responses are written
// into pooled byte buffers, and every body row references the read plane's
// interned strings. The list containers carry an "n" row count so clients
// can detect damaged bodies the way the HTML parser's checkRows does.
const apiPrefix = "/api/v1/"

var ctJSON = []string{"application/json; charset=utf-8"}

// enc renders one response body, HTML or JSON, into a pooled buffer. It
// is not a general encoder: it appends exactly the pages and shapes the
// wires serve, escaping what html/template (html.go) and RFC 8259 require.
//
// The pool is the buffer's one owner. A per-connection buffer installed
// through http.Server.ConnContext would reach only servers built with that
// hook, and cmd/bench and httptest build their own http.Server around the
// handler, so they would need a second path.
type enc struct{ b []byte }

var encPool = sync.Pool{New: func() any { return &enc{b: make([]byte, 0, 8<<10)} }}

func getEnc() *enc {
	e := encPool.Get().(*enc)
	e.b = e.b[:0]
	return e
}

// putEnc recycles the buffer unless a pathological response grew it huge.
func putEnc(e *enc) {
	if cap(e.b) <= 1<<20 {
		encPool.Put(e)
	}
}

func (e *enc) raw(s string) { e.b = append(e.b, s...) }
func (e *enc) sep(i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
}
func (e *enc) int(n int) { e.b = strconv.AppendInt(e.b, int64(n), 10) }

// epoch appends an epoch id — the consistency token every /api/v1 response
// carries so a client can tell when pagination crossed a snapshot rotation.
func (e *enc) epoch(seq uint64) { e.b = strconv.AppendUint(e.b, seq, 10) }
func (e *enc) bool(v bool) {
	if v {
		e.raw("true")
	} else {
		e.raw("false")
	}
}

const hexDigits = "0123456789abcdef"

// str appends a quoted, escaped JSON string. Multi-byte UTF-8 passes
// through verbatim (valid JSON); only quotes, backslashes and control
// bytes are escaped.
func (e *enc) str(s string) {
	e.b = append(e.b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		e.b = append(e.b, s[start:i]...)
		switch c {
		case '"':
			e.raw(`\"`)
		case '\\':
			e.raw(`\\`)
		default:
			e.raw(`\u00`)
			e.b = append(e.b, hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	e.b = append(e.b, s[start:]...)
	e.b = append(e.b, '"')
}

// field appends `,"name":"value"` (the object must already have a first
// member, which every profile does: its id).
func (e *enc) field(name, value string) {
	e.b = append(e.b, ',', '"')
	e.raw(name)
	e.b = append(e.b, '"', ':')
	e.str(value)
}

func (e *enc) fieldInt(name string, v int) {
	e.b = append(e.b, ',', '"')
	e.raw(name)
	e.b = append(e.b, '"', ':')
	e.int(v)
}

func (e *enc) fieldBool(name string, v bool) {
	e.b = append(e.b, ',', '"')
	e.raw(name)
	e.b = append(e.b, '"', ':')
	e.bool(v)
}

// pad appends a zero-padded date component.
func (e *enc) pad(n, width int) {
	var tmp [8]byte
	i := len(tmp)
	if n < 0 {
		n = 0
	}
	for {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	for len(tmp)-i < width {
		i--
		tmp[i] = '0'
	}
	e.b = append(e.b, tmp[i:]...)
}

// dateDigits appends YYYY-MM-DD.
func (e *enc) dateDigits(d sim.Date) {
	e.pad(d.Year, 4)
	e.b = append(e.b, '-')
	e.pad(int(d.Month), 2)
	e.b = append(e.b, '-')
	e.pad(d.Day, 2)
}

// flush writes the buffer as a 200 response body of content type ct.
func (e *enc) flush(w http.ResponseWriter, ct []string) {
	w.Header()["Content-Type"] = ct
	w.Write(e.b)
}

// apiCode maps a platform error to its HTTP status and wire error code. The
// status is httpStatus's, so both wires agree; the code string is the
// machine-readable half of the envelope.
func apiCode(err error) (int, string) {
	switch code := httpStatus(err); code {
	case http.StatusUnauthorized:
		return code, "unauthorized"
	case http.StatusTooManyRequests:
		return code, "suspended"
	case http.StatusServiceUnavailable:
		return code, "throttled"
	case http.StatusForbidden:
		return code, "underage"
	case http.StatusNotFound:
		return code, "not_found"
	case http.StatusGone:
		return code, "hidden"
	default:
		return code, "internal"
	}
}

// apiError writes the error envelope at the given status. When the
// request carries a client-minted id, the envelope echoes it as
// "request_id" — the wire-correlation contract: an attacker-side retry
// and a defender-side error row share one id.
func apiError(w http.ResponseWriter, r *http.Request, code int, codeStr, msg string) {
	e := getEnc()
	e.raw(`{"error":{"code":`)
	e.str(codeStr)
	e.raw(`,"message":`)
	e.str(msg)
	e.raw(`}`)
	if id := r.Header.Get(RequestIDHeader); id != "" {
		e.raw(`,"request_id":`)
		e.str(id)
	}
	e.raw(`}`)
	h := w.Header()
	h["Content-Type"] = ctJSON
	if code == http.StatusServiceUnavailable {
		h["Retry-After"] = retryAfter1
	}
	w.WriteHeader(code)
	w.Write(e.b)
	putEnc(e)
}

func (e *enc) jsonSchools(schools []osn.SchoolRef, epoch uint64) {
	e.raw(`{"n":`)
	e.int(len(schools))
	e.raw(`,"schools":[`)
	for i, sc := range schools {
		e.sep(i)
		e.raw(`{"id":`)
		e.int(sc.ID)
		e.field("name", sc.Name)
		e.field("city", sc.City)
		e.raw(`}`)
	}
	e.raw(`],"epoch":`)
	e.epoch(epoch)
	e.raw(`}`)
}

// jsonRow appends one search result or friend entry.
func (e *enc) jsonRow(id osn.PublicID, name string) {
	e.raw(`{"id":`)
	e.str(string(id))
	e.field("name", name)
	e.raw(`}`)
}

// appendListHead appends the head of a list body, {"n":N,"<key>":[, to
// dst.
func appendListHead(dst []byte, n int, key string) []byte {
	dst = append(dst, `{"n":`...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, `,"`...)
	dst = append(dst, key...)
	return append(dst, `":[`...)
}

// jsonListTail closes a list body: ],"more":B,"epoch":E}.
func (e *enc) jsonListTail(more bool, epoch uint64) {
	e.raw(`],"more":`)
	e.bool(more)
	e.raw(`,"epoch":`)
	e.epoch(epoch)
	e.raw(`}`)
}

// prepend writes head in front of everything in the buffer. A friend
// page's rows stream out of the CSR row before their count is known, so
// its list head goes in after them, with one move of the rows.
func (e *enc) prepend(head []byte) {
	n := len(e.b)
	e.b = append(e.b, head...)
	copy(e.b[len(head):], e.b[:n])
	copy(e.b, head)
}

func (e *enc) jsonProfile(pp *osn.PublicProfile, epoch uint64) {
	e.raw(`{"profile":{"id":`)
	e.str(string(pp.ID))
	e.field("name", pp.Name)
	// Hidden attributes are absent, not zero-valued: the wire schema
	// mirrors the HTML page's optional sections, and the client
	// reconstructs the identical osn.PublicProfile from what is present.
	if pp.HasPhoto {
		e.fieldBool("has_photo", true)
	}
	if pp.Gender != "" {
		e.field("gender", pp.Gender)
	}
	if pp.Network != "" {
		e.field("network", pp.Network)
	}
	if pp.HighSchool != "" {
		e.field("high_school", pp.HighSchool)
	}
	if pp.GradYear != 0 {
		e.fieldInt("grad_year", pp.GradYear)
	}
	if pp.GradSchool {
		e.fieldBool("grad_school", true)
	}
	if pp.Relationship {
		e.fieldBool("relationship", true)
	}
	if pp.InterestedIn {
		e.fieldBool("interested_in", true)
	}
	if pp.Birthday != nil {
		e.raw(`,"birthday":"`)
		e.dateDigits(*pp.Birthday)
		e.raw(`"`)
	}
	if pp.Hometown != "" {
		e.field("hometown", pp.Hometown)
	}
	if pp.CurrentCity != "" {
		e.field("current_city", pp.CurrentCity)
	}
	if pp.FriendListVisible {
		e.fieldBool("friend_list_visible", true)
	}
	if pp.PhotoCount != 0 {
		e.fieldInt("photo_count", pp.PhotoCount)
	}
	if pp.ContactInfo {
		e.fieldBool("contact_info", true)
	}
	if pp.CanMessage {
		e.fieldBool("can_message", true)
	}
	if pp.Searchable {
		e.fieldBool("searchable", true)
	}
	e.raw(`},"epoch":`)
	e.epoch(epoch)
	e.raw(`}`)
}
