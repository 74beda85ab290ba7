package osnhttp

import (
	"net/url"
	"strconv"
	"strings"
)

// The one router and the one request parser. Both wires slice the request
// path once, in route, into the endpoint that selects the handler; the
// endpoint's family picks the concurrency limiter and names the metrics
// series. The query string is read once, in parseQuery, into the same
// fields with the same validation on both wires. Only the writers differ.

// family is an endpoint family: the unit of the concurrency limits and of
// the osn_http_* metrics labels. Path parameters (ids, pages) fold away, so
// the label set stays bounded however large the crawled graph is. The JSON
// routes fold onto the same families as their HTML counterparts, so
// dashboards see one series per logical endpoint regardless of wire.
type family uint8

const (
	famRegister family = iota
	famSchools
	famSearch
	famProfile
	famFriends
	famHealthz
	famOther
	numFamilies
)

// familyLabels are the metrics label values, in registration order.
var familyLabels = [numFamilies]string{"register", "schools", "search", "profile", "friendlist", "healthz", "other"}

func (f family) String() string { return familyLabels[f] }

// endpoint is the first path segment a request names (after /api/v1/ on
// the JSON wire). Whether the wire serves it is dispatch's decision.
type endpoint uint8

const (
	epUnknown endpoint = iota
	epRegister
	epSchools
	epHealthz
	epSearch      // /api/v1/search: the query picks school, city or graph search
	epFindFriends // /find-friends: school search
	epCitySearch  // /city-search
	epGraphSearch // /graph-search
	epProfile
	epFriends
	epAdmin
)

// target is a routed request path.
type target struct {
	ep  endpoint
	api bool // the /api/v1 JSON wire
	// sub reports a '/' after the endpoint segment; rest is what follows
	// it: the profile or friend-list id, or the admin route.
	sub  bool
	rest string
}

// route slices a request path once, without allocating: the rest of the
// path is a substring of the request's own.
func route(path string) target {
	var t target
	if strings.HasPrefix(path, apiPrefix) {
		t.api, path = true, path[len(apiPrefix):]
	} else {
		path = strings.TrimPrefix(path, "/")
	}
	var seg string
	seg, t.rest, t.sub = strings.Cut(path, "/")
	switch seg {
	case "register":
		t.ep = epRegister
	case "schools":
		t.ep = epSchools
	case "healthz":
		t.ep = epHealthz
	case "search":
		t.ep = epSearch
	case "find-friends":
		t.ep = epFindFriends
	case "city-search":
		t.ep = epCitySearch
	case "graph-search":
		t.ep = epGraphSearch
	case "profile":
		t.ep = epProfile
	case "friends":
		t.ep = epFriends
	case "admin":
		t.ep = epAdmin
	}
	return t
}

// family folds the endpoint onto its family.
func (t target) family() family {
	switch t.ep {
	case epRegister:
		return famRegister
	case epSchools:
		return famSchools
	case epHealthz:
		return famHealthz
	case epSearch, epFindFriends, epCitySearch, epGraphSearch:
		return famSearch
	case epProfile:
		return famProfile
	case epFriends:
		return famFriends
	}
	return famOther
}

// searchKind is which platform search a request runs.
type searchKind uint8

const (
	searchSchool searchKind = iota
	searchCity
	searchGraph
)

// query is a read request's parameters, parsed once for either wire.
type query struct {
	acct string
	page int
	kind searchKind
	// school, city and the graph fields are read for searches only.
	school        int
	city          string
	current       bool
	after, before int
}

// Bad-request answers, shared by both wires.
const (
	badPage   = "page must be a non-negative integer"
	badSchool = "school must be a numeric id"
	badYears  = "after/before must be numeric years"
)

// The query parameters any endpoint reads, by index into parseQuery's
// value array.
const (
	qAcct = iota
	qPage
	qSchool
	qCity
	qAfter
	qBefore
	qGraph
	qCurrent
	numQueryKeys
)

var queryKeys = [numQueryKeys]string{
	qAcct: "acct", qPage: "page", qSchool: "school", qCity: "city",
	qAfter: "after", qBefore: "before", qGraph: "graph", qCurrent: "current",
}

// parseQuery reads the raw query string in one pass and validates what
// the endpoint uses: the page of searches and friend pages, the school of
// school and graph searches, the year bounds of graph searches. A
// non-empty bad is the 400 answer. Absent numbers read as 0, except a
// school search's school. The first occurrence of a key wins. Values are
// substrings of the request URL; only a percent- or plus-encoded value
// (a city with a space) costs a decode allocation.
func parseQuery(raw string, ep endpoint) (q query, bad string) {
	var vals [numQueryKeys]string
	var seen [numQueryKeys]bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		key, v, ok := strings.Cut(pair, "=")
		if !ok {
			continue
		}
		for i, k := range queryKeys {
			if key == k {
				if !seen[i] {
					seen[i], vals[i] = true, unescapeValue(v)
				}
				break
			}
		}
	}
	q.acct, q.city = vals[qAcct], vals[qCity]
	switch ep {
	case epProfile:
		return q, ""
	case epSearch:
		switch {
		case vals[qGraph] == "1":
			q.kind = searchGraph
		case q.city != "" && vals[qSchool] == "":
			q.kind = searchCity
		}
	case epCitySearch:
		q.kind = searchCity
	case epGraphSearch:
		q.kind = searchGraph
	}
	var ok bool
	if q.page, ok = atoiOrZero(vals[qPage]); !ok || q.page < 0 {
		return q, badPage
	}
	switch {
	case ep == epFriends:
	case q.kind == searchSchool:
		var err error
		if q.school, err = strconv.Atoi(vals[qSchool]); err != nil {
			return q, badSchool
		}
	case q.kind == searchGraph:
		if q.school, ok = atoiOrZero(vals[qSchool]); !ok {
			return q, badSchool
		}
		var okAfter, okBefore bool
		q.after, okAfter = atoiOrZero(vals[qAfter])
		q.before, okBefore = atoiOrZero(vals[qBefore])
		if !okAfter || !okBefore {
			return q, badYears
		}
		q.current = vals[qCurrent] == "1"
	}
	return q, ""
}

// atoiOrZero parses an integer parameter; an absent one is 0.
func atoiOrZero(v string) (int, bool) {
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	return n, err == nil
}

// unescapeValue decodes a query value ('+' is a space). A value with a
// malformed escape is kept as sent.
func unescapeValue(v string) string {
	if strings.IndexByte(v, '%') < 0 && strings.IndexByte(v, '+') < 0 {
		return v
	}
	if u, err := url.QueryUnescape(v); err == nil {
		return u
	}
	return v
}

// oneSegment reports whether an HTML id is a single segment of the path as
// sent: an encoded slash (%2F) belongs to the id, a literal one makes the
// path unknown, as it did under the pattern router the HTML wire replaced.
func oneSegment(u *url.URL) bool {
	p := u.RawPath
	if p == "" {
		p = u.Path
	}
	_, id, _ := strings.Cut(strings.TrimPrefix(p, "/"), "/")
	return strings.IndexByte(id, '/') < 0
}
