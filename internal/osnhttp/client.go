package osnhttp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/osn"
)

// Pacer throttles the crawler between requests. The paper's crawlers used
// sleep functions to stay under the platform's anti-crawl radar; tests use
// NoPace to run at full speed against the local simulator.
type Pacer interface {
	Pause()
}

// NoPace performs no throttling.
type NoPace struct{}

// Pause implements Pacer.
func (NoPace) Pause() {}

// SleepPace sleeps a fixed interval before every request.
type SleepPace struct{ Interval time.Duration }

// Pause implements Pacer.
func (s SleepPace) Pause() { time.Sleep(s.Interval) }

// Client crawls the platform over one of its two wires: the HTML pages the
// paper's crawlers scraped (NewClient) or the /api/v1 JSON surface
// (NewJSONClient). It implements the stranger-visible access surface the
// attack code consumes (crawler.Client). The transport, accounts, request
// ids, logging and status mapping are the same on both wires; a wire
// supplies only its paths and body decoders, so an attack is
// request-for-request, and therefore Tables 2–4, the same over either
// (proven end to end in internal/experiments).
type Client struct {
	base  string
	hc    *http.Client
	pacer Pacer
	// tokens holds each account's token as a query carries it: escaped
	// once, at registration.
	tokens []string
	seed   uint64
	lg     *evlog.Logger
	w      *wire
}

// JSONClient is Client. The alias exists only because internal/bench names
// the type; it goes when the benchmark's load generator moves onto Client
// (ROADMAP item 3's benchmark half).
type JSONClient = Client

// wire is what one of the platform's surfaces supplies to Client: its path
// prefix, the heads of its three search paths, and its body decoders. A
// decoder copies out every string it keeps, so the body's buffer is reused
// once it returns.
type wire struct {
	prefix string // "" or "/api/v1"
	// find, city and graph precede the query of the school, by-city and
	// graph searches.
	find, city, graph string

	token   func(body []byte) (string, error)
	schools func(body []byte) ([]osn.SchoolRef, error)
	results func(body []byte) ([]osn.SearchResult, bool, error)
	profile func(body []byte, id osn.PublicID) (*osn.PublicProfile, error)
	friends func(body []byte) ([]osn.FriendRef, bool, error)
}

// NewClient returns a client for the HTML pages of the server at base (e.g.
// an httptest URL). hc may be nil for http.DefaultClient; pacer may be nil
// for NoPace.
func NewClient(base string, hc *http.Client, pacer Pacer) *Client {
	return newClient(base, hc, pacer, &htmlWire)
}

// NewJSONClient returns a client for the /api/v1 JSON surface of the server
// at base, with NewClient's defaults.
func NewJSONClient(base string, hc *http.Client, pacer Pacer) *Client {
	return newClient(base, hc, pacer, &jsonWire)
}

func newClient(base string, hc *http.Client, pacer Pacer, w *wire) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	if pacer == nil {
		pacer = NoPace{}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc, pacer: pacer, seed: 1, w: w}
}

// WithSeed sets the request-id seed (default 1). Two clients with the
// same seed mint identical ids for identical paths, which is what makes
// id sequences reproducible across runs. Returns c for chaining.
func (c *Client) WithSeed(seed uint64) *Client {
	c.seed = seed
	return c
}

// WithLog attaches an event logger: every request emits one "wire" event
// carrying the request id, path, status and latency — the attacker-side
// half of the cross-process join runreport performs against the server's
// access log. Returns c for chaining.
func (c *Client) WithLog(lg *evlog.Logger) *Client {
	c.lg = lg
	return c
}

// RegisterAccounts creates n fake adult accounts for crawling, as the study
// did (2 for HS1, 4 each for HS2/HS3).
func (c *Client) RegisterAccounts(n int) error {
	for i := 0; i < n; i++ {
		form := url.Values{
			"name":  {fmt.Sprintf("crawler%d", len(c.tokens))},
			"birth": {"1985-01-01"},
		}
		resp, err := c.hc.PostForm(c.base+c.w.prefix+"/register", form)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("osnhttp: register: %w", statusErr(resp.StatusCode, body))
		}
		tok, err := c.w.token(body)
		if err != nil {
			return err
		}
		c.tokens = append(c.tokens, url.QueryEscape(tok))
	}
	return nil
}

// Accounts reports how many fake accounts the client holds.
func (c *Client) Accounts() int { return len(c.tokens) }

// statusErr maps a wire status code back to the platform error values so
// the attack code behaves identically in-process and over HTTP. The status
// alone decides: /api/v1 derives its envelope's code from it (apiCode), so
// the body is read only into the message of an unmapped status.
func statusErr(code int, body []byte) error {
	switch code {
	case http.StatusUnauthorized:
		return osn.ErrUnauthorized
	case http.StatusTooManyRequests:
		return osn.ErrSuspended
	case http.StatusServiceUnavailable:
		return osn.ErrThrottled
	case http.StatusForbidden:
		return osn.ErrUnderage
	case http.StatusNotFound:
		return osn.ErrNotFound
	case http.StatusGone:
		return osn.ErrHidden
	default:
		return fmt.Errorf("osnhttp: unexpected status %d: %s", code, bytes.TrimSpace(body))
	}
}

// readPool holds the response-body buffers. A decoder copies out every
// string it keeps, so a buffer goes back as soon as its body is decoded.
var readPool = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 8<<10)) }}

// putRead recycles the buffer unless a pathological body grew it huge,
// the cap the server's encPool keeps.
func putRead(b *bytes.Buffer) {
	if b.Cap() <= 1<<20 {
		readPool.Put(b)
	}
}

// get fetches the page at u, which is c.base followed by the request
// path, applying pacing, request-id stamping and error mapping. The body
// is always read in full — even on error statuses — so the connection
// returns to the keep-alive pool. A 200 body comes back in a pooled
// buffer, which the caller returns with putRead once it has decoded it.
func (c *Client) get(u string) (*bytes.Buffer, error) {
	c.pacer.Pause()
	path := u[len(c.base):]
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	id := requestID(c.seed, path)
	req.Header[RequestIDHeader] = []string{id}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		if c.lg.On(evlog.Warn) {
			c.lg.Warn(context.Background(), "wire", "request failed",
				evlog.Str("id", id), evlog.Str("path", path), evlog.Err("err", err))
		}
		return nil, err
	}
	defer resp.Body.Close()
	b := readPool.Get().(*bytes.Buffer)
	b.Reset()
	_, err = b.ReadFrom(resp.Body)
	if c.lg.On(evlog.Info) {
		c.lg.Info(context.Background(), "wire", "request",
			evlog.Str("id", id), evlog.Str("path", path),
			evlog.Int("code", resp.StatusCode), evlog.Dur("ms", time.Since(start)))
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = statusErr(resp.StatusCode, b.Bytes())
	}
	if err != nil {
		putRead(b)
		return nil, err
	}
	return b, nil
}

func (c *Client) token(acct int) (string, error) {
	if acct < 0 || acct >= len(c.tokens) {
		return "", fmt.Errorf("osnhttp: account %d not registered (have %d)", acct, len(c.tokens))
	}
	return c.tokens[acct], nil
}

// LookupSchool resolves a school by exact name, scanning the portal
// directory client-side.
func (c *Client) LookupSchool(name string) (osn.SchoolRef, error) {
	b, err := c.get(c.base + c.w.prefix + "/schools")
	if err != nil {
		return osn.SchoolRef{}, err
	}
	defer putRead(b)
	schools, err := c.w.schools(b.Bytes())
	if err != nil {
		return osn.SchoolRef{}, err
	}
	for _, s := range schools {
		if s.Name == name {
			return s, nil
		}
	}
	return osn.SchoolRef{}, osn.ErrNoSchool
}

// search fetches and decodes one page of any of the three searches.
func (c *Client) search(u string) ([]osn.SearchResult, bool, error) {
	b, err := c.get(u)
	if err != nil {
		return nil, false, err
	}
	defer putRead(b)
	return c.w.results(b.Bytes())
}

// Search fetches one page of Find-Friends results using the acct-th fake
// account.
func (c *Client) Search(acct, schoolID, page int) ([]osn.SearchResult, bool, error) {
	tok, err := c.token(acct)
	if err != nil {
		return nil, false, err
	}
	return c.search(c.base + c.w.prefix + c.w.find + "school=" + strconv.Itoa(schoolID) +
		"&page=" + strconv.Itoa(page) + "&acct=" + tok)
}

// CitySearch fetches one page of the by-city people search.
func (c *Client) CitySearch(acct int, city string, page int) ([]osn.SearchResult, bool, error) {
	tok, err := c.token(acct)
	if err != nil {
		return nil, false, err
	}
	return c.search(c.base + c.w.prefix + c.w.city + "city=" + url.QueryEscape(city) +
		"&page=" + strconv.Itoa(page) + "&acct=" + tok)
}

// GraphSearch runs a structured Graph-Search-style query via the acct-th
// account.
func (c *Client) GraphSearch(acct int, q osn.GraphQuery, page int) ([]osn.SearchResult, bool, error) {
	tok, err := c.token(acct)
	if err != nil {
		return nil, false, err
	}
	current := "0"
	if q.CurrentStudents {
		current = "1"
	}
	return c.search(c.base + c.w.prefix + c.w.graph + "school=" + strconv.Itoa(q.SchoolID) +
		"&current=" + current + "&after=" + strconv.Itoa(q.GradYearAfter) +
		"&before=" + strconv.Itoa(q.GradYearBefore) + "&city=" + url.QueryEscape(q.City) +
		"&page=" + strconv.Itoa(page) + "&acct=" + tok)
}

// Profile fetches and decodes a public profile.
func (c *Client) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	tok, err := c.token(acct)
	if err != nil {
		return nil, err
	}
	b, err := c.get(c.base + c.w.prefix + "/profile/" + url.PathEscape(string(id)) + "?acct=" + tok)
	if err != nil {
		return nil, err
	}
	defer putRead(b)
	return c.w.profile(b.Bytes(), id)
}

// FriendPage fetches one page of a friend list.
func (c *Client) FriendPage(acct int, id osn.PublicID, page int) ([]osn.FriendRef, bool, error) {
	tok, err := c.token(acct)
	if err != nil {
		return nil, false, err
	}
	b, err := c.get(c.base + c.w.prefix + "/friends/" + url.PathEscape(string(id)) +
		"?page=" + strconv.Itoa(page) + "&acct=" + tok)
	if err != nil {
		return nil, false, err
	}
	defer putRead(b)
	return c.w.friends(b.Bytes())
}
