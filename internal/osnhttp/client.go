package osnhttp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
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
	base   string
	hc     *http.Client
	pacer  Pacer
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
// prefix, the heads of its three search paths, and its body decoders.
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
		c.tokens = append(c.tokens, tok)
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

// get fetches a page, applying pacing, request-id stamping and error
// mapping. The body is always read in full — even on error statuses — so
// the connection returns to the keep-alive pool.
func (c *Client) get(path string) ([]byte, error) {
	c.pacer.Pause()
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
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
	body, err := io.ReadAll(resp.Body)
	if c.lg.On(evlog.Info) {
		c.lg.Info(context.Background(), "wire", "request",
			evlog.Str("id", id), evlog.Str("path", path),
			evlog.Int("code", resp.StatusCode), evlog.Dur("ms", time.Since(start)))
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr(resp.StatusCode, body)
	}
	return body, nil
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
	body, err := c.get(c.w.prefix + "/schools")
	if err != nil {
		return osn.SchoolRef{}, err
	}
	schools, err := c.w.schools(body)
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
func (c *Client) search(path string) ([]osn.SearchResult, bool, error) {
	body, err := c.get(path)
	if err != nil {
		return nil, false, err
	}
	return c.w.results(body)
}

// Search fetches one page of Find-Friends results using the acct-th fake
// account.
func (c *Client) Search(acct, schoolID, page int) ([]osn.SearchResult, bool, error) {
	tok, err := c.token(acct)
	if err != nil {
		return nil, false, err
	}
	return c.search(fmt.Sprintf("%s%sschool=%d&page=%d&acct=%s",
		c.w.prefix, c.w.find, schoolID, page, url.QueryEscape(tok)))
}

// CitySearch fetches one page of the by-city people search.
func (c *Client) CitySearch(acct int, city string, page int) ([]osn.SearchResult, bool, error) {
	tok, err := c.token(acct)
	if err != nil {
		return nil, false, err
	}
	return c.search(fmt.Sprintf("%s%scity=%s&page=%d&acct=%s",
		c.w.prefix, c.w.city, url.QueryEscape(city), page, url.QueryEscape(tok)))
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
	return c.search(fmt.Sprintf("%s%sschool=%d&current=%s&after=%d&before=%d&city=%s&page=%d&acct=%s",
		c.w.prefix, c.w.graph, q.SchoolID, current, q.GradYearAfter, q.GradYearBefore,
		url.QueryEscape(q.City), page, url.QueryEscape(tok)))
}

// Profile fetches and decodes a public profile.
func (c *Client) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	tok, err := c.token(acct)
	if err != nil {
		return nil, err
	}
	body, err := c.get(fmt.Sprintf("%s/profile/%s?acct=%s", c.w.prefix, url.PathEscape(string(id)), url.QueryEscape(tok)))
	if err != nil {
		return nil, err
	}
	return c.w.profile(body, id)
}

// FriendPage fetches one page of a friend list.
func (c *Client) FriendPage(acct int, id osn.PublicID, page int) ([]osn.FriendRef, bool, error) {
	tok, err := c.token(acct)
	if err != nil {
		return nil, false, err
	}
	body, err := c.get(fmt.Sprintf("%s/friends/%s?page=%d&acct=%s", c.w.prefix, url.PathEscape(string(id)), page, url.QueryEscape(tok)))
	if err != nil {
		return nil, false, err
	}
	return c.w.friends(body)
}
