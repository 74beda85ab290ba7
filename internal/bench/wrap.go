package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"hsprofiler/internal/crawler"
	"hsprofiler/internal/osn"
	"hsprofiler/internal/osnhttp"
)

// The taps below are the benchmark's timing wrappers. Each sits around a
// module's public surface — the crawler.Client interface, the HTTP
// transport, the osnhttp.Server handler — and records into a Recorder;
// none of them changes what the wrapped code does.

// tapClient times every crawler.Client call. Its join key names the
// request the way the transport tap can rebuild it from the URL.
type tapClient struct {
	inner crawler.Client
	rec   *Recorder
}

var _ crawler.Client = tapClient{}

func callKey(kind, target string, page, acct int) string {
	return kind + "|" + target + "|" + strconv.Itoa(page) + "|" + strconv.Itoa(acct)
}

func (t tapClient) Accounts() int { return t.inner.Accounts() }

func (t tapClient) LookupSchool(name string) (osn.SchoolRef, error) {
	c := t.rec.beginCall("schools", "schools")
	defer t.rec.endCall(c)
	return t.inner.LookupSchool(name)
}

func (t tapClient) Search(acct, schoolID, page int) ([]osn.SearchResult, bool, error) {
	c := t.rec.beginCall("search", callKey("search", strconv.Itoa(schoolID), page, acct))
	defer t.rec.endCall(c)
	return t.inner.Search(acct, schoolID, page)
}

func (t tapClient) Profile(acct int, id osn.PublicID) (*osn.PublicProfile, error) {
	c := t.rec.beginCall("profile", callKey("profile", string(id), 0, acct))
	defer t.rec.endCall(c)
	return t.inner.Profile(acct, id)
}

func (t tapClient) FriendPage(acct int, id osn.PublicID, page int) ([]osn.FriendRef, bool, error) {
	c := t.rec.beginCall("friends", callKey("friends", string(id), page, acct))
	defer t.rec.endCall(c)
	return t.inner.FriendPage(acct, id, page)
}

// tapTransport times every round trip from RoundTrip entry to the end of
// the response body, and gives each request a run-unique id (the client's
// id plus a sequence suffix) so the server-side tap can be joined to it
// even when identical requests repeat.
type tapTransport struct {
	inner http.RoundTripper
	rec   *Recorder
}

func (t tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/register") {
		return t.register(req)
	}
	out := req.Clone(req.Context())
	id := t.rec.nextID(req.Header.Get(osnhttp.RequestIDHeader))
	out.Header.Set(osnhttp.RequestIDHeader, id)
	rt := t.rec.beginRoundTrip(t.requestKey(req.URL), id)
	resp, err := t.inner.RoundTrip(out)
	if err != nil {
		t.rec.endRoundTrip(rt)
		return nil, err
	}
	resp.Body = &tapBody{ReadCloser: resp.Body, rec: t.rec, rt: rt}
	return resp, nil
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// tapped transport.
func (t tapTransport) CloseIdleConnections() {
	if c, ok := t.inner.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// register passes an account registration through and learns the token it
// returns, so later URLs can be mapped back to account numbers. Both wires
// are understood: the HTML one answers with the bare token, the JSON one
// with {"token": ...}.
func (t tapTransport) register(req *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if resp.StatusCode == http.StatusOK {
		var tok struct {
			Token string `json:"token"`
		}
		if json.Unmarshal(body, &tok) != nil || tok.Token == "" {
			tok.Token = strings.TrimSpace(string(body))
		}
		t.rec.registerToken(tok.Token)
	}
	return resp, nil
}

// requestKey rebuilds a tapClient join key from a request URL on either
// wire: /find-friends and /api/v1/search, /profile/{id} and
// /api/v1/profile/{id}, /friends/{id} and /api/v1/friends/{id}.
func (t tapTransport) requestKey(u *url.URL) string {
	path := strings.TrimPrefix(u.Path, "/api/v1")
	q := u.Query()
	page, _ := strconv.Atoi(q.Get("page"))
	acct := t.rec.acctOf(q.Get("acct"))
	switch {
	case path == "/schools":
		return "schools"
	case path == "/find-friends" || path == "/search":
		return callKey("search", q.Get("school"), page, acct)
	case strings.HasPrefix(path, "/profile/"):
		return callKey("profile", strings.TrimPrefix(path, "/profile/"), 0, acct)
	case strings.HasPrefix(path, "/friends/"):
		return callKey("friends", strings.TrimPrefix(path, "/friends/"), page, acct)
	}
	return path
}

// tapBody ends its round trip at the first EOF or Close.
type tapBody struct {
	io.ReadCloser
	rec *Recorder
	rt  *rtRec
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.rec.endRoundTrip(b.rt)
	}
	return n, err
}

func (b *tapBody) Close() error {
	b.rec.endRoundTrip(b.rt)
	return b.ReadCloser.Close()
}

// tapHandler times the osnhttp.Server handler per request id.
type tapHandler struct {
	inner http.Handler
	rec   *Recorder
}

func (t tapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.inner.ServeHTTP(w, r)
	end := time.Now()
	if id := r.Header.Get(osnhttp.RequestIDHeader); id != "" {
		t.rec.handler(id, interval{start: start, end: end})
	}
}
