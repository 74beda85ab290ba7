package osnhttp

import (
	"net/http"
	"strconv"
	"time"

	"hsprofiler/internal/obs"
)

// serverMetrics is the platform-side request accounting: volume and latency
// per endpoint, plus the two series the paper's crawl economics turn on —
// how often the platform throttled (503) and how often it suspended a fake
// account (429). A nil *serverMetrics makes every method a no-op.
type serverMetrics struct {
	reg         *obs.Registry
	latency     [numFamilies]*obs.Histogram
	throttled   *obs.Counter
	suspensions *obs.Counter
	shed        *obs.Counter
	inflight    *obs.Gauge
}

const (
	helpHTTPRequests = "OSN requests served, by endpoint and status code."
	helpHTTPLatency  = "OSN request handling latency, by endpoint."
	helpThrottled    = "Requests rejected by the adaptive throttle (HTTP 503)."
	helpSuspensions  = "Requests rejected because the account is suspended (HTTP 429)."
	helpShed         = "Requests shed by a per-endpoint concurrency limiter (HTTP 503)."
	helpInflight     = "OSN requests currently being handled."
)

// Instrument publishes per-request server metrics to the registry:
// osn_http_requests_total{endpoint,code}, osn_http_request_seconds{endpoint},
// osn_http_throttled_total, osn_http_suspensions_total and
// osn_http_inflight_requests. Every endpoint's series (with code="200") is
// pre-registered at zero so a scrape of an idle server already exposes the
// full catalogue. A nil registry leaves the server uninstrumented. Returns
// the server for chaining.
func (s *Server) Instrument(reg *obs.Registry) *Server {
	if reg == nil {
		return s
	}
	m := &serverMetrics{reg: reg}
	for fam, ep := range familyLabels {
		reg.Counter("osn_http_requests_total", helpHTTPRequests,
			obs.L("endpoint", ep), obs.L("code", "200"))
		m.latency[fam] = reg.Histogram("osn_http_request_seconds", helpHTTPLatency, nil,
			obs.L("endpoint", ep))
	}
	m.throttled = reg.Counter("osn_http_throttled_total", helpThrottled)
	m.suspensions = reg.Counter("osn_http_suspensions_total", helpSuspensions)
	m.shed = reg.Counter("osn_http_shed_total", helpShed)
	m.inflight = reg.Gauge("osn_http_inflight_requests", helpInflight)
	s.metrics = m
	return s
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// shedded records one limiter rejection.
func (m *serverMetrics) shedded() {
	if m == nil {
		return
	}
	m.shed.Inc()
}

// observe records one served request.
func (m *serverMetrics) observe(fam family, code int, d time.Duration) {
	if m == nil {
		return
	}
	m.reg.Counter("osn_http_requests_total", helpHTTPRequests,
		obs.L("endpoint", fam.String()), obs.L("code", strconv.Itoa(code))).Inc()
	m.latency[fam].ObserveDuration(d)
	switch code {
	case http.StatusServiceUnavailable:
		m.throttled.Inc()
	case http.StatusTooManyRequests:
		m.suspensions.Inc()
	}
}
