package osnhttp

import (
	"fmt"
	"html"
	"strings"

	"hsprofiler/internal/osn"
)

// The crawler-side parser. The original study downloaded Facebook HTML and
// extracted fields with a custom parser; this one does the same against the
// simulator's pages. It scans for class-marked elements rather than building
// a DOM: the markers are a stable contract with the server's page writers
// (html.go), and the scanning tolerates reformatting around them.

// ErrMalformed reports a page that failed structural validation: truncated
// mid-transfer, garbled, or missing the container its endpoint always
// serves. Callers treat it as transient and refetch — a half-delivered
// friend-list page must never be mistaken for a short friend list. The
// sentinel value lives in osn so non-HTTP layers can classify it.
var ErrMalformed = osn.ErrMalformed

// pageTrailer closes every page the server emits; its absence means the
// body was cut off.
const pageTrailer = "</body></html>"

// validatePage checks the structural contract every well-formed page
// satisfies: the endpoint's container element is present and the document
// is complete. It returns an ErrMalformed-wrapped error otherwise.
func validatePage(body, container string) error {
	if !strings.Contains(body, `id="`+container+`"`) {
		return fmt.Errorf("%w: missing %q container", ErrMalformed, container)
	}
	if !strings.HasSuffix(strings.TrimRight(body, " \t\r\n"), pageTrailer) {
		return fmt.Errorf("%w: truncated body", ErrMalformed)
	}
	return nil
}

// classCount counts elements carrying the class marker. Row extractors
// compare it against what they parsed: a mismatch means rows were damaged,
// and the page is reported malformed instead of silently shortened.
func classCount(page, class string) int {
	return strings.Count(page, `class="`+class+`"`)
}

// checkRows verifies that every class-marked row yielded a parsed entry.
func checkRows(page, class string, parsed int) error {
	if n := classCount(page, class); n != parsed {
		return fmt.Errorf("%w: %d %q rows, parsed %d", ErrMalformed, n, class, parsed)
	}
	return nil
}

// classText returns the text content of every element whose class attribute
// equals class, e.g. classText(page, "name") over
// `<span class="name">Ann</span>` yields ["Ann"]. HTML entities are decoded.
func classText(page, class string) []string {
	marker := `class="` + class + `"`
	var out []string
	for i := 0; ; {
		j := strings.Index(page[i:], marker)
		if j < 0 {
			return out
		}
		i += j + len(marker)
		gt := strings.IndexByte(page[i:], '>')
		if gt < 0 {
			return out
		}
		start := i + gt + 1
		lt := strings.IndexByte(page[start:], '<')
		if lt < 0 {
			return out
		}
		out = append(out, html.UnescapeString(strings.TrimSpace(page[start:start+lt])))
		i = start + lt
	}
}

// firstClassText returns the first class-marked element's text, or "".
func firstClassText(page, class string) string {
	if all := classText(page, class); len(all) > 0 {
		return all[0]
	}
	return ""
}

// hasClass reports whether any element carries the class.
func hasClass(page, class string) bool {
	return strings.Contains(page, `class="`+class+`"`)
}

// classDataIDs returns the data-id attribute of every element with the
// class, e.g. `<div class="result" data-id="u12">`.
func classDataIDs(page, class string) []string {
	marker := `class="` + class + `"`
	var out []string
	for i := 0; ; {
		j := strings.Index(page[i:], marker)
		if j < 0 {
			return out
		}
		i += j + len(marker)
		end := strings.IndexByte(page[i:], '>')
		if end < 0 {
			return out
		}
		tagRest := page[i : i+end]
		const attr = `data-id="`
		if k := strings.Index(tagRest, attr); k >= 0 {
			v := tagRest[k+len(attr):]
			if q := strings.IndexByte(v, '"'); q >= 0 {
				out = append(out, html.UnescapeString(v[:q]))
			}
		}
		i += end
	}
}
