package osnhttp

import (
	"fmt"
	"html"
	"strconv"
	"strings"

	"hsprofiler/internal/osn"
	"hsprofiler/internal/sim"
)

// The reference HTML parser: the class-by-class scans the HTML wire used
// before its one-pass decoders (parse.go), kept verbatim but for dates,
// which the references read with sscanfDate, parseDate before its
// all-digit fast path. Each helper scans the whole page for one class.
// FuzzDecodersMatchReference requires the one-pass decoders to return
// exactly what these return.

// sscanfDate is parseDate as it was: fmt.Sscanf on every input.
func sscanfDate(s string) *sim.Date {
	var d sim.Date
	if _, err := fmt.Sscanf(s, "%d-%d-%d", &d.Year, &d.Month, &d.Day); err != nil {
		return nil
	}
	return &d
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
		return malformed("%d %q rows, parsed %d", n, class, parsed)
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
	return nth(classText(page, class), 0)
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

// parseSchools extracts the portal directory, validating the page and
// every row's id.
func parseSchools(body string) ([]osn.SchoolRef, error) {
	if err := validatePage(body, "schools"); err != nil {
		return nil, err
	}
	ids := classDataIDs(body, "school")
	if err := checkRows(body, "school", len(ids)); err != nil {
		return nil, err
	}
	names := classText(body, "schoolname")
	cities := classText(body, "schoolcity")
	var out []osn.SchoolRef
	for i, s := range ids {
		id, err := strconv.Atoi(s)
		if err != nil {
			return nil, malformed("bad school id %q", s)
		}
		out = append(out, osn.SchoolRef{ID: id, Name: nth(names, i), City: nth(cities, i)})
	}
	return out, nil
}

// parseRows extracts one page of class-marked rows from the container,
// validating the page and that no damaged row was dropped.
func parseRows[T ~listRow](body, container, class string) ([]T, bool, error) {
	if err := validatePage(body, container); err != nil {
		return nil, false, err
	}
	ids := classDataIDs(body, class)
	if err := checkRows(body, class, len(ids)); err != nil {
		return nil, false, err
	}
	names := classText(body, "name")
	var out []T
	for i, id := range ids {
		out = append(out, T(listRow{ID: osn.PublicID(id), Name: nth(names, i)}))
	}
	return out, hasClass(body, "next"), nil
}

// parseProfile extracts a profile from a page, first validating that the
// page arrived intact (ErrMalformed otherwise).
func parseProfile(body string, id osn.PublicID) (*osn.PublicProfile, error) {
	if err := validatePage(body, "profile"); err != nil {
		return nil, err
	}
	pp := &osn.PublicProfile{
		ID:                id,
		Name:              firstClassText(body, "name"),
		HasPhoto:          hasClass(body, "photo"),
		Gender:            firstClassText(body, "gender"),
		Network:           firstClassText(body, "network"),
		HighSchool:        firstClassText(body, "school"),
		GradSchool:        hasClass(body, "gradschool"),
		Relationship:      hasClass(body, "relationship"),
		InterestedIn:      hasClass(body, "interested"),
		Birthday:          sscanfDate(firstClassText(body, "birthday")),
		Hometown:          firstClassText(body, "hometown"),
		CurrentCity:       firstClassText(body, "currentcity"),
		FriendListVisible: hasClass(body, "friendlink"),
		ContactInfo:       hasClass(body, "contact"),
		CanMessage:        hasClass(body, "message"),
		Searchable:        hasClass(body, "searchable"),
	}
	if gy := firstClassText(body, "gradyear"); gy != "" {
		if n, err := strconv.Atoi(strings.TrimPrefix(gy, "Class of ")); err == nil {
			pp.GradYear = n
		}
	}
	if pc := firstClassText(body, "photocount"); pc != "" {
		if n, err := strconv.Atoi(pc); err == nil {
			pp.PhotoCount = n
		}
	}
	return pp, nil
}
