package osnhttp

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// The parser consumes pages from a server it doesn't control (in the
// original study, Facebook's); it must never panic, and damaged pages must
// surface as typed ErrMalformed rather than silently shrinking results.

func TestParserOnMalformedPages(t *testing.T) {
	cases := []string{
		"",
		"<",
		`class="name"`,                    // marker with no tag close
		`<span class="name">unterminated`, // no closing <
		`<span class="name"`,              // tag never closes
		`<div class="result" data-id=>x</div>`,
		`<div class="result" data-id="u1>x</div>`, // unterminated attr
		`<div data-id="u1" class="result">late attr</div>`,
		strings.Repeat(`<span class="name">x</span>`, 1000),
		`<span class="gradyear">Class of notayear</span>`,
		`<span class="birthday">99-99</span>`,
		`<span class="photocount">NaN</span>`,
	}
	for i, page := range cases {
		// None of these may panic.
		_ = classText(page, "name")
		_ = classDataIDs(page, "result")
		_ = firstClassText(page, "gradyear")
		// None carries a complete profile container, so all must be
		// reported malformed rather than parsed into an empty profile.
		if _, err := pageProfile(page, "u"); !errors.Is(err, ErrMalformed) {
			t.Fatalf("case %d: want ErrMalformed, got %v", i, err)
		}
	}
	// data-id after class is not picked up only when the tag closed first;
	// same-tag late attributes still parse.
	ids := classDataIDs(`<div class="result" x="y" data-id="u9">ok</div>`, "result")
	if len(ids) != 1 || ids[0] != "u9" {
		t.Fatalf("late attr ids: %v", ids)
	}
}

func TestValidatePage(t *testing.T) {
	whole := `<html><body><div id="profile" data-id="u1"></div></body></html>`
	if err := validatePage(whole, "profile"); err != nil {
		t.Fatalf("intact page rejected: %v", err)
	}
	if err := validatePage(whole+"\n  ", "profile"); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	truncated := whole[:len(whole)-10]
	if err := validatePage(truncated, "profile"); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated page accepted: %v", err)
	}
	if err := validatePage(whole, "friends"); !errors.Is(err, ErrMalformed) {
		t.Fatalf("wrong container accepted: %v", err)
	}
}

func TestCheckRowsDetectsDroppedRows(t *testing.T) {
	// Two marked rows, one with its data-id damaged: the old parser
	// silently returned a single row; now the page is malformed.
	page := `<html><body><ul id="friends">
<li class="friend" data-id="u1"><span class="name">A</span></li>
<li class="friend" data-id=><span class="name">B</span></li>
</ul></body></html>`
	ids := classDataIDs(page, "friend")
	if err := checkRows(page, "friend", len(ids)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("dropped row not reported: %v", err)
	}
	if _, _, err := htmlWire.friends([]byte(page)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("dropped row not reported by the decoder: %v", err)
	}
}

func TestParserNeverPanicsOnRandomInput(t *testing.T) {
	prop := func(page string, class string) bool {
		if len(class) > 20 {
			class = class[:20]
		}
		_ = classText(page, class)
		_ = classDataIDs(page, class)
		_ = hasClass(page, class)
		_, _ = pageProfile(page, "u1")
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseProfileIgnoresBadNumbers(t *testing.T) {
	body := `<html><body><div id="profile" data-id="u"><span class="gradyear">Class of banana</span>
<span class="birthday">not-a-date</span>
<span class="photocount">many</span></div></body></html>`
	pp, err := pageProfile(body, "u")
	if err != nil {
		t.Fatal(err)
	}
	if pp.GradYear != 0 || pp.Birthday != nil || pp.PhotoCount != 0 {
		t.Fatalf("bad numbers accepted: %+v", pp)
	}
}
