package experiments

import (
	"testing"
)

// TestJSONTransportAttackEquivalence proves the attack pipeline runs end to
// end over the /api/v1 JSON wire with results bit-identical to the HTML
// scraping path: a full HS1 run (Tables 2-4) crawled over /api/v1 must
// render byte-for-byte the same tables as one crawled over the HTML pages.
// Both labs serve real HTTP; only the wire format differs, so any
// divergence means the JSON surface leaks, hides, or paginates differently
// than the views the paper scraped.
func TestJSONTransportAttackEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full HS1 run; skipped with -short")
	}
	sc := HS1()

	html := NewLab()
	defer html.Close()

	json := NewLab()
	json.SetTransport(TransportJSON)
	defer json.Close()

	scenarios := []Scenario{sc}
	_, t2HTML, err := Table2(html, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	_, t2JSON, err := Table2(json, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := t2HTML.String(), t2JSON.String(); a != b {
		t.Errorf("Table 2 differs across transports:\nhtml:\n%s\njson:\n%s", a, b)
	}

	_, t3HTML, err := Table3(html, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	_, t3JSON, err := Table3(json, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := t3HTML.String(), t3JSON.String(); a != b {
		t.Errorf("Table 3 differs across transports:\nhtml:\n%s\njson:\n%s", a, b)
	}

	_, t4HTML, err := Table4(html, sc)
	if err != nil {
		t.Fatal(err)
	}
	_, t4JSON, err := Table4(json, sc)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := t4HTML.String(), t4JSON.String(); a != b {
		t.Errorf("Table 4 differs across transports:\nhtml:\n%s\njson:\n%s", a, b)
	}
}
