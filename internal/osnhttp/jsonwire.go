package osnhttp

import (
	"encoding/json"

	"hsprofiler/internal/osn"
)

// jsonWire is the /api/v1 half of Client. Its decoders classify damage as
// the HTML parser does: a body that is not valid JSON, is missing its
// container, or whose "n" count disagrees with the rows delivered is
// ErrMalformed — transient, so the crawler retries it. They decode with
// encoding/json, which ignores unknown fields, as the wire's versioning
// policy requires of clients.
var jsonWire = wire{
	prefix: "/api/v1",
	find:   "/search?",
	city:   "/search?",
	graph:  "/search?graph=1&",
	token:  decodeToken,
	schools: func(b []byte) ([]osn.SchoolRef, error) {
		schools, _, err := decodeList[osn.SchoolRef](b, "schools")
		return schools, err
	},
	results: func(b []byte) ([]osn.SearchResult, bool, error) { return parsePage(b, "results") },
	profile: decodeProfile,
	friends: func(b []byte) ([]osn.FriendRef, bool, error) { return decodeList[osn.FriendRef](b, "friends") },
}

// wireList is a list body, decoded in one pass with its rows straight into
// T: encoding/json matches the rows' "id", "name" and "city" keys to the
// osn types' ID, Name and City fields. Each container is a pointer to a
// slice, so an absent container (nil) is told apart from an empty one —
// the JSON analogue of validatePage's id="container" check.
type wireList[T any] struct {
	N       int  `json:"n"`
	Results *[]T `json:"results"`
	Friends *[]T `json:"friends"`
	Schools *[]T `json:"schools"`
	More    bool `json:"more"`
}

// decodeList decodes a list body whose rows sit under key: that container
// must be present and hold "n" rows. Zero rows decode to nil, as on the
// HTML wire.
func decodeList[T any](body []byte, key string) ([]T, bool, error) {
	var l wireList[T]
	if err := json.Unmarshal(body, &l); err != nil {
		return nil, false, malformed("invalid JSON: %v", err)
	}
	rows := l.Results
	switch key {
	case "friends":
		rows = l.Friends
	case "schools":
		rows = l.Schools
	}
	if rows == nil {
		return nil, false, malformed("missing %q container", key)
	}
	if l.N != len(*rows) {
		return nil, false, malformed("row count mismatch: n=%d, got %d", l.N, len(*rows))
	}
	if len(*rows) == 0 {
		return nil, l.More, nil
	}
	return *rows, l.More, nil
}

// parsePage decodes a page of search results whose rows sit under key.
func parsePage(body []byte, key string) ([]osn.SearchResult, bool, error) {
	return decodeList[osn.SearchResult](body, key)
}

// decodeToken reads the token of a registration answer.
func decodeToken(body []byte) (string, error) {
	var tok struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(body, &tok); err != nil || tok.Token == "" {
		return "", malformed("register response %q", body)
	}
	return tok.Token, nil
}

// wireProfile is the profile object. Its keys are snake_case, which
// encoding/json does not match to osn.PublicProfile's field names.
type wireProfile struct {
	Name              string `json:"name"`
	HasPhoto          bool   `json:"has_photo"`
	Gender            string `json:"gender"`
	Network           string `json:"network"`
	HighSchool        string `json:"high_school"`
	GradYear          int    `json:"grad_year"`
	GradSchool        bool   `json:"grad_school"`
	Relationship      bool   `json:"relationship"`
	InterestedIn      bool   `json:"interested_in"`
	Birthday          string `json:"birthday"`
	Hometown          string `json:"hometown"`
	CurrentCity       string `json:"current_city"`
	FriendListVisible bool   `json:"friend_list_visible"`
	PhotoCount        int    `json:"photo_count"`
	ContactInfo       bool   `json:"contact_info"`
	CanMessage        bool   `json:"can_message"`
	Searchable        bool   `json:"searchable"`
}

// decodeProfile decodes a profile body. The profile's ID comes from the
// request, as parseProfile takes it on the HTML wire: the body's copy is
// redundant on a healthy wire.
func decodeProfile(body []byte, id osn.PublicID) (*osn.PublicProfile, error) {
	var outer struct {
		Profile *wireProfile `json:"profile"`
	}
	if err := json.Unmarshal(body, &outer); err != nil {
		return nil, malformed("invalid JSON: %v", err)
	}
	wp := outer.Profile
	if wp == nil {
		return nil, malformed("missing %q container", "profile")
	}
	return &osn.PublicProfile{
		ID:                id,
		Name:              wp.Name,
		HasPhoto:          wp.HasPhoto,
		Gender:            wp.Gender,
		Network:           wp.Network,
		HighSchool:        wp.HighSchool,
		GradYear:          wp.GradYear,
		GradSchool:        wp.GradSchool,
		Relationship:      wp.Relationship,
		InterestedIn:      wp.InterestedIn,
		Birthday:          parseDate(wp.Birthday),
		Hometown:          wp.Hometown,
		CurrentCity:       wp.CurrentCity,
		FriendListVisible: wp.FriendListVisible,
		PhotoCount:        wp.PhotoCount,
		ContactInfo:       wp.ContactInfo,
		CanMessage:        wp.CanMessage,
		Searchable:        wp.Searchable,
	}, nil
}
