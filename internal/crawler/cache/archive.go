package cache

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"hsprofiler/internal/crawler"
	"hsprofiler/internal/osn"
)

// archiveVersion is the archive format. Version 1 was the retired crawl
// store's, which replayed complete lists as fixed 20-row pages; it is not
// read, since an archive can always be re-crawled.
const archiveVersion = 2

// ErrArchive reports an archive ReadJSON cannot restore: undecodable JSON,
// another version, or an entry ReadJSON rejects.
var ErrArchive = errors.New("cache: bad archive")

// archive is a cache's JSON form: every profile, and every friend list
// page by page as the platform served it, hidden verdicts and walks
// interrupted mid-list included.
type archive struct {
	Version  int                                 `json:"version"`
	Profiles map[osn.PublicID]*osn.PublicProfile `json:"profiles"`
	Friends  map[osn.PublicID]*friendEntry       `json:"friends"`
}

// Contents counts what a cache holds, as its archive records it.
type Contents struct {
	Profiles     int
	FriendLists  int // complete lists
	HiddenLists  int // hidden verdicts
	PartialLists int // walks interrupted mid-list
}

// Contents reports what the cache holds.
func (c *Cache) Contents() Contents {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := Contents{Profiles: len(c.profiles)}
	for _, e := range c.friends {
		switch {
		case e.Hidden:
			n.HiddenLists++
		case e.Complete:
			n.FriendLists++
		default:
			n.PartialLists++
		}
	}
	return n
}

// WriteJSON writes the cache's archive. ReadJSON restores it.
func (c *Cache) WriteJSON(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return json.NewEncoder(w).Encode(archive{Version: archiveVersion, Profiles: c.profiles, Friends: c.friends})
}

// ReadJSON restores a cache over inner from an archive WriteJSON wrote; the
// restored cache serves every archived fetch, with the page boundaries the
// platform served, and fetches the rest from inner. The archive is
// untrusted input, and these fail with ErrArchive: undecodable JSON, any
// other version, a null profile or one keyed by another id, and a friend
// list that is null, hidden with pages or marked complete, or not hidden
// and without pages.
func ReadJSON(r io.Reader, inner crawler.Client) (*Cache, error) {
	var a archive
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrArchive, err)
	}
	if a.Version != archiveVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrArchive, a.Version, archiveVersion)
	}
	c := New(inner)
	for id, pp := range a.Profiles {
		if pp == nil || pp.ID != id {
			return nil, fmt.Errorf("%w: profile %q is null or has another id", ErrArchive, id)
		}
		c.profiles[id] = pp
	}
	for id, e := range a.Friends {
		switch {
		case e == nil:
			return nil, fmt.Errorf("%w: friend list %q is null", ErrArchive, id)
		case e.Hidden && (len(e.Pages) > 0 || e.Complete):
			return nil, fmt.Errorf("%w: friend list %q is hidden but has pages or is complete", ErrArchive, id)
		case !e.Hidden && len(e.Pages) == 0:
			return nil, fmt.Errorf("%w: friend list %q has no pages", ErrArchive, id)
		}
		c.friends[id] = e
	}
	return c, nil
}
