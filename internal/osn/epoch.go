package osn

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hsprofiler/internal/obs"
	"hsprofiler/internal/obs/evlog"
	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
	"hsprofiler/internal/worldgen"
)

// epoch is one generation of the immutable serving state: the frozen CSR
// graph, the pre-resolved policy views, the search indexes with their
// interned scope keys, and the temporal context (collection date, current
// classes) every request needs. An epoch is never written after its build;
// the platform publishes the current one through an atomic pointer and
// requests pin it for their duration, so a swap never blocks serving and a
// paginated walk that stays within one epoch id can never see a torn view.
type epoch struct {
	seq    uint64
	now    sim.Date
	policy *Policy
	read   *readPlane

	// searchIndex[schoolID] lists discoverable account holders whose
	// profile names the school, as of this epoch's build.
	searchIndex [][]socialgraph.UserID
	// viewScope[schoolID] is the stable scope string hashed into the
	// per-account view permutation ("school:N"). It is identical across
	// epochs on purpose: an account's permutation is a property of
	// (account, scope), so its view stays recognizable over time and the
	// epoch-0 views are bit-identical to the pre-epoch platform's.
	viewScope []string
	// cacheKey[schoolID] is the epoch-qualified account-cache key
	// ("e3/school:N"): per-account cached views and rendered pages are
	// keyed by it, so a cursor computed in one epoch can never serve a
	// page from another.
	cacheKey    []string
	cachePrefix string
	cityIndex   map[string][]socialgraph.UserID

	// schools and currentYear are this epoch's copy of the school table:
	// GradYears shift as the world evolves, and serving must read the
	// values the epoch was built from, not the live world's.
	schools     []SchoolRef
	currentYear []int

	// pins counts in-flight requests served from this epoch. retiring is
	// set when a newer epoch replaces this one; the last unpin (or the
	// swap itself, if idle) releases it. released guards the once-only
	// retirement accounting.
	pins     atomic.Int64
	retiring atomic.Bool
	released atomic.Bool
}

// buildEpoch runs the freeze step against the platform's world and the
// given policy snapshot: public IDs are fixed for the platform's lifetime,
// everything else — search indexes, pre-resolved profiles, friend lists,
// policy gates, school table — is resolved fresh. Runs off the read path;
// serving continues on the previous epoch meanwhile. pub is the
// platform's public IDs, or nil while they are still being drawn: the
// profiles then carry no ID, and the caller sets them.
func (p *Platform) buildEpoch(seq uint64, pol *Policy, pub []PublicID) *epoch {
	w := p.world
	e := newEpoch(seq, w, pol)
	e.searchIndex = make([][]socialgraph.UserID, len(w.Schools))
	e.cityIndex = make(map[string][]socialgraph.UserID)
	keys := cityKeys{}
	// Person i sits at index i (World.checkPeople), so every index is
	// appended in ascending ID order and needs no sort.
	for _, person := range w.People {
		if !person.HasAccount || !person.Privacy.PublicSearch {
			continue
		}
		if person.SchoolID >= 0 && person.ListsSchool {
			e.searchIndex[person.SchoolID] = append(e.searchIndex[person.SchoolID], person.ID)
		}
		if person.ListsCity && person.CurrentCity != "" {
			key := keys.of(person.CurrentCity)
			e.cityIndex[key] = append(e.cityIndex[key], person.ID)
		}
	}
	e.read = buildReadPlane(w, pol, pub)
	return e
}

// newEpoch starts an epoch's build with its school table, scope strings
// and cache keys. They are O(schools), tiny next to the per-user state,
// and the epoch-qualified cache keys must change every epoch anyway, so
// both the full and the incremental build make them afresh.
func newEpoch(seq uint64, w *worldgen.World, pol *Policy) *epoch {
	e := &epoch{
		seq:         seq,
		now:         w.Now,
		policy:      pol,
		cachePrefix: "e" + strconv.FormatUint(seq, 10) + "/",
		schools:     make([]SchoolRef, len(w.Schools)),
		currentYear: make([]int, len(w.Schools)),
		viewScope:   make([]string, len(w.Schools)),
		cacheKey:    make([]string, len(w.Schools)),
	}
	for i, s := range w.Schools {
		e.schools[i] = SchoolRef{ID: s.ID, Name: s.Name, City: s.City}
		e.currentYear[i] = s.GradYears[0]
		e.viewScope[i] = "school:" + strconv.Itoa(i)
		e.cacheKey[i] = e.cachePrefix + e.viewScope[i]
	}
	return e
}

// cityKeys maps a city name to its city-index key, lower-casing each
// distinct name once per build.
type cityKeys map[string]string

func (k cityKeys) of(city string) string {
	key, ok := k[city]
	if !ok {
		key = strings.ToLower(city)
		k[city] = key
	}
	return key
}

// pin returns the current epoch with its pin count raised. The re-check
// loop closes the load/pin race with a concurrent swap: if the pointer
// moved in between, the pin lands on a possibly-draining epoch and is
// moved to the new one. Atomic ops only — the read path stays
// allocation-free.
func (p *Platform) pin() *epoch {
	for {
		e := p.cur.Load()
		e.pins.Add(1)
		if p.cur.Load() == e {
			return e
		}
		p.unpin(e)
	}
}

// unpin drops a request's pin; the last pin out of a retiring epoch
// releases it.
func (p *Platform) unpin(e *epoch) {
	if e.pins.Add(-1) == 0 && e.retiring.Load() {
		p.release(e)
	}
}

// release retires an epoch exactly once: the drain-before-retire
// accounting (gauge, counter, event), and the release of the epoch's hold
// on its CSR snapshot, whose arrays a later evolution step may then reuse.
// The rest of the epoch's memory is reclaimed by GC once the last reader
// drops its pointer; what release guarantees is that the platform
// observed the drain.
func (p *Platform) release(e *epoch) {
	if !e.released.CompareAndSwap(false, true) {
		return
	}
	e.read.frozen.Release()
	p.epochsLiveG.Dec()
	p.epochRetired.Inc()
	p.lg.Info(context.Background(), "osn.epoch", "epoch retired",
		evlog.I64("epoch", int64(e.seq)))
}

// EpochSeq reports the current epoch id — the value the wire layer stamps
// into every /api/v1 response and /healthz.
func (p *Platform) EpochSeq() uint64 { return p.cur.Load().seq }

// SetPolicy replaces the policy used by the NEXT epoch build — the
// scheduled-flip hook (e.g. opening minor profiles to search in 2013).
// The current epoch keeps serving its own policy snapshot until
// AdvanceEpoch swaps. Call from the evolution driver only; it must not
// race AdvanceEpoch.
func (p *Platform) SetPolicy(pol *Policy) { p.policy = pol }

// EpochStats summarizes one epoch advance. Build is the off-read-path view
// construction; Swap is only the atomic publish plus retire accounting —
// the part concurrent readers can actually observe. The phase durations
// and dirty counts are populated on incremental advances.
type EpochStats struct {
	Seq   uint64
	Year  int
	Build time.Duration
	Swap  time.Duration
	Users int
	Edges int
	// Incremental reports whether the build patched the previous epoch
	// (dirty sets) instead of rebuilding O(world).
	Incremental bool
	// DirtyProfiles counts profiles re-rendered; DirtyRows counts CSR
	// adjacency rows the evolve step's patch re-emitted (friend lists are
	// served straight from those rows, so this is also the number of
	// friend lists that changed).
	DirtyProfiles int
	DirtyRows     int
	// Build phase breakdown: profile/flag patching and search/city index
	// patching. Friend lists have no build phase — FriendPage renders
	// from the patched CSR at serve time.
	Profiles time.Duration
	Indexes  time.Duration
}

// AdvanceEpoch rebuilds the serving state O(world) from the platform's
// (typically just-evolved) world and current policy, atomically swaps it
// in, and marks the previous epoch for drain-before-retire. Serving never
// blocks: in-flight requests finish on the epoch they pinned; new requests
// land on the new one. The caller drives mutation strictly before calling
// this (worldgen.Evolve, SetPolicy); AdvanceEpoch itself must not be
// called concurrently with another AdvanceEpoch.
func (p *Platform) AdvanceEpoch(ctx context.Context) EpochStats {
	return p.AdvanceEpochDelta(ctx, nil)
}

// AdvanceEpochDelta is AdvanceEpoch fed with the evolution step's Delta:
// when the policy is unchanged and the delta's bookkeeping matches the
// world, the next epoch is built incrementally — views, indexes and friend
// lists re-resolved only for the delta's dirty sets, everything else
// structurally shared with the previous epoch — making advance cost
// proportional to the delta, not the world. A nil delta, a policy flip, or
// inconsistent bookkeeping falls back to the full O(world) build. The
// result is indistinguishable from a full build either way.
func (p *Platform) AdvanceEpochDelta(ctx context.Context, d *worldgen.Delta) EpochStats {
	_, span := obs.StartSpan(ctx, "osn.epoch")
	defer span.End()
	start := time.Now()
	old := p.cur.Load()
	pol := p.policy
	var next *epoch
	var bd buildBreakdown
	if d != nil && pol == old.policy && deltaConsistent(old, p.world, d) {
		next, bd = p.buildEpochDelta(old.seq+1, pol, old, d)
	}
	if next == nil {
		next = p.buildEpoch(old.seq+1, pol, p.pub)
		bd = buildBreakdown{}
	}
	build := time.Since(start)
	swapStart := time.Now()
	p.cur.Store(next)
	old.retiring.Store(true)
	if old.pins.Load() == 0 {
		p.release(old)
	}
	swap := time.Since(swapStart)
	p.epochsLiveG.Inc()
	p.epochSeqG.Set(float64(next.seq))
	p.epochBuildG.Set(build.Seconds())
	p.epochAdvances.Inc()
	p.frozenUsersG.Set(float64(next.read.frozen.NumUsers()))
	p.frozenEdgesG.Set(float64(next.read.frozen.NumEdges()))
	st := EpochStats{
		Seq:           next.seq,
		Year:          next.now.Year,
		Build:         build,
		Swap:          swap,
		Users:         next.read.frozen.NumUsers(),
		Edges:         next.read.frozen.NumEdges(),
		Incremental:   bd.incremental,
		DirtyProfiles: bd.dirtyProfiles,
		DirtyRows:     bd.dirtyRows,
		Profiles:      bd.profiles,
		Indexes:       bd.indexes,
	}
	p.lg.Info(ctx, "osn.epoch", "epoch advanced",
		evlog.I64("epoch", int64(st.Seq)),
		evlog.Int("year", st.Year),
		evlog.Dur("build", st.Build),
		evlog.Dur("swap", st.Swap),
		evlog.Int("users", st.Users),
		evlog.Int("edges", st.Edges),
		evlog.Bool("incremental", st.Incremental),
		evlog.Int("dirty_profiles", st.DirtyProfiles),
		evlog.Int("dirty_rows", st.DirtyRows),
		evlog.Dur("profiles", st.Profiles),
		evlog.Dur("indexes", st.Indexes))
	return st
}
