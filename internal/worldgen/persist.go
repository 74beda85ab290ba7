package worldgen

import (
	"encoding/json"
	"fmt"
	"io"

	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
)

// snapshot is the serialized form of a world: people and schools as-is,
// the friendship graph flattened to an edge list.
type snapshot struct {
	Version int                     `json:"version"`
	Seed    uint64                  `json:"seed"`
	Now     sim.Date                `json:"now"`
	Schools []*School               `json:"schools"`
	People  []*Person               `json:"people"`
	Edges   [][2]socialgraph.UserID `json:"edges"`
}

const snapshotVersion = 1

// WriteJSON serializes the world. The format is stable within a snapshot
// version and round-trips through ReadJSON.
func (w *World) WriteJSON(out io.Writer) error {
	snap := snapshot{
		Version: snapshotVersion,
		Seed:    w.Seed,
		Now:     w.Now,
		Schools: w.Schools,
		People:  w.People,
	}
	// Walk the CSR rows in ascending (u, v) order.
	frozen := w.Frozen()
	frozen.ForEachUser(func(u socialgraph.UserID) {
		frozen.ForEachFriend(u, func(v socialgraph.UserID) {
			if u < v { // each undirected edge once
				snap.Edges = append(snap.Edges, [2]socialgraph.UserID{u, v})
			}
		})
	})
	enc := json.NewEncoder(out)
	return enc.Encode(snap)
}

// ReadJSON deserializes a world written by WriteJSON, builds its graph
// with the generators' FrozenBuilder path and re-validates its invariants,
// which include every record check the binary reader makes, so a world
// ReadJSON accepts survives WriteBinary. The input is untrusted: a null
// person, an edge endpoint outside the people or a self-loop is rejected
// before anything is sized from it, and every failure wraps ErrSnapshot.
func ReadJSON(in io.Reader) (*World, error) {
	var snap snapshot
	if err := json.NewDecoder(in).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%w: decoding JSON: %w", ErrSnapshot, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrSnapshot, snap.Version, snapshotVersion)
	}
	for i, p := range snap.People {
		if p == nil {
			return nil, fmt.Errorf("%w: person %d is null", ErrSnapshot, i)
		}
	}
	edges := make([]socialgraph.Edge, len(snap.Edges))
	for i, e := range snap.Edges {
		if e[0] == e[1] {
			return nil, fmt.Errorf("%w: self-friendship for user %d", ErrSnapshot, e[0])
		}
		edges[i] = socialgraph.Edge{A: e[0], B: e[1]}
	}
	w := &World{
		Seed:    snap.Seed,
		Now:     snap.Now,
		Schools: snap.Schools,
		People:  snap.People,
	}
	if err := w.buildGraph(1, socialgraph.NormalizeEdges(edges)); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSnapshot, err)
	}
	return w, nil
}
