// Package socialgraph implements the undirected friendship graph underlying
// the simulated OSN.
//
// The profiling attack in the paper is, at heart, statistical inference over
// this graph: reverse lookup asks "which core users list candidate u as a
// friend", and the x(u) score normalizes those counts per graduation cohort.
// The package therefore optimizes for fast membership tests and fast
// iteration over a user's friends, and maintains the invariants the attack
// relies on (symmetry, no self-loops).
package socialgraph

// UserID identifies a user in a world. IDs are dense small integers assigned
// by the world generator; the OSN layer maps them to opaque public IDs.
type UserID int32
