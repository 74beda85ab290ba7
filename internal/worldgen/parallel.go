package worldgen

import (
	"fmt"
	"sync"

	"hsprofiler/internal/sim"
	"hsprofiler/internal/socialgraph"
)

// GenerateParallel builds a world with a sharded, streaming pipeline. The
// population is partitioned into shards whose ID ranges are a pure function
// of the config, each shard draws from its own splittable PRNG stream, and
// the shards' edge lists are assembled into the CSR snapshot by the same
// FrozenBuilder path Generate uses. Output is bit-identical at every worker
// count, including workers == 1, because nothing a shard computes depends
// on scheduling:
//
//   - shard boundaries come from planLayout(cfg), closed-form in the config;
//   - each shard's randomness comes from root.StreamN(label, index), a pure
//     function of (seed, label, index);
//   - shards write disjoint ID ranges of the people slice;
//   - edge shards are merged into the FrozenBuilder in fixed shard order, and
//     the per-row sort makes row content order-independent anyway.
//
// The worlds GenerateParallel produces are a different deterministic family
// from sequential Generate's (disjoint stream labels), with the same
// distributions; the golden-fingerprint tests pin both families.
//
// workers <= 0 means one worker.
func GenerateParallel(cfg Config, seed uint64, workers int) (*World, error) {
	if len(cfg.Schools) == 0 {
		return nil, fmt.Errorf("worldgen: config has no schools")
	}
	if workers < 1 {
		workers = 1
	}
	lay := planLayout(cfg)
	sw := &shardWorld{
		cfg:  cfg,
		lay:  lay,
		root: sim.New(seed),
		w: &World{
			Seed:   seed,
			Now:    cfg.Now,
			People: make([]*Person, lay.total),
		},
		idx: make([]schoolIndex, len(cfg.Schools)),
	}
	sw.prologue()

	// Phase 1: people shards — one per school plus fixed-size outside-pool
	// chunks. Disjoint ID ranges, independent streams.
	nSchools := len(cfg.Schools)
	nOutside := lay.outsideShards()
	runShards(workers, nSchools+nOutside, func(i int) {
		if i < nSchools {
			sw.genSchoolPeople(i)
		} else {
			sw.genOutsidePeople(i - nSchools)
		}
	})

	// Phase 2 (sequential): parents adopt children into households — the
	// claimed-children map is inherently order-dependent, so it stays a
	// single stream. Then assemble the outside teen/adult pools in ID order.
	sw.genParentsPeople()
	sw.buildPools()

	// Phase 3: edge shards. Each school's shard owns every edge incident to
	// its people (plus their outside-pool ties); the parent shard owns
	// parent-child and parent-parent edges. Ownership is a partition, so
	// shard outputs are pairwise disjoint after per-shard normalization.
	edgeShards := make([][]socialgraph.Edge, nSchools+1)
	runShards(workers, nSchools+1, func(i int) {
		if i < nSchools {
			edgeShards[i] = sw.genSchoolEdges(i)
		} else {
			edgeShards[i] = sw.genParentEdges()
		}
	})

	// Phase 4: merge into the CSR snapshot in fixed shard order.
	if err := sw.w.buildGraph(workers, edgeShards...); err != nil {
		return nil, err
	}
	return sw.w, nil
}

// runShards executes fn(0..n-1) across at most workers goroutines. With one
// worker it is a plain loop — the sequential reference the determinism tests
// compare parallel runs against.
func runShards(workers, n int, fn func(i int)) {
	if workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
