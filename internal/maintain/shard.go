package maintain

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mindetail/internal/faultinject"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// Sharded apply pipeline.
//
// With Engine.Shards > 1, a large delta's per-group work is hash-
// partitioned by group key across shard workers. The row maps and hash
// indexes stay unsharded and single-owner; parallelism comes from an
// overlay protocol with three properties that together make a sharded
// apply equivalent to the serial one:
//
//  1. Compute phase (parallel): every worker reads the shared table state
//     (the tables are quiescent during the phase, so concurrent reads are
//     safe) and accumulates its partition's group adjustments on private
//     cloned row images in a per-worker overlay. Partitioning by group key
//     means each group's contributions are applied by exactly one worker,
//     in the delta's original row order — so per-group arithmetic
//     (including float accumulation order) is bit-identical to the serial
//     path.
//  2. Deterministic merge: after a barrier, the overlays are merged and
//     sorted by each group's first-touch row ordinal — the order in which
//     the serial path would have first touched the group.
//  3. Serial install: the coordinator alone journals the prior images and
//     writes the final images back (map writes, index edits), in merge
//     order. A compute-phase error discards the overlays with nothing
//     mutated; an install-phase fault rolls back through the normal undo
//     journal. Atomicity and the replica invariant are untouched because
//     every mutation still happens on the coordinator, between the same
//     journal begin/commit brackets as a serial apply.
//
// The one observable difference from the serial path: a group that dies
// and is re-created (or is created and dies) within a single apply nets
// out in the overlay, so index bucket *order* can differ from the serial
// path's remove-then-append churn. Canonical (sorted) snapshots are
// byte-identical either way; only map/bucket iteration order — never
// content — can diverge.

// defaultShardMinRows is the row count below which a sharded engine stays
// serial. Partitioning pays one key encode per row per worker plus
// goroutine startup; below a few hundred rows the serial loop wins.
const defaultShardMinRows = 256

// maxShards caps the shard fan-out (mirrors the recompute pool cap).
const maxShards = 16

// shardable reports whether a stage over n rows should take the sharded
// path. A per-apply strategy overrides the static ShardMinRows threshold:
// StrategySharded engages the pipeline for any delta with enough rows to
// partition, and an explicit serial strategy (scoped/full) pins the stage
// serial even on a sharded engine — that is how a cost model decides shard
// engagement per delta instead of per configuration. The decision affects
// only scheduling, never results: the overlay protocol installs
// bit-identical state at any fan-out.
func (e *Engine) shardable(n int) bool {
	switch e.strategy {
	case StrategySharded:
		return n >= 2
	case StrategyScoped, StrategyFull:
		return false
	}
	if e.Shards <= 1 {
		return false
	}
	min := e.ShardMinRows
	if min <= 0 {
		min = defaultShardMinRows
	}
	return n >= min
}

// shardCount resolves the worker fan-out for a sharded stage. Engines not
// configured with an explicit fan-out (reachable only under
// StrategySharded) default to the machine's parallelism.
func (e *Engine) shardCount() int {
	s := e.Shards
	if s <= 1 {
		s = runtime.GOMAXPROCS(0)
	}
	if s > maxShards {
		return maxShards
	}
	if s < 1 {
		return 1
	}
	return s
}

// shardPending is one group's overlay entry: the working row image (nil =
// absent), whether the group existed before the apply, and the ordinal of
// the first delta row that touched it (the deterministic install order).
type shardPending struct {
	key      string
	row      tuple.Tuple
	existed  bool
	firstOrd int
}

// shardOverlay is one worker's private result: touched groups in
// first-touch order, with a map for repeat-touch lookup.
type shardOverlay struct {
	order []*shardPending
	ents  map[string]*shardPending
	err   error
}

// touch returns the overlay entry for the encoded key, creating it on
// first touch from the (quiescent, shared) base state. get must return a
// mutation-safe private image of the current group (callers wrap the base
// map or AuxStore accordingly); concurrent get calls against quiescent
// state must be safe, which both the map read and the mutex-guarded paged
// store provide.
func (ov *shardOverlay) touch(keyBuf []byte, get func([]byte) (tuple.Tuple, bool, error), ord int) (*shardPending, error) {
	p, ok := ov.ents[string(keyBuf)]
	if !ok {
		key := string(keyBuf)
		img, exists, err := get(keyBuf)
		if err != nil {
			return nil, err
		}
		p = &shardPending{key: key, row: img, existed: exists, firstOrd: ord}
		ov.ents[key] = p
		ov.order = append(ov.order, p)
	}
	return p, nil
}

// mergeOverlays flattens per-worker overlays into one install list sorted
// by first-touch ordinal. The first error (by shard index) aborts the
// merge.
func mergeOverlays(ovs []shardOverlay) ([]*shardPending, error) {
	n := 0
	for s := range ovs {
		if ovs[s].err != nil {
			return nil, ovs[s].err
		}
		n += len(ovs[s].order)
	}
	merged := make([]*shardPending, 0, n)
	for s := range ovs {
		merged = append(merged, ovs[s].order...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].firstOrd < merged[j].firstOrd })
	return merged, nil
}

// auxApplySharded is auxApply with the per-group work fanned across shard
// workers (see the package comment above for the protocol).
func (e *Engine) auxApplySharded(at *AuxTable, rows []signedRow) error {
	plan := e.auxPlanFor(at) // warm the cache before workers share it
	shards := e.shardCount()
	e.observeShard(len(rows), shards)
	// getBase yields a mutation-safe image of the current group: the store
	// is quiescent during the compute phase, an in-place store's live rows
	// are cloned, and a paged store's decoded copies are already private.
	getBase := func(key []byte) (tuple.Tuple, bool, error) {
		row, ok, err := at.store.Get(key)
		if err != nil || !ok {
			return nil, ok, err
		}
		if at.store.InPlace() {
			row = row.Clone()
		}
		return row, true, nil
	}
	ovs := make([]shardOverlay, shards)
	var lookups int64
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ov := &ovs[s]
			ov.ents = make(map[string]*shardPending)
			plainVals := make(tuple.Tuple, len(plan.plainPos))
			sumDeltas := make(map[string]types.Value, len(plan.sumPos))
			var extremaM map[string]types.Value
			if len(plan.minPos) > 0 || len(plan.maxPos) > 0 {
				extremaM = make(map[string]types.Value)
			}
			var keyBuf, lkKey []byte
			var probes int64
			defer func() { atomic.AddInt64(&lookups, probes) }()
			for ord, sr := range rows {
				for i, p := range plan.plainPos {
					plainVals[i] = sr.row[p]
				}
				keyBuf = plainVals.AppendKey(keyBuf[:0])
				if int(fnv32(keyBuf))%shards != s {
					continue
				}
				pass := true
				for i, sj := range at.def.SemiJoins {
					child := e.aux[sj.Right]
					probes++
					var ok bool
					ok, lkKey = child.containsWith(sj.RightAttr, sr.row[plan.sjPos[i]], lkKey[:0])
					if !ok {
						pass = false
						break
					}
				}
				if !pass {
					continue
				}
				if err := at.fi.Fire(faultinject.AuxAdjustStart); err != nil {
					ov.err = err
					return
				}
				clear(sumDeltas)
				for i, a := range at.def.SumAttrs {
					d, err := types.Mul(types.Int(sr.s), sr.row[plan.sumPos[i]])
					if err != nil {
						ov.err = err
						return
					}
					sumDeltas[a] = d
				}
				var extrema map[string]types.Value
				if extremaM != nil {
					clear(extremaM)
					extrema = extremaM
					for i, a := range at.def.MinAttrs {
						extrema[a] = sr.row[plan.minPos[i]]
					}
					for i, a := range at.def.MaxAttrs {
						extrema[a] = sr.row[plan.maxPos[i]]
					}
				}
				p, err := ov.touch(keyBuf, getBase, ord)
				if err != nil {
					ov.err = err
					return
				}
				out, err := at.adjustCore(p.row, plainVals, sumDeltas, extrema, sr.s)
				if err != nil {
					ov.err = err
					return
				}
				p.row = out
			}
		}(s)
	}
	wg.Wait()
	e.stats.auxLookups.Add(lookups)
	installs, err := mergeOverlays(ovs)
	if err != nil {
		return err
	}
	if err := e.fi.Fire(faultinject.ShardAuxInstall); err != nil {
		return err
	}
	for _, p := range installs {
		if !p.existed && p.row == nil {
			continue // created and died within the apply: no net change
		}
		if err := at.jnl.noteAuxKey(at, p.key); err != nil {
			return err
		}
		switch {
		case p.existed && p.row == nil:
			cur, ok, err := at.store.GetString(p.key)
			if err != nil {
				return err
			}
			if ok {
				at.indexRemove(cur, p.key)
			}
			if err := at.store.DeleteString(p.key); err != nil {
				return err
			}
		case !p.existed:
			if err := at.store.PutString(p.key, p.row); err != nil {
				return err
			}
			at.indexAdd(p.row, p.key)
		default:
			// Replacing the tuple object needs no index maintenance: the
			// indexes bucket row keys by plain attributes, which two images
			// of one group agree on by construction.
			if err := at.store.PutString(p.key, p.row); err != nil {
				return err
			}
		}
	}
	return nil
}

// adjustFromDetailSharded is adjustFromDetail with the per-group work
// fanned across shard workers. The compiled plan and the detail rows are
// read-only, so workers share them.
func (e *Engine) adjustFromDetailSharded(d *deltaRows, skip groupSet) error {
	p, mv, rows := d.plan, e.mv, d.rows
	keep := len(mv.storedIdx) > 0
	shards := e.shardCount()
	e.observeShard(len(rows), shards)
	// The materialized view stays map-backed; its getter clones live rows.
	getMV := func(key []byte) (tuple.Tuple, bool, error) {
		row, ok := mv.rows[string(key)]
		if !ok {
			return nil, false, nil
		}
		return row.Clone(), true, nil
	}
	ovs := make([]shardOverlay, shards)
	var adjusts int64
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ov := &ovs[s]
			ov.ents = make(map[string]*shardPending)
			gbVals := make([]types.Value, len(p.gbFlat))
			sumDeltas := make(map[int]types.Value)
			var buf []byte
			var mine int64
			defer func() { atomic.AddInt64(&adjusts, mine) }()
			for ord, row := range rows {
				buf = row.AppendKeyAt(buf[:0], p.gbFlat)
				if int(fnv32(buf))%shards != s {
					continue
				}
				if _, ok := skip[string(buf)]; ok {
					continue
				}
				for gi, pos := range p.gbFlat {
					gbVals[gi] = row[pos]
				}
				w := d.weights[ord]
				if ov.err = mv.sumDeltas(p, row, w, sumDeltas); ov.err != nil {
					return
				}
				if ov.err = e.fi.Fire(faultinject.MVAdjustRow); ov.err != nil {
					return
				}
				pend, err := ov.touch(buf, getMV, ord)
				if err != nil {
					ov.err = err
					return
				}
				if pend.row, ov.err = mv.adjustRowCore(pend.row, gbVals, w, sumDeltas, keep); ov.err != nil {
					return
				}
				mine++
				if keep && w > 0 {
					for _, ci := range mv.extremaIdx {
						mv.raiseRow(pend.row, ci, row[p.args[ci].flat])
					}
				}
			}
			// Under keep, groups still empty after the last row die here.
			for _, pend := range ov.order {
				if pend.row != nil && mv.empty(pend.row) {
					pend.row = nil
				}
			}
		}(s)
	}
	wg.Wait()
	e.stats.groupAdjusts.Add(adjusts)
	installs, err := mergeOverlays(ovs)
	if err != nil {
		return err
	}
	if err := e.fi.Fire(faultinject.ShardMVInstall); err != nil {
		return err
	}
	for _, pend := range installs {
		if !pend.existed && pend.row == nil {
			continue
		}
		e.jnl.noteMVKey(mv, pend.key)
		if pend.existed && pend.row == nil {
			delete(mv.rows, pend.key)
		} else {
			mv.rows[pend.key] = pend.row
		}
	}
	return nil
}

// deltaDetailChunked is deltaDetail with the join fanned across chunk
// workers: the signed rows split into contiguous chunks, each worker walks
// its chunk with private scratch (the auxiliary tables are quiescent and
// read-only during the phase), and the results concatenate in chunk order.
// The walk emits rows in signed-row order, so the concatenation is
// identical — rows, weights, order — to the serial join.
func (e *Engine) deltaDetailChunked(p *detailPlan, signed []signedRow) (*deltaRows, error) {
	shards := e.shardCount()
	if shards > len(signed) {
		shards = len(signed)
	}
	chunk := (len(signed) + shards - 1) / shards
	n := (len(signed) + chunk - 1) / chunk
	outs := make([]*deltaRows, n)
	errs := make([]error, n)
	var probes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var w joinWalker
			outs[i], errs[i] = joinSigned(&w, p, signed[i*chunk:min((i+1)*chunk, len(signed))])
			probes.Add(w.probes)
		}(i)
	}
	wg.Wait()
	e.stats.auxLookups.Add(probes.Load())
	out := outs[0]
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		if i > 0 {
			out.rows = append(out.rows, outs[i].rows...)
			out.weights = append(out.weights, outs[i].weights...)
		}
	}
	return out, nil
}

// fnv32 is the FNV-1a hash of b, used to shard rows by group key.
func fnv32(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// observeShard publishes the sharded-stage metrics (no-op without a sink).
func (e *Engine) observeShard(rows, workers int) {
	if e.met == nil {
		return
	}
	e.met.shardedStages.Inc()
	e.met.shardRows.Observe(int64(rows))
	e.met.shardWorkers.Set(int64(workers))
}
