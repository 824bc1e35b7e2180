package maintain

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DeltaMemo shares per-delta maintenance work across the engines of one
// warehouse (or one shared class) during a single propagation. The paper's
// Section 4 observes that many views maintained over the same sources
// should share work; Mistry et al. (cs/0003006) show that once per-view
// maintenance is incremental, the dominant remaining cost is every view
// independently re-deriving the *same* intermediate results. The memo
// eliminates that: delta expansion, per-table local filtering, the
// delta-detail join, and the scoped group recomputation are each computed
// once per distinct plan signature and handed to every engine whose
// signature matches.
//
// A memo is valid for exactly ONE delta: the warehouse scheduler creates a
// fresh memo per propagate call and drops it afterwards. Keys therefore
// never encode the delta's contents — only the plan signature of the work.
//
// Sharing is sound because engines with equal signatures inside one
// propagation domain are replicas: propagation is all-or-nothing across
// views (PR 2), so two engines whose plans agree have bit-identical
// auxiliary state, and produce bit-identical intermediate results for the
// same delta. Memoized values are treated as immutable by every consumer;
// results that engines would later mutate in place (recomputed group rows)
// are cloned before installation.
//
// Concurrency: the first engine to request a key computes it; concurrent
// requesters block on the entry's done channel. The computing goroutine is
// always active (it never waits on another memo entry except the strictly
// lower expansion level), so there is no cycle and no deadlock.
type DeltaMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry

	hits   atomic.Int64
	misses atomic.Int64
	waits  atomic.Int64 // hits that blocked on an in-flight computation
}

type memoEntry struct {
	done chan struct{}
	val  any
	err  error
}

// NewDeltaMemo returns an empty memo for one delta propagation.
func NewDeltaMemo() *DeltaMemo {
	return &DeltaMemo{entries: make(map[string]*memoEntry)}
}

// Stats reports how many lookups were served from the memo versus computed,
// and how many of the served lookups had to block on an in-flight
// computation (waits <= hits; a high wait share means consumers arrive
// before producers finish, i.e. the sharing is on the critical path).
func (m *DeltaMemo) Stats() (hits, misses, waits int64) {
	return m.hits.Load(), m.misses.Load(), m.waits.Load()
}

// do returns the memoized value for key, invoking compute at most once per
// memo lifetime. Errors are memoized too: every engine that shares a failed
// computation observes the same error and rolls back.
func (m *DeltaMemo) do(key string, compute func() (any, error)) (any, error) {
	m.mu.Lock()
	if ent, ok := m.entries[key]; ok {
		m.mu.Unlock()
		select {
		case <-ent.done:
		default:
			m.waits.Add(1)
			<-ent.done
		}
		m.hits.Add(1)
		return ent.val, ent.err
	}
	ent := &memoEntry{done: make(chan struct{})}
	m.entries[key] = ent
	m.mu.Unlock()
	m.misses.Add(1)
	ent.val, ent.err = compute()
	close(ent.done)
	return ent.val, ent.err
}

// buildMemoKey renders the engine's join-level memo key: every maintenance
// decision that shapes the delta-detail join and the recomputation — the
// plan fingerprint (computed at derive time in internal/core), the engine
// options, the shared-mode residual conditions, and the propagation scope
// (standalone engines of one warehouse share one scope; each shared class
// is its own scope, since its auxiliary tables are class-specific).
func (e *Engine) buildMemoKey() string {
	var b strings.Builder
	b.WriteString(e.memoScope)
	b.WriteByte('|')
	b.WriteString(e.plan.Fingerprint())
	fmt.Fprintf(&b, "|ns=%t|ffr=%t|skip=%t", e.UseNeedSets, e.ForceFullRecompute, e.skipAux)
	if len(e.residual) > 0 {
		tabs := make([]string, 0, len(e.residual))
		for t := range e.residual {
			tabs = append(tabs, t)
		}
		sort.Strings(tabs)
		for _, t := range tabs {
			for _, c := range e.residual[t] {
				fmt.Fprintf(&b, "|res:%s:%s", t, c.String())
			}
		}
	}
	return b.String()
}

// recomputeMemoKey extends the join key with the canonical form of the
// affected-group set: sorted encoded group keys, length-prefixed so
// concatenation is unambiguous.
func recomputeMemoKey(joinKey string, keys groupSet) string {
	ks := make([]string, 0, len(keys))
	for k := range keys {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b strings.Builder
	b.WriteString("recomp|")
	b.WriteString(joinKey)
	for _, k := range ks {
		fmt.Fprintf(&b, "|%d:", len(k))
		b.WriteString(k)
	}
	return b.String()
}

// expandFiltered produces the signed, locally-filtered delta rows for
// staging. Without a memo this is the classic expand + in-place filter.
// With one, the expansion is shared across every plan whose TableSig.Expand
// for the delta's table matches (same observable attributes imply identical
// no-op-update elimination), and the filtered rows across every plan whose
// TableSig.Filter matches (same local conditions on top). Memoized slices
// are shared between engines, so the filter copies instead of compacting in
// place, and downstream consumers treat the rows as read-only.
func (e *Engine) expandFiltered(d Delta) ([]signedRow, error) {
	if e.memo == nil {
		st := e.stageStart()
		signed, err := e.expand(d)
		e.stageEnd(StageExpand, st)
		if err != nil {
			return nil, err
		}
		st = e.stageStart()
		out, err := e.localFilter(d.Table, signed)
		e.stageEnd(StageFilter, st)
		return out, err
	}
	sig := e.plan.TableSig(d.Table)
	v, err := e.memo.do("filter|"+sig.Filter, func() (any, error) {
		// Stage timings run inside the compute closures, so shared work is
		// recorded exactly once, by the engine that performed it (matching
		// the Stats attribution policy).
		ev, err := e.memo.do("expand|"+sig.Expand, func() (any, error) {
			st := e.stageStart()
			defer func() { e.stageEnd(StageExpand, st) }()
			return e.expand(d)
		})
		if err != nil {
			return nil, err
		}
		st := e.stageStart()
		defer func() { e.stageEnd(StageFilter, st) }()
		expanded := ev.([]signedRow)
		pred, err := e.localPred(d.Table)
		if err != nil {
			return nil, err
		}
		if pred == nil {
			return expanded, nil
		}
		out := make([]signedRow, 0, len(expanded))
		for _, sr := range expanded {
			ok, err := pred(sr.row)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, sr)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]signedRow), nil
}

// deltaDetailShared is deltaDetail with cross-engine sharing: engines whose
// join-level memo keys match consume one join result. The computing engine
// reads its own auxiliary tables; consumers' tables are bit-identical
// replicas (see DeltaMemo), so the result is valid for all of them.
func (e *Engine) deltaDetailShared(t string, signed []signedRow) (*deltaRows, error) {
	if e.memo == nil {
		st := e.stageStart()
		d, err := e.deltaDetail(t, signed)
		e.stageEnd(StageDeltaJoin, st)
		return d, err
	}
	v, err := e.memo.do("detail|"+t+"|"+e.memoKey, func() (any, error) {
		st := e.stageStart()
		defer func() { e.stageEnd(StageDeltaJoin, st) }()
		return e.deltaDetail(t, signed)
	})
	if err != nil {
		return nil, err
	}
	return v.(*deltaRows), nil
}

// recomputedGroups derives the replacement rows for the affected groups by
// re-aggregating their detail (see reaggregate). The scoped-vs-full choice
// in there is a pure function of the plan and ForceFullRecompute, which is
// part of the join key, so with a memo the pipeline runs once per (join
// key, affected-group set) and replicas never mix results from different
// paths. The second result tells the caller the rows are
// shared and must be cloned before installation (installed rows are mutated
// in place by later adjustments and by rollback, and the memo's copy must
// stay pristine for other consumers).
func (e *Engine) recomputedGroups(keys groupSet) ([]groupRow, bool, error) {
	if e.memo == nil {
		st := e.stageStart()
		groups, err := e.reaggregate(keys)
		e.stageEnd(StageRecompute, st)
		return groups, false, err
	}
	v, err := e.memo.do(recomputeMemoKey(e.memoKey, keys), func() (any, error) {
		st := e.stageStart()
		defer func() { e.stageEnd(StageRecompute, st) }()
		return e.reaggregate(keys)
	})
	if err != nil {
		return nil, false, err
	}
	return v.([]groupRow), true, nil
}
