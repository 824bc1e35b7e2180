package maintain

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// groupRow is one aggregated group: its encoded key and component row.
type groupRow struct {
	key string
	row tuple.Tuple
}

// distinctFold is the running state of one DISTINCT aggregate of one group:
// the number of distinct values seen, their extremum (MIN/MAX), or the
// values themselves (SUM/AVG), which finish adds up in sorted order. The
// order detail rows arrive in is not canonical — hash-index buckets are
// rebuilt from a map scan whenever a table is loaded, so a recovered engine
// probes in a different order than the one that never crashed — and float
// addition is not associative; sorting the (small) value set makes the sum
// a function of the set alone.
type distinctFold struct {
	n    int64
	acc  types.Value
	vals []types.Value
}

// scratchKeep bounds the map sizes an aggregator retains between runs: a
// cleared Go map keeps its buckets, and one full recomputation must not pin
// megabytes in an engine that otherwise re-aggregates a group at a time.
const scratchKeep = 1024

// aggregator is the one aggregation kernel of the package: joined detail
// rows, read in place through a detailPlan's cells, accumulate into typed
// per-group state — count, sum, extremum, and a distinct-value fold —
// producing maintenance-form component rows. Scoped and full recomputation
// and initialization all run it; its maps and buffers are reused across
// runs. Rows of one group accumulate in arrival order.
type aggregator struct {
	mv   *MaterializedView
	plan *detailPlan
	keys groupSet // nil: aggregate every group

	idx    map[string]int      // encoded group key -> position in out
	out    []groupRow          // fresh rows, in first-seen group order
	seen   map[string]struct{} // (group, component, value) already folded
	folds  []distinctFold      // per group, one per DISTINCT component
	gbVals []types.Value
	buf    []byte
	vbuf   []byte
	last   int   // group of the previous accepted row, -1 before the first
	fed    int64 // rows offered, before the keys filter
}

// begin prepares a run over the plan; keys restricts the output groups.
func (a *aggregator) begin(mv *MaterializedView, p *detailPlan, keys groupSet) {
	a.mv, a.plan, a.keys, a.out, a.fed, a.last = mv, p, keys, nil, 0, -1
	a.folds = a.folds[:0]
	if a.idx == nil || len(a.idx) > scratchKeep {
		a.idx = make(map[string]int)
	} else {
		clear(a.idx)
	}
	if a.seen == nil || len(a.seen) > scratchKeep {
		a.seen = make(map[string]struct{})
	} else {
		clear(a.seen)
	}
	if cap(a.gbVals) < len(p.gb) {
		a.gbVals = make([]types.Value, len(p.gb))
	}
	a.gbVals = a.gbVals[:len(p.gb)]
}

// add accumulates one joined detail row standing for m base rows.
func (a *aggregator) add(rows []tuple.Tuple, m int64) error {
	a.fed++
	p, mv := a.plan, a.mv
	buf := a.buf[:0]
	for _, c := range p.gb {
		buf = types.Encode(buf, rows[c.slot][c.pos])
	}
	a.buf = buf
	// Detail arrives clustered by group (a seed probe yields one group-by
	// value), so the previous row's group usually answers without a lookup.
	gi, fresh := a.last, false
	if gi < 0 || a.out[gi].key != string(buf) {
		if a.keys != nil {
			if _, ok := a.keys[string(buf)]; !ok {
				return nil
			}
		}
		var ok bool
		if gi, ok = a.idx[string(buf)]; !ok {
			fresh = true
			for i, c := range p.gb {
				a.gbVals[i] = rows[c.slot][c.pos]
			}
			gi = len(a.out)
			key := string(buf)
			a.idx[key] = gi
			a.out = append(a.out, groupRow{key: key, row: mv.blank(a.gbVals)})
			for range mv.distinctIdx {
				a.folds = append(a.folds, distinctFold{acc: types.Null})
			}
		}
		a.last = gi
	}
	orow := a.out[gi].row
	for ci := range mv.comps {
		c := &mv.comps[ci]
		arg := &p.args[ci]
		switch c.kind {
		case compCount:
			orow[ci] = types.Int(orow[ci].AsInt() + m)
		case compSum:
			d := rows[arg.slot][arg.pos]
			if !arg.compressed {
				var err error
				if d, err = types.Mul(types.Int(m), d); err != nil {
					return err
				}
			}
			if err := accumulate(&orow[ci], d); err != nil {
				return err
			}
		case compStored:
			v := rows[arg.slot][arg.pos]
			if !c.distinct {
				if fresh || c.beats(v, orow[ci]) {
					orow[ci] = v
				}
				continue
			}
			a.vbuf = binary.AppendUvarint(a.vbuf[:0], uint64(gi))
			a.vbuf = binary.AppendUvarint(a.vbuf, uint64(c.dk))
			a.vbuf = types.Encode(a.vbuf, v)
			if _, dup := a.seen[string(a.vbuf)]; dup {
				continue
			}
			a.seen[string(a.vbuf)] = struct{}{}
			f := &a.folds[gi*len(mv.distinctIdx)+c.dk]
			f.n++
			switch c.item.Agg.Func {
			case ra.FuncSum, ra.FuncAvg:
				f.vals = append(f.vals, v)
			case ra.FuncMin, ra.FuncMax:
				if f.n == 1 || c.beats(v, f.acc) {
					f.acc = v
				}
			}
		}
	}
	h := mv.hiddenIdx()
	orow[h] = types.Int(orow[h].AsInt() + m)
	return nil
}

// accumulate adds d into a running sum that starts out NULL.
func accumulate(sum *types.Value, d types.Value) error {
	if sum.IsNull() {
		*sum = d
		return nil
	}
	s, err := types.Add(*sum, d)
	if err != nil {
		return err
	}
	*sum = s
	return nil
}

// finish finalizes the DISTINCT components and returns the group rows.
func (a *aggregator) finish() ([]groupRow, error) {
	nd := len(a.mv.distinctIdx)
	for gi := range a.out {
		for k, ci := range a.mv.distinctIdx {
			f := &a.folds[gi*nd+k]
			agg := a.mv.comps[ci].item.Agg
			sort.Slice(f.vals, func(i, j int) bool { return types.Compare(f.vals[i], f.vals[j]) < 0 })
			for _, v := range f.vals {
				if err := accumulate(&f.acc, v); err != nil {
					return nil, err
				}
			}
			v := f.acc
			switch agg.Func {
			case ra.FuncCount:
				v = types.Int(f.n)
			case ra.FuncAvg:
				v = types.Float(f.acc.AsFloat() / float64(f.n))
			case ra.FuncSum, ra.FuncMin, ra.FuncMax:
			default:
				return nil, fmt.Errorf("maintain: unsupported DISTINCT aggregate %s", agg)
			}
			a.out[gi].row[ci] = v
		}
	}
	out := a.out
	a.out, a.keys = nil, nil
	return out, nil
}

// seedSpec is how the delta-scoped recomputation finds the affected groups'
// detail without joining the whole auxiliary tree: it probes the hash index
// of one group-by attribute's owner (the seed) with the groups' own values,
// keeps the rows whose projection onto every group-by attribute the seed
// owns matches an affected group, and walks outward from those.
type seedSpec struct {
	at     *AuxTable
	attr   string
	gbi    int   // position of the seed attribute among the group-by values
	ownPos []int // seed-row positions of the group-by attributes it owns
	ownGb  []int // their positions among the group-by values
	plan   *detailPlan
}

// scopedSeed returns (and caches) the seed of the scoped path, or nil when
// the view's shape admits none: a global view, or no group-by attribute
// stored plain in a seedable auxiliary view. The check depends only on the
// derivation plan, so replica engines agree on it.
func (e *Engine) scopedSeed() (*seedSpec, error) {
	pc := e.planCache()
	if pc.seedKnown {
		return pc.seed, nil
	}
	var s *seedSpec
	for i, ci := range e.mv.gbIdx {
		cr := e.mv.comps[ci].item.Expr.(ra.ColRef)
		at := e.aux[cr.Table]
		// A compressed non-root view cannot seed (its rows are groups, not
		// detail); in the minimal plans only the root compresses.
		if at == nil || !contains(at.def.PlainAttrs, cr.Name) || (cr.Table != e.graph.Root && at.cntPos >= 0) {
			continue
		}
		s = &seedSpec{at: at, attr: cr.Name, gbi: i}
		break
	}
	if s != nil {
		if err := s.at.EnsureIndex(s.attr); err != nil {
			return nil, err
		}
		var err error
		if s.plan, err = e.detailPlanFor(s.at.def.Base, false); err != nil {
			return nil, err
		}
		for i, c := range s.plan.gb {
			if c.slot == 0 {
				s.ownPos = append(s.ownPos, c.pos)
				s.ownGb = append(s.ownGb, i)
			}
		}
	}
	pc.seed, pc.seedKnown = s, true
	return s, nil
}

// reaggregate recomputes the given groups from the auxiliary views alone:
// seed rows — the scoped probes, or every root row on the full path (the
// verification oracle, and the fallback for shapes that cannot seed) — are
// walked through the compiled join and streamed into the aggregation
// kernel, which filters by exact group key.
func (e *Engine) reaggregate(keys groupSet) ([]groupRow, error) {
	var seed *seedSpec
	if !e.ForceFullRecompute {
		var err error
		if seed, err = e.scopedSeed(); err != nil {
			return nil, err
		}
	}
	if seed == nil {
		p, err := e.detailPlanFor(e.graph.Root, false)
		if err != nil {
			return nil, err
		}
		e.agg.begin(e.mv, p, keys)
		e.walker.reset(p, e.agg.add)
		if err := e.walkSeeds(p, e.aux[e.graph.Root].Relation().Rows, nil, nil); err != nil {
			return nil, err
		}
	} else {
		e.agg.begin(e.mv, seed.plan, keys)
		e.walker.reset(seed.plan, e.agg.add)
		allowed := make(map[string]bool, len(keys))
		probed := make(map[string]bool, len(keys))
		buf := e.keyBuf[:0]
		for _, vals := range keys {
			buf = buf[:0]
			for _, gi := range seed.ownGb {
				buf = types.Encode(buf, vals[gi])
			}
			allowed[string(buf)] = true
		}
		for _, vals := range keys {
			buf = types.Encode(buf[:0], vals[seed.gbi])
			if probed[string(buf)] {
				continue
			}
			probed[string(buf)] = true
			e.walker.probes++
			lk := &e.seedLk
			lk.rows, lk.key = seed.at.lookupInto(seed.attr, vals[seed.gbi], lk.rows[:0], lk.key[:0])
			if err := e.walkSeeds(seed.plan, lk.rows, seed.ownPos, allowed); err != nil {
				return nil, err
			}
		}
		e.keyBuf = buf[:0]
	}
	e.walker.release()
	e.stats.auxLookups.Add(e.walker.probes)
	e.stats.reaggregatedRows.Add(e.agg.fed)
	if e.met != nil {
		e.met.reaggregated.Add(e.agg.fed)
	}
	return e.agg.finish()
}

// walkSeeds walks every seed row or, when allowed is set, every seed row
// whose projection onto ownPos is in it. A compressed (root) seed row
// carries its own multiplicity.
func (e *Engine) walkSeeds(p *detailPlan, seeds []tuple.Tuple, ownPos []int, allowed map[string]bool) error {
	for _, r := range seeds {
		if allowed != nil {
			// The seed probe is done with its key buffer; keyBuf is the caller's.
			e.seedLk.key = r.AppendKeyAt(e.seedLk.key[:0], ownPos)
			if !allowed[string(e.seedLk.key)] {
				continue
			}
		}
		m := int64(1)
		if p.startCnt >= 0 {
			m = r[p.startCnt].AsInt()
		}
		if err := e.walker.walk(r, m); err != nil {
			return err
		}
	}
	return nil
}
