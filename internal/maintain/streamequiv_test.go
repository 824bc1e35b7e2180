// Equivalence and rollback coverage for the streamed delta path: deltas
// whose bindings go straight from the join walk into the group adjust must
// leave every view component, hidden count, auxiliary row and work counter
// exactly as the materializing two-pass path (maintain.ApplyTwoPass) does,
// on the in-memory store and on a 4-frame paged one. External test package
// for the same reason as pagedstore_test.go.
package maintain_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mindetail/internal/core"
	"mindetail/internal/experiments"
	"mindetail/internal/faultinject"
	"mindetail/internal/maintain"
	"mindetail/internal/pager"
	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/workload"
)

// streamParams is small enough to keep the sweeps fast and large enough
// that the sale detail spans many pages of the 4-frame pool.
var streamParams = workload.RetailParams{
	Days: 60, Stores: 1, Products: 12, ProductsSoldPerDay: 4,
	TransactionsPerProduct: 1, Brands: 4, SelectYear: 1997, Seed: 3,
}

// streamViews are the shapes that stream: no stored component (a join, a
// global and an AVG view), and MIN/MAX fed inserts only.
var streamViews = []struct {
	name, sql  string
	insertOnly bool
}{
	{"csmas_join", `SELECT time.month, product.brand, SUM(price) AS total, COUNT(*) AS n
		FROM sale, time, product
		WHERE sale.timeid = time.id AND sale.productid = product.id
		GROUP BY time.month, product.brand`, false},
	{"global", `SELECT SUM(price) AS total, COUNT(*) AS n FROM sale`, false},
	{"avg", `SELECT time.month, AVG(price) AS mean, COUNT(*) AS n
		FROM sale, time WHERE time.year = 1997 AND sale.timeid = time.id
		GROUP BY time.month`, false},
	{"minmax_insert_only", `SELECT product.brand, MIN(price) AS lo, MAX(price) AS hi,
		SUM(price) AS total FROM sale, product WHERE sale.productid = product.id
		GROUP BY product.brand`, true},
}

// inexact are prices whose sums depend on the order they are added in.
var inexact = []float64{19.99, 0.1, 0.7, 3.3, 1e-3}

// streamRig holds the source environment, the derived plan, and the fact
// rows the deltas are drawn from.
type streamRig struct {
	t     *testing.T
	env   *experiments.Env
	plan  *core.Plan
	paged bool
	rng   *rand.Rand
	next  int64
	live  map[int64]tuple.Tuple
	ids   []int64
}

func newStreamRig(t *testing.T, sql string, paged bool) *streamRig {
	t.Helper()
	env, err := experiments.NewEnv(streamParams)
	if err != nil {
		t.Fatal(err)
	}
	v, err := env.View("v", sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Derive(v)
	if err != nil {
		t.Fatal(err)
	}
	r := &streamRig{t: t, env: env, plan: p, paged: paged, rng: rand.New(rand.NewSource(17)), live: map[int64]tuple.Tuple{}}
	for _, row := range env.DB.Table("sale").All() {
		id := row[0].AsInt()
		r.live[id] = row
		r.ids = append(r.ids, id)
		r.next = max(r.next, id)
	}
	return r
}

// engine builds an engine over the rig's plan, on a fresh paged store when
// the rig is paged, holding st (or the sources' initial state when nil).
func (r *streamRig) engine(st *maintain.State) *maintain.Engine {
	r.t.Helper()
	e, err := maintain.NewEngine(r.plan)
	if err != nil {
		r.t.Fatal(err)
	}
	if r.paged {
		fac, err := pager.NewFactory(r.t.TempDir(), pager.Options{PageSize: 256, PoolPages: 4})
		if err != nil {
			r.t.Fatal(err)
		}
		r.t.Cleanup(func() { fac.Close() })
		if err := e.SetAuxStores(func(table string) (maintain.AuxStore, error) {
			return fac.Open("v", table)
		}); err != nil {
			r.t.Fatal(err)
		}
	}
	if st == nil {
		err = e.Init(r.env.Src)
	} else {
		err = e.ImportState(st)
	}
	if err != nil {
		r.t.Fatal(err)
	}
	return e
}

func (r *streamRig) price() types.Value {
	return types.Float(inexact[r.rng.Intn(len(inexact))])
}

// newSale draws a fresh fact for an existing day and product.
func (r *streamRig) newSale() tuple.Tuple {
	r.next++
	row := tuple.Tuple{types.Int(r.next), types.Int(int64(1 + r.rng.Intn(streamParams.Days))),
		types.Int(int64(1 + r.rng.Intn(streamParams.Products))), types.Int(1), r.price()}
	r.live[r.next] = row
	r.ids = append(r.ids, r.next)
	return row
}

// pick removes and returns a random live fact id.
func (r *streamRig) pick() int64 {
	i := r.rng.Intn(len(r.ids))
	id := r.ids[i]
	r.ids[i] = r.ids[len(r.ids)-1]
	r.ids = r.ids[:len(r.ids)-1]
	return id
}

// delta draws a fact delta of n rows: inserts only, or a mix of inserts,
// deletes and price updates.
func (r *streamRig) delta(n int, insertOnly bool) maintain.Delta {
	d := maintain.Delta{Table: "sale"}
	for ; n > 0; n-- {
		k := 0
		if !insertOnly {
			k = r.rng.Intn(3)
		}
		switch k {
		case 0:
			d.Inserts = append(d.Inserts, r.newSale())
		case 1:
			id := r.pick()
			d.Deletes = append(d.Deletes, r.live[id])
			delete(r.live, id)
		case 2:
			id := r.pick()
			old := r.live[id]
			upd := old.Clone()
			upd[4] = r.price()
			d.Updates = append(d.Updates, maintain.Update{Old: old, New: upd})
			r.live[id] = upd
			r.ids = append(r.ids, id)
		}
	}
	return d
}

// requireSameState asserts two engine states are identical: view rows
// (hidden counts included) position for position, auxiliary rows in key
// order, every cell under types.Identical — floats to the bit.
func requireSameState(t *testing.T, when string, got, want *maintain.State) {
	t.Helper()
	requireSameRows(t, when+": view", got.MV.Rows, want.MV.Rows)
	for tb, w := range want.Aux {
		g, ok := got.Aux[tb]
		if !ok {
			t.Fatalf("%s: auxiliary view %s missing", when, tb)
		}
		requireSameRows(t, when+": auxiliary view "+tb, sortedRows(g), sortedRows(w))
	}
}

func requireSameRows(t *testing.T, when string, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", when, len(got), len(want))
	}
	for i := range want {
		if !tuple.Identical(got[i], want[i]) {
			t.Fatalf("%s: row %d is %v, want %v", when, i, got[i], want[i])
		}
	}
}

func sortedRows(rel *ra.Relation) []tuple.Tuple {
	rows := append([]tuple.Tuple(nil), rel.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key() < rows[j].Key() })
	return rows
}

// TestStreamedAdjustMatchesTwoPass feeds the same fact deltas — single rows,
// mixed batches, and a 512-row insert — to an engine and to a twin built
// from its exported state that applies them through the materializing
// two-pass path. After every delta the two states must be identical and
// their work counters equal.
func TestStreamedAdjustMatchesTwoPass(t *testing.T) {
	for _, v := range streamViews {
		for _, paged := range []bool{false, true} {
			name := v.name + map[bool]string{false: "/memory", true: "/paged"}[paged]
			t.Run(name, func(t *testing.T) {
				r := newStreamRig(t, v.sql, paged)
				eng := r.engine(nil)
				twin := r.engine(eng.ExportState())
				step := func(when string, d maintain.Delta) {
					t.Helper()
					if err := eng.Apply(d); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					if err := maintain.ApplyTwoPass(twin, d); err != nil {
						t.Fatalf("%s: twin: %v", when, err)
					}
					requireSameState(t, when, eng.ExportState(), twin.ExportState())
					if got, want := eng.Stats(), twin.Stats(); got != want {
						t.Fatalf("%s: stats %+v, two-pass %+v", when, got, want)
					}
				}
				for i := 0; i < 30; i++ {
					step(fmt.Sprintf("delta %d", i), r.delta(1+r.rng.Intn(3)*r.rng.Intn(8), v.insertOnly))
				}
				step("512-row insert", r.delta(512, true))
				if s := eng.Stats(); s.GroupAdjusts == 0 || s.DetailRows == 0 || s.GroupRecomputes != 0 {
					t.Fatalf("the stream must adjust and never recompute: %+v", s)
				}
			})
		}
	}
}

// TestStreamedAdjustRollback fails a 512-row insert at its last
// MVAdjustRow — every binding but one already adjusted — and at its last
// AuxAdjustStart, and requires the engine to roll back bit-identically with
// coherent indexes. Each attempt runs on a fresh engine holding the same
// state, so the visit sequence (page evictions included) repeats exactly
// and the ordinals found by counting hold.
func TestStreamedAdjustRollback(t *testing.T) {
	for _, v := range streamViews {
		for _, paged := range []bool{false, true} {
			name := v.name + map[bool]string{false: "/memory", true: "/paged"}[paged]
			t.Run(name, func(t *testing.T) {
				r := newStreamRig(t, v.sql, paged)
				st := r.engine(nil).ExportState()
				d := r.delta(512, true)

				// attempt stages d on a fresh engine with a hook failing at
				// visit k (0: never), returning the engine, the hook, the
				// stage error and the work the attempt did.
				attempt := func(k int64) (*maintain.Engine, *faultinject.Hook, error, maintain.Stats) {
					e := r.engine(st)
					e.ResetStats()
					h := faultinject.NewHook(k)
					e.SetFaultHook(h)
					err := e.Stage(d)
					e.SetFaultHook(nil)
					return e, h, err, e.Stats()
				}
				fail := func(k int64, want faultinject.Point) maintain.Stats {
					t.Helper()
					e, h, err, s := attempt(k)
					if !errors.Is(err, faultinject.ErrInjected) {
						t.Fatalf("visit %d: stage returned %v, want an injected failure", k, err)
					}
					if p, _ := h.Fired(); p != want {
						t.Fatalf("visit %d fired %s, want %s", k, p, want)
					}
					when := fmt.Sprintf("failure at visit %d (%s)", k, want)
					requireSameState(t, when, e.ExportState(), st)
					for _, tb := range pagedTables {
						if at := e.Aux(tb); at != nil {
							if err := at.CheckIndexes(); err != nil {
								t.Fatalf("%s: %s: %v", when, tb, err)
							}
						}
					}
					return s
				}

				e, h, err, full := attempt(0)
				if err != nil {
					t.Fatal(err)
				}
				e.Rollback()
				requireSameState(t, "staged, then rolled back", e.ExportState(), st)
				visits := h.Visits()

				// The last binding's MVAdjustRow is the last visit, or
				// followed only by the page visits of trailing rows the join
				// filters out.
				k := visits
				for ; k > 0; k-- {
					if _, h, _, _ := attempt(k); firedAt(h) == faultinject.MVAdjustRow {
						break
					}
				}
				// A walk cut short counts no detail rows, as a failed join
				// never did; the groups it adjusted before failing count.
				s := fail(k, faultinject.MVAdjustRow)
				if s.DetailRows != 0 || s.GroupAdjusts != full.GroupAdjusts-1 {
					t.Fatalf("failure at the last MVAdjustRow: %+v, a full stage did %+v", s, full)
				}
				if e.Aux("sale") == nil {
					return // no auxiliary view adjusts
				}

				// The walk runs only past EngineAuxApplied. A failure in it
				// either is an MVAdjustRow or leaves the walk going (a page
				// read fails into the store's pending error, reported after
				// the walk) to adjust view groups: bisect for the last visit
				// whose failure does neither.
				walked := func(k int64) bool {
					_, h, _, s := attempt(k)
					return s.GroupAdjusts > 0 || firedAt(h) == faultinject.MVAdjustRow
				}
				lo, hi := int64(1), visits // !walked(lo), walked(hi)
				for hi-lo > 1 {
					if mid := (lo + hi) / 2; walked(mid) {
						hi = mid
					} else {
						lo = mid
					}
				}
				if _, h, _, _ := attempt(lo); firedAt(h) != faultinject.EngineAuxApplied {
					t.Fatalf("visit %d fired %s, want %s", lo, firedAt(h), faultinject.EngineAuxApplied)
				}
				// The last AuxAdjustStart precedes it by its AuxAdjustMid
				// and any page visits in between.
				for k := lo - 1; k > 0; k-- {
					if _, h, _, _ := attempt(k); firedAt(h) == faultinject.AuxAdjustStart {
						fail(k, faultinject.AuxAdjustStart)
						return
					}
				}
				t.Fatal("no AuxAdjustStart before EngineAuxApplied")
			})
		}
	}
}

// firedAt is the point a hook failed, or -1 when it did not fire.
func firedAt(h *faultinject.Hook) faultinject.Point {
	if p, ok := h.Fired(); ok {
		return p
	}
	return -1
}
