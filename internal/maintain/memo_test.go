package maintain

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"mindetail/internal/core"
	"mindetail/internal/gpsj"
	"mindetail/internal/ra"
	"mindetail/internal/sqlparse"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// relBytes renders a relation as its sorted encoded rows — a byte-for-byte
// canonical form (relations are bags, so physical row order is irrelevant).
func relBytes(r *ra.Relation) []string {
	keys := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		keys[i] = row.Key()
	}
	sort.Strings(keys)
	return keys
}

// requireIdenticalState asserts two engines hold byte-identical materialized
// views and auxiliary tables.
func requireIdenticalState(t *testing.T, a, b *Engine, tables []string, when string) {
	t.Helper()
	ka, kb := relBytes(a.Snapshot()), relBytes(b.Snapshot())
	if len(ka) != len(kb) {
		t.Fatalf("%s: snapshots differ in size: %d vs %d", when, len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("%s: snapshots diverge at sorted row %d", when, i)
		}
	}
	for _, tb := range tables {
		ta, tbl := a.Aux(tb), b.Aux(tb)
		if (ta == nil) != (tbl == nil) {
			t.Fatalf("%s: aux %s present in one engine only", when, tb)
		}
		if ta == nil {
			continue
		}
		ra, rb := relBytes(ta.Relation()), relBytes(tbl.Relation())
		if len(ra) != len(rb) {
			t.Fatalf("%s: aux %s differs in size: %d vs %d", when, tb, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: aux %s diverges at sorted row %d", when, tb, i)
			}
		}
	}
}

// deriveEngine builds one standalone engine over the fixture's source DB,
// initialized from the current source state — engines built this way from
// the same SQL at the same moment are bit-identical replicas.
func deriveEngine(t *testing.T, f *fixture, sql string) *Engine {
	t.Helper()
	s, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	v, err := gpsj.FromSelect(f.cat, "v", s.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Derive(v)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, p)
	if err := e.Init(func(tb string) *ra.Relation {
		return ra.FromTable(f.db.Table(tb), tb)
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDeltaMemoSharesAcrossReplicas: engines with equal plan fingerprints
// staging one delta through one memo must produce exactly the state a
// memo-less serial apply produces, while actually sharing work (hits > 0).
func TestDeltaMemoSharesAcrossReplicas(t *testing.T) {
	const sql = `SELECT store.city, COUNT(DISTINCT brand) AS brands, SUM(price) AS total
		FROM sale, product, store
		WHERE sale.productid = product.id AND sale.storeid = store.id
		GROUP BY store.city`
	f := newFixture(t, retailDDL, sql, true)
	f.seedRetail()

	engines := make([]*Engine, 4)
	for i := range engines {
		engines[i] = deriveEngine(t, f, sql)
	}
	shadow := deriveEngine(t, f, sql) // never sees the memo

	deltas := []Delta{
		{Table: "sale", Inserts: []tuple.Tuple{
			{types.Int(2001), types.Int(2), types.Int(100), types.Int(8), types.Float(21)},
		}},
		{Table: "sale", Updates: []Update{{
			Old: tuple.Tuple{types.Int(3), types.Int(1), types.Int(101), types.Int(7), types.Float(5)},
			New: tuple.Tuple{types.Int(3), types.Int(1), types.Int(101), types.Int(7), types.Float(50)},
		}}},
		{Table: "product", Updates: []Update{{
			Old: tuple.Tuple{types.Int(101), types.Str("bolt"), types.Str("tools")},
			New: tuple.Tuple{types.Int(101), types.Str("zeta"), types.Str("tools")},
		}}},
		{Table: "sale", Deletes: []tuple.Tuple{
			{types.Int(5), types.Int(3), types.Int(102), types.Int(8), types.Float(12)},
		}},
	}
	var totalHits int64
	for di, d := range deltas {
		memo := NewDeltaMemo()
		for _, e := range engines {
			if err := e.StageWithMemo(d, memo); err != nil {
				t.Fatalf("delta %d: %v", di, err)
			}
		}
		for _, e := range engines {
			e.Commit()
		}
		if err := shadow.Apply(d); err != nil {
			t.Fatalf("delta %d shadow: %v", di, err)
		}
		hits, misses, _ := memo.Stats()
		if misses == 0 {
			t.Fatalf("delta %d: memo recorded no computations", di)
		}
		totalHits += hits
		for ei, e := range engines {
			requireIdenticalState(t, e, shadow, f.view.Tables,
				fmt.Sprintf("delta %d, engine %d", di, ei))
		}
	}
	if totalHits == 0 {
		t.Fatal("replica engines never shared memoized work")
	}
}

// TestDeltaMemoDistinguishesPlans: engines with DIFFERENT definitions must
// not consume each other's results even through a shared memo — every
// engine's state must match its own memo-less shadow byte for byte.
func TestDeltaMemoDistinguishesPlans(t *testing.T) {
	sqls := []string{
		`SELECT product.id, SUM(price) AS total FROM sale, product
		 WHERE sale.productid = product.id GROUP BY product.id`,
		`SELECT product.id, SUM(price) AS total FROM sale, product
		 WHERE sale.productid = product.id AND price > 6 GROUP BY product.id`,
		`SELECT sale.storeid, MAX(price) AS hi, COUNT(*) AS cnt
		 FROM sale GROUP BY sale.storeid`,
		`SELECT product.id, SUM(price) AS total FROM sale, product
		 WHERE sale.productid = product.id GROUP BY product.id`, // replica of [0]
	}
	f := newFixture(t, retailDDL, sqls[0], true)
	f.seedRetail()

	engines := make([]*Engine, len(sqls))
	shadows := make([]*Engine, len(sqls))
	for i, sql := range sqls {
		engines[i] = deriveEngine(t, f, sql)
		shadows[i] = deriveEngine(t, f, sql)
	}

	rng := rand.New(rand.NewSource(7))
	id := int64(3000)
	for step := 0; step < 25; step++ {
		id++
		var d Delta
		switch step % 3 {
		case 0, 1:
			d = Delta{Table: "sale", Inserts: []tuple.Tuple{
				{types.Int(id), types.Int(int64(rng.Intn(4) + 1)), types.Int(int64(rng.Intn(3) + 100)),
					types.Int(int64(rng.Intn(2) + 7)), types.Float(float64(rng.Intn(20)))},
			}}
		default:
			old := tuple.Tuple{types.Int(1), types.Int(1), types.Int(100), types.Int(7), types.Float(10)}
			d = Delta{Table: "sale", Updates: []Update{{
				Old: old,
				New: tuple.Tuple{types.Int(1), types.Int(1), types.Int(100), types.Int(7), types.Float(float64(rng.Intn(30)) + 1)},
			}}}
			// Keep the update idempotent for the next iteration by applying
			// inserts only afterwards; simplest is to skip chaining: apply
			// the reverse immediately below.
		}
		memo := NewDeltaMemo()
		for i, e := range engines {
			if err := e.StageWithMemo(d, memo); err != nil {
				t.Fatalf("step %d engine %d: %v", step, i, err)
			}
		}
		for _, e := range engines {
			e.Commit()
		}
		for i, sh := range shadows {
			if err := sh.Apply(d); err != nil {
				t.Fatalf("step %d shadow %d: %v", step, i, err)
			}
			requireIdenticalState(t, engines[i], sh, shadows[i].plan.View.Tables,
				fmt.Sprintf("step %d, view %d", step, i))
		}
		if step%3 == 2 {
			// Undo the update so Old stays accurate next time.
			u := d.Updates[0]
			rev := Delta{Table: "sale", Updates: []Update{{Old: u.New, New: u.Old}}}
			memo := NewDeltaMemo()
			for i, e := range engines {
				if err := e.StageWithMemo(rev, memo); err != nil {
					t.Fatalf("step %d reverse engine %d: %v", step, i, err)
				}
			}
			for _, e := range engines {
				e.Commit()
			}
			for i, sh := range shadows {
				if err := sh.Apply(rev); err != nil {
					t.Fatalf("step %d reverse shadow %d: %v", step, i, err)
				}
			}
		}
	}
	// Replicas [0] and [3] shared at least the detail join.
	if engines[0].plan.Fingerprint() != engines[3].plan.Fingerprint() {
		t.Fatal("replica plans have different fingerprints")
	}
}

// TestStrategyInMemoKey: engines recomputing along different paths must not
// share memoized results, so the recompute strategy — delta-scoped by
// default, the full auxiliary join under ForceFullRecompute — is part of
// the memo key.
func TestStrategyInMemoKey(t *testing.T) {
	f := newFixture(t, retailDDL, productSalesSQL, true)
	scoped := f.engine.buildMemoKey()
	f.engine.ForceFullRecompute = true
	if full := f.engine.buildMemoKey(); full == scoped {
		t.Fatalf("scoped and full recompute share the memo key %q", full)
	}
}

// TestSharedEnginesParallelMatchesSerial: a shared class staging in
// parallel with the memo must end byte-identical to a serial, memo-less
// class driven by the same stream.
func TestSharedEnginesParallelMatchesSerial(t *testing.T) {
	sqls := []string{
		`SELECT time.month, SUM(price) AS total, COUNT(*) AS cnt
		 FROM sale, time WHERE time.year = 1997 AND sale.timeid = time.id
		 GROUP BY time.month`,
		`SELECT sale.storeid, MAX(price) AS hi, COUNT(*) AS cnt
		 FROM sale GROUP BY sale.storeid`,
		`SELECT store.city, COUNT(DISTINCT brand) AS brands, SUM(price) AS total
		 FROM sale, product, store
		 WHERE sale.productid = product.id AND sale.storeid = store.id
		 GROUP BY store.city`,
	}
	par := newSharedFixture(t, sqls...)
	ser := newSharedFixture(t, sqls...)
	par.se.Workers = 4
	ser.se.Workers = 1
	ser.se.DisableMemo = true
	par.seedRetail()
	ser.seedRetail()
	par.init()
	ser.init()

	rng := rand.New(rand.NewSource(23))
	live := []int64{1, 2, 3, 4, 5, 6}
	for step := 0; step < 50; step++ {
		var d Delta
		switch rng.Intn(4) {
		case 0, 1:
			par.saleID++
			row := tuple.Tuple{types.Int(par.saleID), types.Int(int64(rng.Intn(6) + 1)),
				types.Int(int64(rng.Intn(3) + 100)), types.Int(int64(rng.Intn(2) + 7)),
				types.Float(float64(rng.Intn(60)) + 0.5)}
			if err := par.db.Insert("sale", row); err != nil {
				t.Fatal(err)
			}
			live = append(live, par.saleID)
			d = Delta{Table: "sale", Inserts: []tuple.Tuple{row}}
		case 2:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			row, err := par.db.Delete("sale", types.Int(live[i]))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			d = Delta{Table: "sale", Deletes: []tuple.Tuple{row}}
		default:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			old, upd, err := par.db.Update("sale", types.Int(live[i]),
				map[string]types.Value{"price": types.Float(float64(rng.Intn(80)) + 0.25)})
			if err != nil {
				t.Fatal(err)
			}
			d = Delta{Table: "sale", Updates: []Update{{Old: old, New: upd}}}
		}
		par.apply(d)
		if err := ser.se.Apply(d); err != nil {
			t.Fatalf("serial step %d: %v", step, err)
		}
		for i := range sqls {
			requireIdenticalState(t, par.se.Engine(i), ser.se.Engine(i),
				par.views[i].Tables, fmt.Sprintf("step %d, view %d", step, i))
		}
	}
}

// TestStatsConcurrentWithApply reads and resets the engine's work counters
// while deltas are being applied — meaningful under -race (the repository's
// race target runs this package).
func TestStatsConcurrentWithApply(t *testing.T) {
	f := newFixture(t, retailDDL, productSalesSQL, true)
	f.seedRetail()
	f.initEngine()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := f.engine.Stats()
			if s.DeltasApplied < 0 || s.AuxLookups < 0 {
				t.Error("negative counter")
				return
			}
			f.engine.ResetStats()
		}
	}()
	for i := 0; i < 200; i++ {
		f.insertSale(int64(i%4+1), int64(i%3+100), int64(i%2+7), float64(i%37))
	}
	close(stop)
	wg.Wait()
	f.check("after concurrent stats reads")
}
