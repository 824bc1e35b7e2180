package main

import (
	"fmt"

	"mindetail/internal/maintain"
	"mindetail/internal/workload"
)

// runSeconds is BENCHMARK.json's run_seconds: the -seconds value the
// per-segment cycle counts below were sized for on the 2-core calibration
// box. Other values scale the counts in proportion (never the segment count
// or the unit sizes).
const runSeconds = 15

// measuredSegments is the number of equal measured segments after the one
// discarded warm-up segment. Every timing metric is computed per segment
// and reported as the median of these.
const measuredSegments = 6

type viewSpec struct {
	name, sql string
}

// pagedSpec moves the auxiliary stores onto pager.Factory.
type pagedSpec struct {
	pageSize, poolPages int
	// minSpill is the required ratio of the fact store's file pages to its
	// pool budget; the run fails below it.
	minSpill float64
}

// workloadSpec is one benchmark workload: the retail star's size, the
// views, and the closed-loop schedule. One cycle is appliesPerCycle APPLY
// requests followed by refreshesPerCycle refreshes; a refresh QUERYs every
// view once, in order, and is timed as one unit.
type workloadSpec struct {
	name, why string
	params    workload.RetailParams
	views     []viewSpec
	paged     *pagedSpec

	appliesPerCycle   int
	refreshesPerCycle int
	cyclesPerSegment  int // at runSeconds
	tailDeltas        int // untimed deltas replayed by recovery
	// checkpointBatch is the number of Checkpoint calls timed as one unit,
	// so that a unit is a fifth of a second where one call is milliseconds.
	checkpointBatch int

	next func(g *generator) maintain.Delta
}

// cycles scales the per-segment cycle count to the requested run length.
func (s *workloadSpec) cycles(seconds float64) int {
	n := int(float64(s.cyclesPerSegment)*seconds/runSeconds + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

func star(products, soldPerDay int) workload.RetailParams {
	return workload.RetailParams{
		Days: 730, Stores: 2, Products: products, ProductsSoldPerDay: soldPerDay,
		TransactionsPerProduct: 1, Brands: 50, SelectYear: 1997,
	}
}

// allIn1997 puts every day in the selected year, so every fact passes the
// views' year filter and every change reaches the recompute path.
func allIn1997(p workload.RetailParams) workload.RetailParams {
	p.YearFraction = 1
	return p
}

const minMaxSQL = `SELECT product.id, MIN(price) AS lo, MAX(price) AS hi, COUNT(*) AS n
FROM sale, product
WHERE sale.productid = product.id
GROUP BY product.id`

// dayDistinctSQL is product_sales grouped by day: each scoped recompute
// touches one day's detail rows, a working set a buffer pool can keep.
const dayDistinctSQL = `SELECT time.id, SUM(price) AS TotalPrice, COUNT(*) AS TotalCount,
	COUNT(DISTINCT brand) AS DifferentBrands
FROM sale, time, product
WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id
GROUP BY time.id`

// dashViews is the dashboard: 16 CSMAS views of mixed result size whose
// expand and filter signatures repeat, so the per-delta memo engages.
func dashViews() []viewSpec {
	sumCount := "SUM(price) AS total, COUNT(*) AS n"
	byTime := func(name, group, cond string) viewSpec {
		return viewSpec{name, fmt.Sprintf("SELECT %s, %s FROM sale, time WHERE %ssale.timeid = time.id GROUP BY %s",
			group, sumCount, cond, group)}
	}
	byProduct := func(name, group string) viewSpec {
		return viewSpec{name, fmt.Sprintf("SELECT %s, %s FROM sale, product WHERE sale.productid = product.id GROUP BY %s",
			group, sumCount, group)}
	}
	return []viewSpec{
		byTime("month_1997", "time.month", "time.year = 1997 AND "),
		byTime("month_1998", "time.month", "time.year = 1998 AND "),
		byTime("month_all", "time.year, time.month", ""),
		{"month_avg_1997", "SELECT time.month, AVG(price) AS mean, COUNT(*) AS n FROM sale, time WHERE time.year = 1997 AND sale.timeid = time.id GROUP BY time.month"},
		byTime("day_1997", "time.id", "time.year = 1997 AND "),
		byTime("day_1998", "time.id", "time.year = 1998 AND "),
		byTime("day_all", "time.id", ""),
		byTime("day_of_month", "time.day", ""),
		byProduct("product_all", "product.id"),
		byProduct("brand_all", "product.brand"),
		byProduct("category_all", "product.category"),
		{"store_all", "SELECT store.id, " + sumCount + " FROM sale, store WHERE sale.storeid = store.id GROUP BY store.id"},
		{"city_all", "SELECT store.city, " + sumCount + " FROM sale, store WHERE sale.storeid = store.id GROUP BY store.city"},
		{"brand_month", "SELECT product.brand, time.month, " + sumCount + " FROM sale, time, product WHERE sale.timeid = time.id AND sale.productid = product.id GROUP BY product.brand, time.month"},
		{"category_month_1997", "SELECT product.category, time.month, " + sumCount + " FROM sale, time, product WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id GROUP BY product.category, time.month"},
		{"product_1997", "SELECT product.id, " + sumCount + " FROM sale, time, product WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id GROUP BY product.id"},
	}
}

// workloads returns the four workloads in BENCHMARK.json order. The `why`
// strings are the ones recorded there.
func workloads() []*workloadSpec {
	return []*workloadSpec{
		{
			name:   "feed-append",
			why:    "insert-only 512-row fact deltas into two CSMAS views: wire framing, WAL bytes + fsync and the adjust path do the work; scoped recompute and the pager do none",
			params: star(2000, 40),
			views: []viewSpec{
				{"sales_by_month", workload.CSMASOnlySQL(1997)},
				{"sales_by_product", workload.EliminationSQL()},
			},
			appliesPerCycle: 2, refreshesPerCycle: 1,
			cyclesPerSegment: 200, tailDeltas: 600, checkpointBatch: 40,
			next: func(g *generator) maintain.Delta { return g.insertSales(512) },
		},
		{
			name:   "churn-recompute",
			why:    "single-row update/delete/insert on COUNT(DISTINCT) and MIN/MAX views over 88k facts: scoped recompute dominates apply time, wire and WAL bytes are negligible",
			params: allIn1997(star(1500, 60)),
			views: []viewSpec{
				{"product_sales", workload.ProductSalesSQL(1997)},
				{"price_range", minMaxSQL},
			},
			appliesPerCycle: 2, refreshesPerCycle: 1,
			cyclesPerSegment: 240, tailDeltas: 300, checkpointBatch: 1,
			next: (*generator).churn,
		},
		{
			name:            "dash-read",
			why:             "4 refreshes of 16 views per 8-row update: the snapshot read path, result encode and frame write do the work, and every apply invalidates and republishes all 16 views",
			params:          star(2000, 40),
			views:           dashViews(),
			appliesPerCycle: 1, refreshesPerCycle: 4,
			cyclesPerSegment: 200, tailDeltas: 1200, checkpointBatch: 2,
			next: func(g *generator) maintain.Delta { return g.updatePrices(8) },
		},
		{
			name:   "spill-paged",
			why:    "the one workload larger than the program's own cache: single-row updates, 90% on 64 hot rows, against a paged fact store at least 10x its buffer pool",
			params: allIn1997(star(1000, 150)),
			views:  []viewSpec{{"daily_sales", dayDistinctSQL}},
			paged:  &pagedSpec{pageSize: 1024, poolPages: 600, minSpill: 10},

			appliesPerCycle: 4, refreshesPerCycle: 1,
			cyclesPerSegment: 300, tailDeltas: 3000, checkpointBatch: 1,
			next: func(g *generator) maintain.Delta { return g.hotColdUpdate(64) },
		},
	}
}

func findWorkload(name string) (*workloadSpec, error) {
	for _, s := range workloads() {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// quick shrinks a workload to test scale: a 60-day star and a handful of
// cycles, same views, same schedule shape.
func (s *workloadSpec) quick() {
	s.params.Days = 60
	s.params.ProductsSoldPerDay = 20
	if s.params.Products > 200 {
		s.params.Products = 200
	}
	s.cyclesPerSegment = 3
	s.tailDeltas = 8
	s.checkpointBatch = 1
	if s.paged != nil {
		s.paged.poolPages = 8
		s.paged.minSpill = 2
	}
}
