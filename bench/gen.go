package main

import (
	"bytes"
	"math/rand"

	"mindetail/internal/csvload"
	"mindetail/internal/experiments"
	"mindetail/internal/maintain"
	"mindetail/internal/ra"
	"mindetail/internal/storage"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/workload"
)

// generator owns the benchmark's private replica of the operational
// sources and cuts the seed-determined delta stream from it, with the full
// old and new images an operational source would ship. The replica is also
// the input of the from-scratch oracle. The program under test sees only the
// rows the generator emits.
//
// The dimensions live in a storage.DB loaded by workload.Load. The facts do
// not: storage.DB finds a changed row in its foreign-key indexes by scanning
// the list of the row's store, 100k keys with two stores, and cutting
// spill-paged's 230k changes from it took over a minute. They are a slice
// indexed by id. The deltas are cut here and not by workload.Mutator: the
// benchmark needs multi-row deltas, a hot/cold pick, mixes dealt in exact
// shares and prices that sum exactly, and this change may not touch
// internal/workload.
type generator struct {
	rng   *rand.Rand
	p     workload.RetailParams
	dims  *storage.DB
	facts []tuple.Tuple // facts[id-1]; nil once deleted
	// unsettled holds the facts insertSales has emitted but not yet put
	// into facts, five numbers a row. The append feed emits over a million
	// rows in a run; as tuples (160 B a row, all pointers) they would make
	// the collector's cycles few, long and unevenly spread over the
	// segments, here they are 40 B a row that it does not scan.
	unsettled []int64
	factBytes int
	live      []int64 // sale ids still present, for uniform picks
	year      int     // number of base facts in the selected year (ids 1..year)
	deck      []int   // the undrawn part of the current shuffled deck
}

var tableOrder = []string{"time", "product", "store", "sale"}

const priceAttr = 4 // sale.price

// quarters draws a price as a count of quarters: prices are exact multiples
// of 0.25, so SUMs are independent of accumulation order and the oracle can
// compare bit for bit.
func (g *generator) quarters() int64 { return int64(g.rng.Intn(400) + 1) }

func saleRow(id, day, product, store, quarters int64) tuple.Tuple {
	return tuple.Tuple{types.Int(id), types.Int(day), types.Int(product), types.Int(store), types.Float(float64(quarters) * 0.25)}
}

// newGenerator loads the dimensions with workload.Load and the facts in
// Load's own order (day-major, the first days in the selected year) with
// seed-drawn exact prices.
func newGenerator(p workload.RetailParams, seed int64) (*generator, error) {
	noFacts := p
	noFacts.ProductsSoldPerDay = 0
	env, err := experiments.NewEnv(noFacts)
	if err != nil {
		return nil, err
	}
	g := &generator{rng: rand.New(rand.NewSource(seed)), p: p, dims: env.DB}
	for d := 0; d < p.Days; d++ {
		for s := 0; s < p.Stores; s++ {
			for i := 0; i < p.ProductsSoldPerDay; i++ {
				g.put(saleRow(int64(len(g.facts)+1), int64(d+1), int64((d*31+s*7+i)%p.Products+1), int64(s+1), g.quarters()))
			}
		}
	}
	selected := p.Days / 2
	if p.YearFraction != 0 {
		selected = int(p.YearFraction * float64(p.Days))
	}
	g.year = selected * p.Stores * p.ProductsSoldPerDay
	return g, nil
}

// put appends a fact under the next id.
func (g *generator) put(row tuple.Tuple) {
	g.facts = append(g.facts, row)
	g.factBytes += row.EncodedSize()
	g.live = append(g.live, int64(len(g.facts)))
}

// relation exposes a replica table to the CSV export and to the oracle.
func (g *generator) relation(table string) *ra.Relation {
	rel := ra.FromTable(g.dims.Table(table), table)
	if table == "sale" {
		for _, row := range g.facts {
			if row != nil {
				rel.Rows = append(rel.Rows, row)
			}
		}
	}
	return rel
}

// loadImage is the bulk load as the warehouse ingests it: one headerless
// CSV per table, rows in key order.
type loadImage map[string][]byte

func (g *generator) loadImage() (loadImage, error) {
	img := make(loadImage)
	for _, t := range tableOrder {
		var buf bytes.Buffer
		if err := csvload.Export(g.relation(t), &buf); err != nil {
			return nil, err
		}
		data := buf.Bytes()
		img[t] = data[bytes.IndexByte(data, '\n')+1:] // the import is positional
	}
	return img, nil
}

// bytes and rowCount size the replica; the append feed settles first.
func (g *generator) bytes() int { return g.dims.TotalBytes() + g.factBytes }

func (g *generator) rowCount() int {
	n := len(g.live)
	for _, t := range tableOrder[:3] {
		n += g.dims.RowCount(t)
	}
	return n
}

// draft draws a fresh fact: day, product, store, price in quarters.
func (g *generator) draft() (day, product, store, quarters int64) {
	return int64(g.rng.Intn(g.p.Days) + 1), int64(g.rng.Intn(g.p.Products) + 1), int64(g.rng.Intn(g.p.Stores) + 1), g.quarters()
}

func (g *generator) newSale() tuple.Tuple {
	g.settle() // ids follow on from the settled facts
	d, p, s, q := g.draft()
	row := saleRow(int64(len(g.facts)+1), d, p, s, q)
	g.put(row)
	return row
}

// insertSales is the append feed: n fresh facts in one delta, left
// unsettled.
func (g *generator) insertSales(n int) maintain.Delta {
	d := maintain.Delta{Table: "sale", Inserts: make([]tuple.Tuple, n)}
	for i := range d.Inserts {
		day, p, s, q := g.draft()
		g.unsettled = append(g.unsettled, day, p, s, q)
		d.Inserts[i] = saleRow(int64(len(g.facts)+len(g.unsettled)/4), day, p, s, q)
	}
	return d
}

// settle puts the unsettled facts into the replica; the oracle and the
// byte accounting need them there.
func (g *generator) settle() {
	for u := g.unsettled; len(u) > 0; u = u[4:] {
		g.put(saleRow(int64(len(g.facts)+1), u[0], u[1], u[2], u[3]))
	}
	g.unsettled = nil
}

// reprice moves a fact to a different price. Rows are immutable once
// handed out (deltas and oracle relations share them).
func (g *generator) reprice(id int64) maintain.Update {
	old := g.facts[id-1]
	upd := old.Clone()
	upd[priceAttr] = types.Float(float64(g.quarters()) * 0.25)
	if types.Identical(upd[priceAttr], old[priceAttr]) {
		upd[priceAttr] = types.Float(old[priceAttr].AsFloat() + 0.25)
	}
	g.facts[id-1] = upd
	return maintain.Update{Old: old, New: upd}
}

// updatePrices reprices n distinct live facts in one delta.
func (g *generator) updatePrices(n int) maintain.Delta {
	d := maintain.Delta{Table: "sale"}
	seen := make(map[int64]bool, n)
	for len(d.Updates) < n {
		id := g.live[g.rng.Intn(len(g.live))]
		if seen[id] {
			continue
		}
		seen[id] = true
		d.Updates = append(d.Updates, g.reprice(id))
	}
	return d
}

// draw deals from a shuffled copy of cards, reshuffling when it runs out:
// the order is random but every len(cards) draws hold each kind of delta
// in its exact share, so segments do not differ by the luck of the mix.
func (g *generator) draw(cards []int) int {
	if len(g.deck) == 0 {
		g.deck = append(g.deck, cards...)
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	c := g.deck[len(g.deck)-1]
	g.deck = g.deck[:len(g.deck)-1]
	return c
}

var churnCards = []int{0, 1, 2, 2, 0, 1, 2, 2} // 0 insert, 1 delete, 2 update

// churn is one single-row change: 50% price update, 25% delete, 25% insert,
// so the fact count stays level.
func (g *generator) churn() maintain.Delta {
	switch g.draw(churnCards) {
	case 0:
		return maintain.Delta{Table: "sale", Inserts: []tuple.Tuple{g.newSale()}}
	case 1:
		i := g.rng.Intn(len(g.live))
		id := g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		row := g.facts[id-1]
		g.facts[id-1] = nil
		g.factBytes -= row.EncodedSize()
		return maintain.Delta{Table: "sale", Deletes: []tuple.Tuple{row}}
	default:
		return g.updatePrices(1)
	}
}

var hotColdCards = []int{0, 1, 1, 1, 1, 1, 1, 1, 1, 1} // 0 cold, 1 hot

// hotColdUpdate reprices one fact of the selected year: nine times in ten
// one of the first `hot` facts (a day of detail — pages a pool can keep),
// otherwise a uniform pick over the whole year (a page fetch).
func (g *generator) hotColdUpdate(hot int) maintain.Delta {
	if hot > g.year {
		hot = g.year
	}
	id := int64(g.rng.Intn(hot) + 1)
	if g.draw(hotColdCards) == 0 {
		id = int64(g.rng.Intn(g.year) + 1)
	}
	return maintain.Delta{Table: "sale", Updates: []maintain.Update{g.reprice(id)}}
}
