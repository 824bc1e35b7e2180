// Package costmodel is the view-selection advisor: it mines a workload log
// of queries and committed deltas (the warehouse's op log) and ranks the
// ad-hoc query clusters worth materializing under a space budget, pricing
// each by the minimal auxiliary data its derivation keeps. `dwshell
// \advise` and `dwsim -advise` drive it.
package costmodel

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mindetail/internal/core"
	"mindetail/internal/gpsj"
	"mindetail/internal/maintain"
	"mindetail/internal/ra"
	"mindetail/internal/schema"
	"mindetail/internal/sqlparse"
)

// EventKind tags one workload log entry.
type EventKind int

const (
	// EventQuery is a SELECT: a view hit when View is set, an ad-hoc
	// evaluation against the sources otherwise.
	EventQuery EventKind = iota
	// EventDelta is a source update propagated through the warehouse.
	EventDelta
)

// Event is one entry of the query/update log the advisor mines. The
// warehouse emits these through its op-log hook; the fields are a plain
// record so shells and simulators can also synthesize them.
type Event struct {
	Kind    EventKind
	View    string   // materialized view that answered a query, "" if ad hoc
	SQL     string   // ad-hoc query text (parseable SELECT)
	Tables  []string // FROM tables of a query
	GroupBy []string // grouping columns of a query
	Table   string   // base table of a delta
	Rows    int      // delta row count
	Ns      int64    // observed latency of the operation
}

// Advisor accumulates a workload log and ranks candidate GPSJ views under a
// space budget (the paper's Section 3.3 economics: a view is worth
// materializing when the query time it saves outweighs the maintenance cost
// its auxiliary data adds — and the best candidates are those whose
// auxiliary views are eliminable entirely). The zero value is an empty
// advisor, ready to use; it is safe for concurrent Record.
type Advisor struct {
	mu     sync.Mutex
	events []Event
}

// Record appends one workload event.
func (a *Advisor) Record(ev Event) {
	a.mu.Lock()
	a.events = append(a.events, ev)
	a.mu.Unlock()
}

// Len reports how many events have been recorded.
func (a *Advisor) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.events)
}

// Reset drops the accumulated log.
func (a *Advisor) Reset() {
	a.mu.Lock()
	a.events = nil
	a.mu.Unlock()
}

// Candidate is one advised view: an ad-hoc query cluster that could be
// materialized, with its measured workload weight and estimated footprint.
type Candidate struct {
	Name       string   // advised_<n>, stable in cluster-first-seen order
	SQL        string   // representative query text
	Tables     []string // sorted FROM tables
	GroupBy    []string // sorted grouping columns
	Queries    int      // ad-hoc queries this view would have answered
	QueryNs    int64    // their total observed latency (the saving)
	Deltas     int      // log deltas touching the candidate's tables
	DeltaNs    int64    // their total observed latency (maintenance proxy)
	EstBytes   int      // materialized footprint: view + auxiliary views
	OmittedAux []string // auxiliary views eliminated by Section 3.3
	BenefitNs  int64    // QueryNs - DeltaNs
	Picked     bool
	Reason     string // why not picked ("" when picked)
}

// Advice is the advisor's report: every candidate, ranked, with the picks
// marked under the budget.
type Advice struct {
	BudgetBytes  int // 0 means unlimited
	PickedBytes  int
	Candidates   []Candidate
	ViewQueries  int // queries already answered by materialized views
	AdhocQueries int
	DeltaEvents  int
}

// Advise mines the log: ad-hoc queries are clustered by (tables, group-by)
// signature, each cluster becomes a candidate GPSJ view derived through the
// minimal-auxiliary pipeline, and candidates are greedily packed under
// budgetBytes by benefit density. src materializes candidates to measure
// their true footprint (view plus non-omitted auxiliary views); when nil,
// candidates report EstBytes -1 and are not picked.
func (a *Advisor) Advise(cat *schema.Catalog, src func(table string) *ra.Relation, budgetBytes int) (*Advice, error) {
	a.mu.Lock()
	events := append([]Event(nil), a.events...)
	a.mu.Unlock()

	adv := &Advice{BudgetBytes: budgetBytes}
	type cluster struct {
		first Event
		n     int
		ns    int64
	}
	var order []string
	clusters := make(map[string]*cluster)
	var deltas []Event
	for _, ev := range events {
		switch ev.Kind {
		case EventDelta:
			adv.DeltaEvents++
			deltas = append(deltas, ev)
		case EventQuery:
			if ev.View != "" {
				adv.ViewQueries++
				continue
			}
			adv.AdhocQueries++
			if ev.SQL == "" {
				continue
			}
			sig := signature(ev.Tables, ev.GroupBy)
			c := clusters[sig]
			if c == nil {
				c = &cluster{first: ev}
				clusters[sig] = c
				order = append(order, sig)
			}
			c.n++
			c.ns += ev.Ns
		}
	}

	for i, sig := range order {
		c := clusters[sig]
		cand := Candidate{
			Name:    fmt.Sprintf("advised_%d", i+1),
			SQL:     c.first.SQL,
			Tables:  sortedCopy(c.first.Tables),
			GroupBy: sortedCopy(c.first.GroupBy),
			Queries: c.n,
			QueryNs: c.ns,
		}
		touched := make(map[string]bool, len(cand.Tables))
		for _, t := range cand.Tables {
			touched[t] = true
		}
		for _, d := range deltas {
			if touched[d.Table] {
				cand.Deltas++
				cand.DeltaNs += d.Ns
			}
		}
		cand.BenefitNs = cand.QueryNs - cand.DeltaNs
		if err := a.size(cat, src, &cand); err != nil {
			cand.EstBytes = -1
			cand.Reason = err.Error()
		}
		adv.Candidates = append(adv.Candidates, cand)
	}

	// Rank by benefit density (benefit per byte), then greedily pack.
	sort.SliceStable(adv.Candidates, func(i, j int) bool {
		return density(&adv.Candidates[i]) > density(&adv.Candidates[j])
	})
	for i := range adv.Candidates {
		cand := &adv.Candidates[i]
		switch {
		case cand.Reason != "":
		case cand.BenefitNs <= 0:
			cand.Reason = "maintenance cost exceeds query saving"
		case budgetBytes > 0 && adv.PickedBytes+cand.EstBytes > budgetBytes:
			cand.Reason = fmt.Sprintf("over budget (%d of %d bytes left)",
				budgetBytes-adv.PickedBytes, budgetBytes)
		default:
			cand.Picked = true
			adv.PickedBytes += cand.EstBytes
		}
	}
	return adv, nil
}

// size derives the candidate's maintenance plan and fills EstBytes and
// OmittedAux by materializing it against the sources.
func (a *Advisor) size(cat *schema.Catalog, src func(table string) *ra.Relation, cand *Candidate) error {
	st, err := sqlparse.Parse(cand.SQL)
	if err != nil {
		return fmt.Errorf("unparseable: %v", err)
	}
	sel, ok := st.(*sqlparse.SelectStmt)
	if !ok {
		return fmt.Errorf("not a SELECT")
	}
	v, err := gpsj.FromSelect(cat, cand.Name, sel)
	if err != nil {
		return fmt.Errorf("not GPSJ: %v", err)
	}
	plan, err := core.Derive(v)
	if err != nil {
		return fmt.Errorf("not maintainable: %v", err)
	}
	cand.OmittedAux = OmittedAux(plan)
	if src == nil {
		return fmt.Errorf("size unknown (sources detached)")
	}
	eng, err := maintain.NewEngine(plan)
	if err != nil {
		return fmt.Errorf("engine: %v", err)
	}
	if err := eng.Init(src); err != nil {
		return fmt.Errorf("materialize: %v", err)
	}
	cand.EstBytes = eng.AuxBytes() + eng.ViewBytes()
	return nil
}

// OmittedAux lists the base tables whose auxiliary views the plan
// eliminates under the paper's Section 3.3 conditions, sorted.
func OmittedAux(p *core.Plan) []string {
	var out []string
	for t, x := range p.Aux {
		if x.Omitted {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

func density(c *Candidate) float64 {
	if c.Reason != "" || c.EstBytes < 0 {
		return -1
	}
	b := c.EstBytes
	if b < 1 {
		b = 1
	}
	return float64(c.BenefitNs) / float64(b)
}

func signature(tables, groupBy []string) string {
	return strings.Join(sortedCopy(tables), ",") + "||" + strings.Join(sortedCopy(groupBy), ",")
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}
