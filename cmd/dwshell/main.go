// Command dwshell is an interactive warehouse shell: a small psql-style
// REPL over the mindetail engine. SQL statements terminated by ';' execute
// against the warehouse; backslash commands inspect the derivations.
//
//	$ go run ./cmd/dwshell
//	dw> CREATE TABLE sale (id INTEGER PRIMARY KEY, price FLOAT);
//	dw> CREATE MATERIALIZED VIEW t AS SELECT SUM(price) AS total, COUNT(*) AS cnt FROM sale;
//	dw> INSERT INTO sale VALUES (1, 9.5);
//	dw> SELECT total, cnt FROM t;
//	dw> \plan t
//	dw> \report
//	dw> \q
//
// An initial SQL script can be loaded with -f.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"mindetail/internal/costmodel"
	"mindetail/internal/csvload"
	"mindetail/internal/maintain"
	"mindetail/internal/obs"
	"mindetail/internal/pager"
	"mindetail/internal/persist"
	"mindetail/internal/ra"
	"mindetail/internal/wal"
	"mindetail/internal/warehouse"
)

func main() {
	file := flag.String("f", "", "SQL script to execute before the prompt")
	obsAddr := flag.String("obs", "", "serve /metrics, /metrics.json, /debug/vars and /debug/pprof on this address (e.g. :6060)")
	flag.Parse()

	w := warehouse.New()
	if *file != "" {
		sql, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwshell:", err)
			os.Exit(1)
		}
		if _, err := w.Exec(string(sql)); err != nil {
			fmt.Fprintln(os.Stderr, "dwshell:", err)
			os.Exit(1)
		}
	}
	sh := &shell{w: w, out: os.Stdout, prompt: true}
	sh.live.Store(w)
	if *obsAddr != "" {
		// The getter re-reads the live warehouse per request, so the server
		// keeps serving the current registry after \load swaps it out.
		addr, closer, err := obs.Serve(*obsAddr, sh.registry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwshell:", err)
			os.Exit(1)
		}
		defer closer.Close()
		fmt.Fprintf(os.Stderr, "dwshell: observability on http://%s/metrics\n", addr)
	}
	sh.run(os.Stdin)
}

// shell holds the REPL state; it is separate from main so tests can drive
// it with string input.
type shell struct {
	w      *warehouse.Warehouse
	out    io.Writer
	prompt bool
	buf    strings.Builder

	// dur is non-nil while the session is bound to a durable directory via
	// \open: every mutation is write-ahead logged and survives a crash.
	dur *wal.Durable

	// live mirrors w for the -obs HTTP goroutine: the REPL goroutine stores
	// it on every \load, the metrics server loads it per request, so the
	// swap is race-clean without locking the REPL.
	live atomic.Pointer[warehouse.Warehouse]

	// fac is non-nil while the auxiliary views live out of core (\store DIR):
	// every view's group rows sit in slotted-page files under the directory,
	// cached through a fixed-budget buffer pool per store.
	fac *pager.Factory

	// adv accumulates this session's query/update log through the warehouse
	// op-log hook; \advise mines it for candidate views. It survives \load
	// and \open — the log describes the workload, not one warehouse instance.
	adv *costmodel.Advisor
}

// hookAdvisor wires the warehouse op log into the session's workload
// advisor, creating the advisor on first use. Re-run after every warehouse
// swap (\load, \open) so the new instance keeps feeding the same log.
func (s *shell) hookAdvisor(w *warehouse.Warehouse) {
	if s.adv == nil {
		s.adv = new(costmodel.Advisor)
	}
	w.SetOpLog(func(ev warehouse.OpEvent) {
		kind := costmodel.EventQuery
		if ev.Kind == "delta" {
			kind = costmodel.EventDelta
		}
		s.adv.Record(costmodel.Event{Kind: kind, View: ev.View, SQL: ev.SQL,
			Tables: ev.Tables, GroupBy: ev.GroupBy, Table: ev.Table, Rows: ev.Rows, Ns: ev.Ns})
	})
}

// closeFactory detaches the out-of-core page stores, if any. The page files
// stay on disk for inspection; they are rebuilt on the next \store.
func (s *shell) closeFactory() {
	if s.fac == nil {
		return
	}
	if err := s.fac.Close(); err != nil {
		s.printf("error closing page stores: %v\n", err)
	}
	s.fac = nil
}

// storeReport prints the auxiliary-store backend of every view: in memory,
// or paged with pool occupancy and hit ratio.
func (s *shell) storeReport() {
	views := s.w.ViewNames()
	if len(views) == 0 {
		s.printf("(no materialized views)\n")
		return
	}
	byView := map[string][]pager.StoreStats{}
	if s.fac != nil {
		for _, st := range s.fac.Stats() {
			byView[st.View] = append(byView[st.View], st)
		}
	}
	for _, v := range views {
		stats := byView[v]
		if len(stats) == 0 {
			s.printf("%s: in memory\n", v)
			continue
		}
		s.printf("%s: out of core\n", v)
		for _, st := range stats {
			s.printf("  %s: %d rows, %d file pages (%d heap + %d index), resident %d/%d, hit ratio %.1f%%, %d evictions, %d flushes\n",
				st.Table, st.Rows, st.FilePages, st.HeapPages, st.IndexPages,
				st.Resident, st.Budget, 100*st.HitRatio(), st.Evictions, st.Flushes)
		}
	}
}

// registry returns the live warehouse's metric registry (for obs.Serve).
func (s *shell) registry() *obs.Registry {
	if w := s.live.Load(); w != nil {
		return w.ObsRegistry()
	}
	return nil
}

func (s *shell) printf(format string, args ...any) {
	fmt.Fprintf(s.out, format, args...)
}

// closeDurable flushes and detaches the durable directory, if any.
func (s *shell) closeDurable() {
	if s.dur == nil {
		return
	}
	if err := s.dur.Close(); err != nil {
		s.printf("error closing durable directory: %v\n", err)
	}
	s.dur = nil
}

// run reads input until EOF or \q.
func (s *shell) run(in io.Reader) {
	defer s.closeFactory()
	defer s.closeDurable()
	s.hookAdvisor(s.w)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if s.prompt {
		s.printf("mindetail warehouse shell — \\help for commands\n")
	}
	for {
		if s.prompt {
			if s.buf.Len() == 0 {
				s.printf("dw> ")
			} else {
				s.printf("..> ")
			}
		}
		if !sc.Scan() {
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if s.buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if quit := s.meta(trimmed); quit {
				return
			}
			continue
		}
		s.buf.WriteString(line)
		s.buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			sql := s.buf.String()
			s.buf.Reset()
			s.exec(sql)
		}
	}
}

func (s *shell) exec(sql string) {
	rel, err := s.w.Exec(sql)
	if err != nil {
		s.printf("error: %v\n", err)
		return
	}
	if rel != nil {
		s.printf("%s", rel.Format())
	} else {
		s.printf("ok\n")
	}
}

// meta executes a backslash command; it reports whether the shell should
// exit.
func (s *shell) meta(cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case `\q`, `\quit`:
		return true
	case `\help`, `\?`:
		s.printf(`commands:
  <sql>;           execute SQL (multi-line until ';')
  \views           list materialized views
  \plan VIEW       show the derivation (join graph, Need sets, auxiliary views)
  \graph VIEW      show the extended join graph in Graphviz DOT
  \report          storage report for all views
  \metrics         observability snapshot (counters, latency histograms, traces)
  \verify          check every view against recomputation
  \advise [BYTES]  mine this session's query/update log for candidate views,
                   ranked by benefit, packed under an optional space budget
  \import TABLE F  bulk-load CSV file F into TABLE (positional columns)
  \export VIEW F   write a view's contents to CSV file F
  \store           per-view auxiliary backend: pool occupancy and hit ratio
  \store DIR [N]   move auxiliary views out of core — slotted-page files
                   under DIR with an N-frame buffer pool per store (default 64)
  \save FILE       snapshot warehouse state (views + auxiliary data)
  \load FILE       replace the session with a restored snapshot
  \open DIR        bind the session to a durable directory (WAL + snapshot);
                   recovers existing state, then write-ahead logs every mutation
  \checkpoint      compact the durable directory (snapshot + trim the log)
  \detach          sever the sources (self-maintainability mode)
  \q               quit
`)
	case `\views`:
		names := s.w.ViewNames()
		if len(names) == 0 {
			s.printf("(no materialized views)\n")
			break
		}
		for _, n := range names {
			s.printf("%s\n", n)
		}
	case `\plan`, `\graph`:
		if len(fields) != 2 {
			s.printf("usage: %s VIEW\n", fields[0])
			break
		}
		mv := s.w.View(fields[1])
		if mv == nil {
			s.printf("error: unknown view %s\n", fields[1])
			break
		}
		if fields[0] == `\plan` {
			s.printf("%s", mv.Plan.Text())
		} else {
			s.printf("%s", mv.Plan.Graph.Dot())
		}
	case `\report`:
		s.printf("%s", warehouse.FormatReport(s.w.Report()))
	case `\metrics`:
		s.printf("%s", s.w.MetricsSnapshot().Format())
	case `\verify`:
		if err := s.w.Verify(); err != nil {
			s.printf("error: %v\n", err)
		} else {
			s.printf("all views match recomputation\n")
		}
	case `\advise`:
		if len(fields) > 2 {
			s.printf("usage: \\advise [BUDGETBYTES]\n")
			break
		}
		budget := 0
		if len(fields) == 2 {
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				s.printf("error: BUDGETBYTES must be a non-negative integer\n")
				break
			}
			budget = n
		}
		var src func(string) *ra.Relation
		if !s.w.Detached() {
			// Candidate footprints are measured by materializing against the
			// sources; detached sessions still get the ranking, sizes unknown.
			w := s.w
			src = func(t string) *ra.Relation { return ra.FromTable(w.Source().Table(t), t) }
		}
		advice, err := s.adv.Advise(s.w.Catalog(), src, budget)
		if err != nil {
			s.printf("error: %v\n", err)
			break
		}
		s.printf("workload: %d view-answered queries, %d ad-hoc queries, %d deltas\n",
			advice.ViewQueries, advice.AdhocQueries, advice.DeltaEvents)
		if len(advice.Candidates) == 0 {
			s.printf("(no ad-hoc query clusters to advise on — run some queries first)\n")
			break
		}
		if budget > 0 {
			s.printf("space budget: %d bytes (picked %d)\n", budget, advice.PickedBytes)
		}
		for _, c := range advice.Candidates {
			status := "skip: " + c.Reason
			if c.Picked {
				status = "PICK"
			}
			s.printf("%s: %d queries, %d deltas, benefit %dns, %d bytes — %s\n",
				c.Name, c.Queries, c.Deltas, c.BenefitNs, c.EstBytes, status)
			if len(c.OmittedAux) > 0 {
				s.printf("  auxiliary views eliminated for: %s\n", strings.Join(c.OmittedAux, ", "))
			}
			if c.Picked {
				s.printf("  CREATE MATERIALIZED VIEW %s AS %s;\n", c.Name, c.SQL)
			}
		}
	case `\detach`:
		s.w.DetachSources()
		s.printf("sources detached; views remain maintainable via deltas\n")
	case `\import`:
		if len(fields) != 3 {
			s.printf("usage: \\import TABLE FILE\n")
			break
		}
		f, err := os.Open(fields[2])
		if err != nil {
			s.printf("error: %v\n", err)
			break
		}
		n, err := s.w.ImportCSV(fields[1], f, false)
		f.Close()
		if err != nil {
			s.printf("error after %d rows: %v\n", n, err)
			break
		}
		s.printf("imported %d rows into %s\n", n, fields[1])
	case `\export`:
		if len(fields) != 3 {
			s.printf("usage: \\export VIEW FILE\n")
			break
		}
		rel, err := s.w.Query(fields[1])
		if err != nil {
			s.printf("error: %v\n", err)
			break
		}
		f, err := os.Create(fields[2])
		if err != nil {
			s.printf("error: %v\n", err)
			break
		}
		err = csvload.Export(rel, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			s.printf("error: %v\n", err)
			break
		}
		s.printf("exported %s to %s\n", fields[1], fields[2])
	case `\store`:
		if len(fields) == 1 {
			s.storeReport()
			break
		}
		if len(fields) > 3 {
			s.printf("usage: \\store [DIR [POOLPAGES]]\n")
			break
		}
		pool := 64
		if len(fields) == 3 {
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 1 {
				s.printf("error: POOLPAGES must be a positive integer\n")
				break
			}
			pool = n
		}
		opts := pager.Options{PoolPages: pool}
		if s.dur != nil {
			// A durable session orders dirty-page writes behind the WAL's
			// flushed LSN; recovery still replays the log into memory and
			// never reads the page files.
			opts.WAL = s.dur.Log()
		}
		fac, err := pager.NewFactory(fields[1], opts)
		if err != nil {
			s.printf("error: %v\n", err)
			break
		}
		if err := s.w.SetAuxStoreFactory(func(view, table string) (maintain.AuxStore, error) {
			return fac.Open(view, table)
		}); err != nil {
			fac.Close()
			s.printf("error: %v\n", err)
			break
		}
		s.closeFactory() // rows migrated; drop the previous backend
		s.fac = fac
		s.printf("auxiliary views out of core under %s (%d-frame pool per store)\n", fields[1], pool)
	case `\save`:
		if len(fields) != 2 {
			s.printf("usage: \\save FILE\n")
			break
		}
		f, err := os.Create(fields[1])
		if err != nil {
			s.printf("error: %v\n", err)
			break
		}
		err = persist.Save(s.w, f, !s.w.Detached())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			s.printf("error: %v\n", err)
			break
		}
		s.printf("saved to %s\n", fields[1])
	case `\load`:
		if len(fields) != 2 {
			s.printf("usage: \\load FILE\n")
			break
		}
		f, err := os.Open(fields[1])
		if err != nil {
			s.printf("error: %v\n", err)
			break
		}
		w, err := persist.Load(f)
		f.Close()
		if err != nil {
			s.printf("error: %v\n", err)
			break
		}
		s.closeDurable()
		s.closeFactory() // the restored warehouse starts with in-memory stores
		s.w = w
		s.live.Store(w)
		s.hookAdvisor(w)
		s.printf("restored from %s (%d views)\n", fields[1], len(w.ViewNames()))
	case `\open`:
		if len(fields) != 2 {
			s.printf("usage: \\open DIR\n")
			break
		}
		d, err := wal.Open(fields[1], wal.Options{})
		if err != nil {
			s.printf("error: %v\n", err)
			break
		}
		s.closeDurable()
		s.closeFactory() // the recovered warehouse starts with in-memory stores
		s.dur = d
		s.w = d.Warehouse()
		s.live.Store(s.w)
		s.hookAdvisor(s.w)
		s.printf("opened durable warehouse %s (%d views, LSN %d", fields[1],
			len(s.w.ViewNames()), s.w.LSN())
		if torn := d.Log().TornBytes(); torn > 0 {
			s.printf(", truncated %d torn tail bytes", torn)
		}
		s.printf(")\n")
	case `\checkpoint`:
		if s.dur == nil {
			s.printf("error: no durable directory open (\\open DIR first)\n")
			break
		}
		before := s.dur.Log().Size()
		if err := s.dur.Checkpoint(); err != nil {
			s.printf("error: %v\n", err)
			break
		}
		s.printf("checkpoint at LSN %d (log %d -> %d bytes)\n",
			s.w.LSN(), before, s.dur.Log().Size())
	default:
		s.printf("unknown command %s (\\help for help)\n", fields[0])
	}
	return false
}
