package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mindetail/internal/core"
	"mindetail/internal/maintain"
	"mindetail/internal/obs"
	"mindetail/internal/persist"
	"mindetail/internal/wal"
	"mindetail/internal/warehouse"
	"mindetail/internal/wire"
)

// Probe sizes: direct timed calls made once the traced measured phase is
// over and the server is idle.
const probeQueries = 64 // direct Warehouse.Query calls per view

// probeResult holds the direct timed calls into single layers.
type probeResult struct {
	applyEncUs, applyDecUs []float64   // per delta of the last segment: frame + body codec
	viewEncUs, viewDecUs   [][]float64 // per view: result frame + body codec, repeated
	queryDirectUs          []float64
	deriveMs, saveS        float64
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// probeLayers times the calls the benchmark can make into a layer
// directly: the frame and body codecs on this run's own payloads,
// Warehouse.Query, persist.Save and core.Derive. (persist.Load and
// wal.Replay are timed by recoverBySteps, on the real files.)
func (r *runner) probeLayers() error {
	spec, st := r.cfg.spec, r.st
	p := &r.probe

	var frame, body []byte
	for _, d := range r.last {
		t := time.Now()
		body = wire.AppendDeltaBody(body[:0], d)
		frame = wire.AppendFrame(frame[:0], wire.Frame{Kind: wire.KindApply, ID: 1, Body: body})
		p.applyEncUs = append(p.applyEncUs, us(time.Since(t)))
		t = time.Now()
		f, _, err := wire.DecodeFrame(frame, 0)
		if err == nil {
			_, err = wire.DecodeDeltaBody(f.Body)
		}
		p.applyDecUs = append(p.applyDecUs, us(time.Since(t)))
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
	}
	p.viewEncUs = make([][]float64, len(spec.views))
	p.viewDecUs = make([][]float64, len(spec.views))
	for i, v := range spec.views {
		for n := 0; n < probeQueries; n++ {
			t := time.Now()
			rel, err := st.w.Query(v.name)
			p.queryDirectUs = append(p.queryDirectUs, us(time.Since(t)))
			if err != nil {
				return err
			}
			t = time.Now()
			body = wire.AppendResultBody(body[:0], rel)
			frame = wire.AppendFrame(frame[:0], wire.Frame{Kind: wire.KindResult, ID: 1, Body: body})
			p.viewEncUs[i] = append(p.viewEncUs[i], us(time.Since(t)))
			t = time.Now()
			f, _, err := wire.DecodeFrame(frame, 0)
			if err == nil {
				_, err = wire.DecodeResultBody(f.Body)
			}
			p.viewDecUs[i] = append(p.viewDecUs[i], us(time.Since(t)))
			if err != nil {
				return fmt.Errorf("codec probe: %w", err)
			}
		}
	}

	t := time.Now()
	for _, v := range spec.views {
		if _, err := core.Derive(r.defs[v.name]); err != nil {
			return err
		}
	}
	p.deriveMs = float64(time.Since(t)) / 1e6

	t = time.Now()
	if err := persist.Save(st.w, io.Discard, false); err != nil {
		return err
	}
	p.saveS = time.Since(t).Seconds()
	return nil
}

// recoverBySteps is recovery taken apart — snapshot load, log decode,
// replay — so wal.replay_s is the replay alone.
func (r *runner) recoverBySteps(dir string, out *durabilityResult, check func(*warehouse.Warehouse) error) error {
	f, err := os.Open(filepath.Join(dir, wal.SnapshotFile))
	if err != nil {
		return err
	}
	t := time.Now()
	w, err := persist.Load(f)
	f.Close()
	if err != nil {
		return err
	}
	out.loadS = time.Since(t).Seconds()
	log, err := wal.OpenLog(filepath.Join(dir, wal.LogFile), wal.SyncCommit)
	if err != nil {
		return err
	}
	defer log.Close()
	recs, err := log.Records()
	if err != nil {
		return err
	}
	t = time.Now()
	if err := wal.Replay(w, recs); err != nil {
		return err
	}
	out.replayS = time.Since(t).Seconds()
	return check(w)
}

// request is one wire round trip as the spans describe it.
type request struct {
	name                       string
	dur                        int64
	walBegin, propagate, walOK int64
}

// requests folds the spans into one record per root request.
func requests(spans []span) []request {
	var out []request
	root := make(map[int]int) // span ID -> index into out
	for _, s := range spans {
		d := s.End - s.Start
		if s.Parent == 0 {
			root[s.ID] = len(out)
			out = append(out, request{name: s.Name, dur: d})
			continue
		}
		i, ok := root[s.Parent]
		if !ok {
			continue // outside any request
		}
		switch s.Name {
		case spanServer:
			root[s.ID] = i
		case spanWALBegin:
			out[i].walBegin += d
		case spanPropagate:
			out[i].propagate += d
		case spanWALCommit:
			out[i].walOK += d
		}
	}
	return out
}

// storeCalls reads one kind of summary span: each delta's mean time per
// call, and the number of calls.
func storeCalls(spans []span, name string) (meanNs []float64, calls float64) {
	for _, s := range spans {
		if s.Name == name {
			meanNs = append(meanNs, float64(s.End-s.Start)/float64(s.Count))
			calls += float64(s.Count)
		}
	}
	return meanNs, calls
}

func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// layerMetrics derives every per-layer metric from the traced segments.
// Counts and byte totals are differences between the marks around each
// traced segment; the registry's time histograms record only while SetObs
// is on, which is exactly those segments.
func (r *runner) layerMetrics(wins []window, oracleTime time.Duration, dur *durabilityResult) {
	tr, p, spec := r.cfg.tr, &r.probe, r.cfg.spec
	applies, units := float64(r.res.applies), float64(r.res.units)
	L := make(map[string]measurement)
	r.res.layer = L
	set := func(name string, v float64, samples int) { L[name] = scalar(v, samples) }
	// sum adds up a cumulative source's growth over the traced segments.
	sum := func(read func(m *mark) float64) (total float64) {
		for i := range wins {
			total += read(&wins[i].b) - read(&wins[i].a)
		}
		return total
	}
	counter := func(name string) float64 {
		return sum(func(m *mark) float64 { return float64(m.reg.Counters[name]) })
	}
	last := wins[len(wins)-1].b
	hist := func(name string) obs.HistogramSnapshot { return last.reg.Histograms[name] }

	reqs := requests(tr.spans)
	var pingRTT []float64
	for i := range reqs {
		if reqs[i].name == spanPing {
			pingRTT = append(pingRTT, float64(reqs[i].dur))
		}
	}

	// wire
	var encUs, decUs []float64
	refreshEnc, refreshDec := 0.0, 0.0
	for i := range spec.views {
		refreshEnc += median(p.viewEncUs[i])
		refreshDec += median(p.viewDecUs[i])
	}
	encUs = append(encUs, p.applyEncUs...)
	decUs = append(decUs, p.applyDecUs...)
	for i := 0; i < len(p.applyEncUs)*spec.refreshesPerCycle/spec.appliesPerCycle; i++ {
		encUs = append(encUs, refreshEnc)
		decUs = append(decUs, refreshDec)
	}
	var wireSelf []float64
	for i := range reqs {
		if q := &reqs[i]; q.name == spanApply {
			wireSelf = append(wireSelf, float64(q.dur-q.walBegin-q.propagate-q.walOK)/1e6)
		}
	}
	set("wire.req_bytes_per_op", ratio(float64(tr.reqBytes), units), int(units))
	set("wire.resp_bytes_per_op", ratio(float64(tr.respBytes), units), int(units))
	set("wire.encode_us_p50", quantile(encUs, 0.5), len(encUs))
	set("wire.decode_us_p50", quantile(decUs, 0.5), len(decUs))
	set("wire.ping_rtt_us_p50", quantile(pingRTT, 0.5)/1e3, len(pingRTT))
	set("wire.self_ms_p50", quantile(wireSelf, 0.5), len(wireSelf))
	set("wire.request_errors", counter("wire.request.errors"), len(reqs))

	// warehouse
	prop := hist("warehouse.propagate.ns")
	hits := counter("warehouse.query.snapshot_hits")
	rebuilds := counter("warehouse.query.snapshot_rebuilds")
	set("warehouse.propagate_ms_p50", float64(prop.P50)/1e6, int(prop.Count))
	set("warehouse.propagate_ms_p95", float64(prop.P95)/1e6, int(prop.Count))
	set("warehouse.batch_size_mean", hist("warehouse.batch.size").Mean, int(hist("warehouse.batch.size").Count))
	set("warehouse.query_direct_us_p50", quantile(p.queryDirectUs, 0.5), len(p.queryDirectUs))
	set("warehouse.snapshot_rebuild_share", ratio(rebuilds, hits+rebuilds), int(hits+rebuilds))
	set("warehouse.query_locked", counter("warehouse.query.locked"), int(hits+rebuilds))
	set("warehouse.snapshots_published_per_delta", ratio(counter("warehouse.snapshots.published"), applies), int(applies))

	// maintain
	app := hist("maintain.apply_ns")
	set("maintain.apply_ms_p50", float64(app.P50)/1e6, int(app.Count))
	set("maintain.apply_ms_p95", float64(app.P95)/1e6, int(app.Count))
	set("maintain.apply_ms_p99", float64(app.P99)/1e6, int(app.Count))
	stageSum := make([]float64, maintain.NumStages)
	stageTotal := 0.0
	for i := range stageSum {
		if i == maintain.StageRollback {
			continue
		}
		stageSum[i] = float64(hist("maintain.stage." + maintain.StageName(i) + "_ns").SumNs)
		stageTotal += stageSum[i]
	}
	for i := range stageSum {
		if i != maintain.StageRollback {
			set("maintain.stage."+maintain.StageName(i)+"_share", ratio(stageSum[i], stageTotal), int(app.Count))
		}
	}
	rec := hist("maintain.stage.scoped_recompute_ns")
	set("maintain.stage.scoped_recompute_ms_p50", float64(rec.P50)/1e6, int(rec.Count))
	memoHits := counter("maintain.memo.hits")
	memoMisses := counter("maintain.memo.misses")
	set("maintain.memo_hit_share", ratio(memoHits, memoHits+memoMisses), int(memoHits+memoMisses))
	set("maintain.rollbacks", counter("maintain.rollbacks"), int(app.Count))

	// wal
	begins := spanDurations(tr.spans, spanWALBegin)
	commits := spanDurations(tr.spans, spanWALCommit)
	fsyncs := sum(func(m *mark) float64 { return float64(m.reg.Histograms["wal.fsync.ns"].Count) })
	batches := sum(func(m *mark) float64 { return float64(m.reg.Histograms["wal.groupcommit.batch"].Count) })
	batched := sum(func(m *mark) float64 { return float64(m.reg.Histograms["wal.groupcommit.batch"].SumNs) })
	set("wal.begin_us_p50", quantile(begins, 0.5)/1e3, len(begins))
	set("wal.commit_us_p50", quantile(commits, 0.5)/1e3, len(commits))
	set("wal.commit_us_p95", quantile(commits, 0.95)/1e3, len(commits))
	set("wal.fsyncs_per_delta", ratio(fsyncs, applies), int(applies))
	set("wal.groupcommit_batch_mean", ratio(batched, batches), int(batches))
	set("wal.bytes_per_delta", ratio(sum(func(m *mark) float64 { return float64(m.walSize) }), applies), int(applies))

	// persist and recovery
	set("persist.save_s", p.saveS, 1)
	set("persist.load_s", dur.loadS, 1)
	set("persist.snapshot_bytes", float64(dur.snapshotBytes), 1)
	set("wal.replay_s", dur.replayS, 1)
	set("wal.acked_lost", float64(dur.ackedLost), 1)

	// pager
	gets, nGets := storeCalls(tr.spans, spanPagerGet)
	puts, nPuts := storeCalls(tr.spans, spanPagerPut)
	pHits := sum(func(m *mark) float64 { return float64(m.pager.Hits) })
	pMisses := sum(func(m *mark) float64 { return float64(m.pager.Misses) })
	set("pager.get_us_p50", quantile(gets, 0.5)/1e3, len(gets))
	set("pager.put_us_p50", quantile(puts, 0.5)/1e3, len(puts))
	set("pager.gets_per_delta", ratio(nGets, applies), int(applies))
	set("pager.puts_per_delta", ratio(nPuts, applies), int(applies))
	set("pager.hit_share", ratio(pHits, pHits+pMisses), int(pHits+pMisses))
	set("pager.evictions_per_delta", ratio(sum(func(m *mark) float64 { return float64(m.pager.Evictions) }), applies), int(applies))
	set("pager.flushes_per_delta", ratio(sum(func(m *mark) float64 { return float64(m.pager.Flushes) }), applies), int(applies))
	set("pager.spill_ratio", ratio(float64(last.pager.FilePages), float64(last.pager.Budget)), 1)

	// core, baseline, runtime
	mallocs := sum(func(m *mark) float64 { return float64(m.mem.Mallocs) })
	gcCycles := sum(func(m *mark) float64 { return float64(m.mem.NumGC) })
	set("core.derive_ms", p.deriveMs, len(spec.views))
	set("core.aux_rows_per_detail_row", ratio(float64(r.auxRows), float64(r.detailRows)), 1)
	set("baseline.recompute_ms", float64(oracleTime)/1e6, len(spec.views))
	set("runtime.allocs_per_op", ratio(mallocs, units), int(units))
	set("runtime.gc_cycles", gcCycles, 1)
	set("runtime.gc_pause_ms_total", sum(func(m *mark) float64 { return float64(m.mem.PauseTotalNs) })/1e6, int(gcCycles))

	// trace: where the request time went, by span name (self time is a
	// span's duration minus what its children cover). A request's own self
	// time is what no seam accounts for.
	type total struct {
		n    int
		self int64
	}
	byName := make(map[string]*total)
	var names []string
	requestTime, uncovered := int64(0), int64(0)
	for i, self := range selfTimes(tr.spans) {
		s := &tr.spans[i]
		if byName[s.Name] == nil {
			byName[s.Name] = &total{}
			names = append(names, s.Name)
		}
		byName[s.Name].n++
		byName[s.Name].self += self
		if s.Parent == 0 {
			requestTime += s.End - s.Start
			uncovered += self
		}
	}
	sort.Strings(names)
	for _, n := range names {
		r.res.notes = append(r.res.notes, fmt.Sprintf("self time %-20s n=%-8d %10.3f ms  %5.1f%% of request time",
			n, byName[n].n, float64(byName[n].self)/1e6, 100*ratio(float64(byName[n].self), float64(requestTime))))
	}
	set("trace.overhead_share", 1-ratio(r.res.e2e["ops_per_s"].value, r.res.refOpsPerS), int(units))
	set("trace.unexplained_share", ratio(float64(uncovered), float64(requestTime)), len(reqs))
	for _, name := range []string{"trace.overhead_share", "trace.unexplained_share"} {
		if v := L[name].value; v > traceShareLimit {
			r.res.notes = append(r.res.notes, fmt.Sprintf("WARNING: %s is %.3f, over %.2f", name, v, traceShareLimit))
		}
	}
}

// traceShareLimit is the most the trace may cost, and the most request time
// it may leave unattributed, before the traced run says so.
const traceShareLimit = 0.10
