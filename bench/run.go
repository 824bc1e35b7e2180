package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mindetail/internal/gpsj"
	"mindetail/internal/maintain"
	"mindetail/internal/obs"
	"mindetail/internal/pager"
	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/wal"
	"mindetail/internal/warehouse"
	"mindetail/internal/wire"
)

// checkpoint_s and recover_s are medians over this many repetitions:
// batches of Checkpoint calls on the idle warehouse, and reopenings of the
// directory closed without a checkpoint.
const (
	checkpointReps = 5
	recoveryReps   = 3
)

type runConfig struct {
	spec      *workloadSpec
	seed      int64
	seconds   float64
	setupReps int
	workDir   string
	// tr, when set, makes this the traced pass: seam decorators installed,
	// Warehouse.SetObs(true), per-layer metrics computed.
	tr *tracer
}

// runResult is everything one pass measured.
type runResult struct {
	attempted, failed int
	applies, units    int // measured segments only
	e2e               map[string]measurement
	layer             map[string]measurement
	// refOpsPerS is the throughput of the traced pass's untraced halves.
	refOpsPerS float64
	notes      []string
}

// segment is one measured slice of the closed loop.
type segment struct {
	applyNs, refreshNs []int64
	wall               time.Duration
	deltaBytes         int
}

func (s *segment) units() int { return len(s.applyNs) + len(s.refreshNs) }

// mark is the state of every cumulative source at a segment boundary, so
// counts and byte totals can be taken over the measured segments only.
type mark struct {
	reg     obs.Snapshot
	walSize int64
	pager   pager.StoreStats
	mem     runtime.MemStats
}

// window is one measured segment with the marks on both sides of it.
type window struct {
	segment
	a, b mark
}

type runner struct {
	cfg  runConfig
	g    *generator
	st   *stack
	defs map[string]*gpsj.View
	res  *runResult
	// auxiliary-view and replica rows at the end of the measured phase
	auxRows, detailRows int
	enc                 []byte
	last                []maintain.Delta // traced pass: the final segment's deltas, for the codec probe
	probe               probeResult
}

func run(cfg runConfig) (*runResult, error) {
	g, err := newGenerator(cfg.spec.params, cfg.seed)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, g: g, res: &runResult{e2e: map[string]measurement{}}}
	defer func() {
		if r.st != nil {
			r.st.close()
		}
	}()
	if err := r.setUp(); err != nil {
		return nil, err
	}
	wins, err := r.measure()
	if err != nil {
		return nil, err
	}
	g.settle()
	r.summarize(wins)
	results, err := r.queryAll()
	if err != nil {
		return nil, err
	}
	want, oracleTime, err := r.oracle()
	if err != nil {
		return nil, err
	}
	for _, v := range cfg.spec.views {
		got := &ra.Relation{Cols: want[v.name].Cols, Rows: results[v.name]}
		if !ra.EqualBag(got, want[v.name]) {
			r.mismatch("view %s differs from the from-scratch recomputation after the measured phase", v.name)
		}
	}
	if err := r.checkSpill(); err != nil {
		return nil, err
	}
	if cfg.tr != nil {
		if err := r.probeLayers(); err != nil {
			return nil, err
		}
	}
	dur, err := r.durabilityPhases()
	if err != nil {
		return nil, err
	}
	if cfg.tr != nil {
		r.layerMetrics(wins, oracleTime, dur)
	}
	if r.res.failed > 0 {
		r.res.failed = r.res.attempted // a wrong answer voids the run
	}
	r.res.e2e["failed_share"] = scalar(ratio(float64(r.res.failed), float64(r.res.attempted)), r.res.attempted)
	return r.res, nil
}

func (r *runner) mismatch(format string, args ...any) {
	r.res.failed++
	r.res.notes = append(r.res.notes, "MISMATCH: "+fmt.Sprintf(format, args...))
}

// setUp builds the stack setupReps times in fresh directories, keeps the
// last, and reports the median build time.
func (r *runner) setUp() error {
	img, err := r.g.loadImage()
	if err != nil {
		return err
	}
	var times []float64
	for i := 0; i < r.cfg.setupReps; i++ {
		if r.st != nil {
			r.st.close()
			os.RemoveAll(r.st.dir)
			r.st = nil
		}
		runtime.GC()
		st, dt, err := buildStack(r.cfg.spec, img, filepath.Join(r.cfg.workDir, fmt.Sprintf("warehouse-%d", i)), r.cfg.tr)
		if err != nil {
			return err
		}
		r.st = st
		times = append(times, dt.Seconds())
	}
	r.res.e2e["setup_s"] = ofParts(times, len(times))
	r.defs = make(map[string]*gpsj.View)
	for _, v := range r.cfg.spec.views {
		r.defs[v.name] = r.st.w.View(v.name).Def
	}
	return nil
}

func (r *runner) takeMark() mark {
	m := mark{reg: r.st.w.MetricsSnapshot(), walSize: r.st.d.Log().Size()}
	m.pager, _ = r.factStore()
	runtime.ReadMemStats(&m.mem)
	return m
}

// factStore returns the paged fact store's statistics.
func (r *runner) factStore() (pager.StoreStats, bool) {
	if r.st.fac == nil {
		return pager.StoreStats{}, false
	}
	for _, st := range r.st.fac.Stats() {
		if st.Table == "sale" {
			return st, true
		}
	}
	return pager.StoreStats{}, false
}

// measure runs one discarded warm-up segment and then the measured
// segments. Each segment's deltas are cut from the replica just before it
// runs, outside the timed loop, and a collection is forced at every segment
// boundary so each segment starts from the same collector state.
//
// The traced pass splits every measured segment in two, the first half run
// with the decorators switched off and the second with them on, and
// returns the traced halves: tracing overhead is then a comparison of
// neighbours in time, not of two runs minutes apart.
func (r *runner) measure() ([]window, error) {
	spec, tr := r.cfg.spec, r.cfg.tr
	cycles := spec.cycles(r.cfg.seconds)
	halves := 1
	if tr != nil {
		halves, cycles = 2, (cycles+1)/2
	}
	var wins []window
	var ref []float64
	for i := 0; i < (1+measuredSegments)*halves; i++ {
		warmUp, traced := i < halves, tr != nil && i%2 == 1
		ops := make([]maintain.Delta, cycles*spec.appliesPerCycle)
		deltaBytes := 0
		for k := range ops {
			ops[k] = spec.next(r.g)
			r.enc = wire.AppendDeltaBody(r.enc[:0], ops[k])
			deltaBytes += len(r.enc)
		}
		if tr != nil {
			tr.on.Store(traced && !warmUp)
			r.st.w.SetObs(traced && !warmUp)
			r.last = ops
		}
		runtime.GC()
		win := window{a: r.takeMark()}
		var err error
		if win.segment, err = r.runSegment(ops, cycles); err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		win.b = r.takeMark()
		win.deltaBytes = deltaBytes
		switch {
		case warmUp:
		case tr == nil || traced:
			wins = append(wins, win)
		default:
			ref = append(ref, float64(win.units())/win.wall.Seconds())
		}
	}
	if tr != nil {
		tr.on.Store(false)
	}
	r.res.refOpsPerS = median(ref)
	return wins, nil
}

func (r *runner) runSegment(ops []maintain.Delta, cycles int) (segment, error) {
	spec, cli, tr := r.cfg.spec, r.st.cli, r.cfg.tr
	seg := segment{
		applyNs:   make([]int64, 0, len(ops)),
		refreshNs: make([]int64, 0, cycles*spec.refreshesPerCycle),
	}
	// request times one wire round trip as a root span. The spans are the
	// traced pass's; begin and end do nothing while the tracer is off.
	request := func(name string, call func() error) error {
		id := tr.begin(name)
		err := call()
		tr.endRequest(id)
		r.res.attempted++
		return err
	}
	start := time.Now()
	k := 0
	for c := 0; c < cycles; c++ {
		for a := 0; a < spec.appliesPerCycle; a++ {
			t := time.Now()
			err := request(spanApply, func() error { return cli.ApplyDelta(ops[k]) })
			seg.applyNs = append(seg.applyNs, int64(time.Since(t)))
			if err != nil {
				return seg, fmt.Errorf("apply %d: %w", k, err)
			}
			k++
		}
		for f := 0; f < spec.refreshesPerCycle; f++ {
			t := time.Now()
			for _, v := range spec.views {
				err := request(spanQuery, func() error { _, err := cli.Query(v.name); return err })
				if err != nil {
					return seg, fmt.Errorf("query %s: %w", v.name, err)
				}
			}
			seg.refreshNs = append(seg.refreshNs, int64(time.Since(t)))
		}
		if tr != nil {
			// One PING per cycle, in both halves: the cost of a request that
			// carries nothing and does nothing, under this workload's own
			// wake-up conditions.
			if err := request(spanPing, cli.Ping); err != nil {
				return seg, fmt.Errorf("ping: %w", err)
			}
		}
	}
	seg.wall = time.Since(start)
	return seg, nil
}

// summarize turns the measured segments into the end-to-end metrics that
// do not need the oracle or the durability phases.
func (r *runner) summarize(wins []window) {
	var ops, a50, a95, f50, f95, alloc []float64
	deltaBytes, walBytes := 0, int64(0)
	for i := range wins {
		s := &wins[i]
		walBytes += s.b.walSize - s.a.walSize
		r.res.applies += len(s.applyNs)
		r.res.units += s.units()
		deltaBytes += s.deltaBytes
		ops = append(ops, float64(s.units())/s.wall.Seconds())
		a50 = append(a50, quantile(nsToFloat(s.applyNs), 0.50)/1e6)
		a95 = append(a95, quantile(nsToFloat(s.applyNs), 0.95)/1e6)
		f50 = append(f50, quantile(nsToFloat(s.refreshNs), 0.50)/1e6)
		f95 = append(f95, quantile(nsToFloat(s.refreshNs), 0.95)/1e6)
		alloc = append(alloc, float64(s.b.mem.TotalAlloc-s.a.mem.TotalAlloc)/float64(s.units())/1024)
	}
	applies, refreshes := r.res.applies, r.res.units-r.res.applies
	e := r.res.e2e
	e["ops_per_s"] = ofParts(ops, r.res.units)
	e["apply_p50_ms"] = ofParts(a50, applies)
	e["apply_p95_ms"] = ofParts(a95, applies)
	e["refresh_p50_ms"] = ofParts(f50, refreshes)
	e["refresh_p95_ms"] = ofParts(f95, refreshes)
	e["alloc_kb_per_op"] = ofParts(alloc, r.res.units)

	e["wal_bytes_per_delta_byte"] = scalar(ratio(float64(walBytes), float64(deltaBytes)), applies)

	aux := 0
	for _, rep := range r.st.w.Report() {
		aux += rep.AuxBytes
		r.auxRows += rep.AuxRows
	}
	r.detailRows = r.g.rowCount()
	e["aux_bytes_per_detail_byte"] = scalar(ratio(float64(aux), float64(r.g.bytes())), 1)
	r.res.notes = append(r.res.notes, fmt.Sprintf("replica %d rows (%d facts), %d bytes; auxiliary views %d bytes",
		r.detailRows, len(r.g.live), r.g.bytes(), aux))
	if st, ok := r.factStore(); ok {
		r.res.notes = append(r.res.notes, fmt.Sprintf("paged fact store %d pages of %d bytes against a pool of %d pages (%.1fx)",
			st.FilePages, r.cfg.spec.paged.pageSize, st.Budget, ratio(float64(st.FilePages), float64(st.Budget))))
	}
}

// queryAll reads every view once over the wire, untimed: the program's
// output that the oracle judges.
func (r *runner) queryAll() (map[string][]tuple.Tuple, error) {
	out := make(map[string][]tuple.Tuple)
	for _, v := range r.cfg.spec.views {
		r.res.attempted++
		rs, err := r.st.cli.Query(v.name)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", v.name, err)
		}
		out[v.name] = rs.Rows
	}
	return out, nil
}

// oracle recomputes every view from scratch over the generator's replica —
// Theorem 1 as the test: with sources detached, each maintained view must
// equal this.
func (r *runner) oracle() (map[string]*ra.Relation, time.Duration, error) {
	start := time.Now()
	out := make(map[string]*ra.Relation)
	for _, v := range r.cfg.spec.views {
		plan, err := r.defs[v.name].Plan(r.g.relation)
		if err != nil {
			return nil, 0, fmt.Errorf("oracle %s: %w", v.name, err)
		}
		rel, err := plan.Eval()
		if err != nil {
			return nil, 0, fmt.Errorf("oracle %s: %w", v.name, err)
		}
		out[v.name] = rel
	}
	return out, time.Since(start), nil
}

// checkSpill fails the run when the paged fact store is not far enough out
// of core to measure anything.
func (r *runner) checkSpill() error {
	p := r.cfg.spec.paged
	if p == nil {
		return nil
	}
	st, ok := r.factStore()
	if !ok {
		return fmt.Errorf("%s: no paged store for the sale detail", r.cfg.spec.name)
	}
	if spill := ratio(float64(st.FilePages), float64(st.Budget)); spill < p.minSpill {
		return fmt.Errorf("%s: fact store spans %d pages against a %d-page pool (%.1fx); at least %.0fx required",
			r.cfg.spec.name, st.FilePages, st.Budget, spill, p.minSpill)
	}
	return nil
}

// durabilityResult carries what the per-layer pass reads from the
// durability phases.
type durabilityResult struct {
	snapshotBytes int64
	ackedLost     int
	loadS         float64 // traced pass only: recovery decomposed
	replayS       float64
}

// liveHeap is HeapAlloc once two forced collections have run (the second
// frees what finalizers and pools released in the first).
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// durabilityPhases times Checkpoint, applies the untimed tail, closes
// without a checkpoint and times recovery, checking each recovered
// warehouse against the oracle at the acknowledged prefix. In between it
// weighs the system: the live heap just before the stack is closed minus
// the live heap just after, which leaves the generator's replica out.
func (r *runner) durabilityPhases() (*durabilityResult, error) {
	spec, st := r.cfg.spec, r.st
	out := &durabilityResult{}
	var ckpt []float64
	for i := 0; i < checkpointReps; i++ {
		t := time.Now()
		for k := 0; k < spec.checkpointBatch; k++ {
			if err := st.d.Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
		ckpt = append(ckpt, time.Since(t).Seconds()/float64(spec.checkpointBatch))
	}
	r.res.e2e["checkpoint_s"] = ofParts(ckpt, checkpointReps*spec.checkpointBatch)
	fi, err := os.Stat(filepath.Join(st.dir, wal.SnapshotFile))
	if err != nil {
		return nil, err
	}
	out.snapshotBytes = fi.Size()
	r.res.e2e["snapshot_bytes_per_detail_byte"] = scalar(ratio(float64(fi.Size()), float64(r.g.bytes())), 1)

	for i := 0; i < spec.tailDeltas; i++ {
		r.res.attempted++
		if err := st.cli.ApplyDelta(spec.next(r.g)); err != nil {
			return nil, fmt.Errorf("tail delta %d: %w", i, err)
		}
	}
	acked := st.w.LSN()
	r.g.settle()
	want, _, err := r.oracle()
	if err != nil {
		return nil, err
	}
	// Close without a checkpoint: recovery has the snapshot plus the tail.
	live := liveHeap()
	dir := st.dir
	if err := st.close(); err != nil {
		return nil, err
	}
	r.st, st = nil, nil
	r.res.e2e["heap_live_mb"] = scalar((live-liveHeap())/(1<<20), 1)

	check := func(w *warehouse.Warehouse) error {
		if lsn := w.LSN(); lsn < acked {
			out.ackedLost += int(acked - lsn)
			r.mismatch("recovery reached LSN %d, %d was acknowledged", lsn, acked)
		}
		for _, v := range spec.views {
			got, err := w.Query(v.name)
			if err != nil {
				return err
			}
			if !ra.EqualBag(got, want[v.name]) {
				r.mismatch("recovered view %s differs from the from-scratch recomputation", v.name)
			}
		}
		return nil
	}
	var rec []float64
	for i := 0; i < recoveryReps; i++ {
		runtime.GC()
		t := time.Now()
		d, err := wal.Open(dir, wal.Options{Sync: wal.SyncCommit})
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		rec = append(rec, time.Since(t).Seconds())
		err = check(d.Warehouse())
		d.Close()
		if err != nil {
			return nil, err
		}
	}
	r.res.e2e["recover_s"] = ofParts(rec, len(rec))
	if r.cfg.tr != nil {
		if err := r.recoverBySteps(dir, out, check); err != nil {
			return nil, err
		}
	}
	return out, nil
}
