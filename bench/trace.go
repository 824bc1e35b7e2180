package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mindetail/internal/maintain"
	"mindetail/internal/pager"
	"mindetail/internal/tuple"
	"mindetail/internal/wal"
	"mindetail/internal/warehouse"
)

// Span names. A request span is opened by the client loop around one wire
// round trip; everything the decorators open while it is in flight nests
// under it (the loop is closed and has one client, so at most one request
// is ever in flight).
const (
	spanApply     = "request.apply"
	spanQuery     = "request.query"
	spanPing      = "request.ping"
	spanSend      = "wire.client_send"    // request start -> request frame fully read by the server
	spanServer    = "wire.server"         // request frame fully read -> response written
	spanRecv      = "wire.client_recv"    // response written -> result decoded by the client
	spanWALBegin  = "wal.begin"           // ChangeLog.BeginDelta
	spanPropagate = "warehouse.propagate" // BeginDelta returned -> commit called
	spanWALCommit = "wal.commit"          // BatchCommitter.CommitBatch / Commit (append + fsync)
	spanPagerGet  = "pager.get"
	spanPagerPut  = "pager.put"
	spanPagerDel  = "pager.delete"
	spanPagerScan = "pager.scan"
	spanWALFlush  = "wal.ensure_flushed" // pager write-back waiting on the log
)

// Store calls are summed, not recorded one by one: a call takes half a
// microsecond and a delta makes hundreds, so a span each would cost what it
// measures. Each request carries one summary span per kind of call.
const (
	opGet = iota
	opPut
	opDelete
	opScan
	opWALFlush
	numStoreOps
)

var storeSpans = [numStoreOps]string{spanPagerGet, spanPagerPut, spanPagerDel, spanPagerScan, spanWALFlush}

// opTotal sums the calls of one kind made since the last flush. Calls come
// from several staging goroutines, hence the atomics.
type opTotal struct{ first, busy, n atomic.Int64 }

// span is one timed interval; Start and End are nanoseconds since the
// tracer was created, Parent is the ID of the span that caused it (0 for a
// root). A summary span (Count > 0) stands for Count store calls: it starts
// with the first and is as long as all of them together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. Decorators run on the
// server's goroutines, the request spans on the client's, so every method
// locks. A nil tracer (the untraced run) and one switched off (the traced
// pass's reference segments) record nothing.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes into spans
	// server is the ID of the last wire.server span opened.
	server int
	store  [numStoreOps]opTotal
	// Bytes the server read from and wrote to client connections.
	reqBytes, respBytes int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens a span under the innermost open span and returns its ID, or
// 0 when nothing is being recorded.
func (t *tracer) begin(name string) int {
	if !t.enabled() {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginLocked(name, now)
}

func (t *tracer) beginLocked(name string, now int64) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	t.open = append(t.open, id-1)
	return id
}

// end closes span id and anything still open above it.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.endLocked(id, now)
}

func (t *tracer) endLocked(id int, now int64) {
	at := -1
	for n, i := range t.open {
		if t.spans[i].ID == id {
			at = n
		}
	}
	if at < 0 {
		return // already closed along with its parent
	}
	for _, i := range t.open[at:] {
		t.spans[i].End = now
	}
	t.open = t.open[:at]
}

// endRequest closes a request span and tiles the part of it outside the
// server span with the two client-side spans: wireclient has no seam of its
// own, but where its work starts and ends is known from both sides.
func (t *tracer) endRequest(id int) {
	if id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushStoreLocked()
	t.endLocked(id, now)
	root := t.spans[id-1]
	if t.server == 0 || t.spans[t.server-1].Parent != id {
		return
	}
	srv := t.spans[t.server-1]
	t.spans = append(t.spans,
		span{ID: len(t.spans) + 1, Parent: id, Name: spanSend, Start: root.Start, End: srv.Start},
		span{ID: len(t.spans) + 2, Parent: id, Name: spanRecv, Start: srv.End, End: root.End})
}

// storeStart and storeEnd bracket one store call; -1 means not recording.
func (t *tracer) storeStart() int64 {
	if !t.enabled() {
		return -1
	}
	return t.now()
}

func (t *tracer) storeEnd(op int, start int64) {
	if start < 0 {
		return
	}
	o := &t.store[op]
	o.busy.Add(t.now() - start)
	o.n.Add(1)
	o.first.CompareAndSwap(0, start)
}

// flushStore turns the running totals into summary spans under the
// innermost open span. The caller knows no store call is in flight.
func (t *tracer) flushStore() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushStoreLocked()
}

func (t *tracer) flushStoreLocked() {
	end := int64(0) // summary spans of one flush do not overlap
	for op := range t.store {
		o := &t.store[op]
		n, busy, first := o.n.Swap(0), o.busy.Swap(0), o.first.Swap(0)
		if n == 0 || len(t.open) == 0 {
			continue
		}
		parent := t.spans[t.open[len(t.open)-1]].ID
		start := max(first, end)
		end = start + busy
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: storeSpans[op], Start: start, End: end, Count: n})
	}
}

// topIs reports whether the innermost open span has the given name.
func (t *tracer) topIs(name string) (int, bool) {
	if n := len(t.open); n > 0 && t.spans[t.open[n-1]].Name == name {
		return t.open[n-1], true
	}
	return 0, false
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span index, the span's duration minus the part of
// that interval its children cover. Children are clipped to the parent and
// may overlap one another (a view engine recomputes groups on several
// goroutines, so store operations run side by side); covered time counts
// once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans)) // parent index -> child indexes
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent-1] = append(children[s.Parent-1], i)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		self[i] = p.End - p.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := p.Start // everything before this instant is accounted for
		for _, k := range kids {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, p.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// ---- wire seam: the listener handed to wire.Serve -------------------------

type tracedListener struct {
	net.Listener
	t *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t}, nil
}

// tracedConn turns the server side of a connection into wire.server spans:
// the span starts when the last Read of a request frame returns and ends
// when the response's Write returns.
type tracedConn struct {
	net.Conn
	t *tracer
	// server is the span the last Read opened; guarded by t.mu.
	server int
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	t := c.t
	if !t.enabled() {
		return n, err
	}
	now := t.now()
	t.mu.Lock()
	t.reqBytes += int64(n)
	if i, ok := t.topIs(spanServer); ok {
		t.spans[i].Start = now // a later chunk of the same frame
	} else if len(t.open) == 1 {
		c.server = t.beginLocked(spanServer, now)
		t.server = c.server
	}
	t.mu.Unlock()
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	t := c.t
	if !t.enabled() {
		return c.Conn.Write(b)
	}
	// The span to close is read before the write: once the response is on
	// the wire the client may send its next request, and that request's
	// Read can run before this goroutine gets back from the system call.
	t.mu.Lock()
	server := c.server
	t.mu.Unlock()
	n, err := c.Conn.Write(b)
	now := t.now()
	t.mu.Lock()
	t.respBytes += int64(n)
	t.endLocked(server, now)
	t.mu.Unlock()
	return n, err
}

// ---- WAL seam: warehouse.ChangeLog + BatchCommitter around *wal.Log -------

type tracedLog struct {
	log *wal.Log
	t   *tracer
	// propagate is the open warehouse.propagate span: with batches of one,
	// everything between BeginDelta returning and the commit call is the
	// warehouse fanning the delta out to its view engines.
	propagate int
}

var (
	_ warehouse.ChangeLog      = (*tracedLog)(nil)
	_ warehouse.BatchCommitter = (*tracedLog)(nil)
	_ pager.WALHook            = (*tracedLog)(nil)
)

func (l *tracedLog) closePropagate() {
	if l.propagate != 0 {
		l.t.flushStore()
	}
	l.t.end(l.propagate)
	l.propagate = 0
}

func (l *tracedLog) BeginDelta(d maintain.Delta, srcApplied bool) (uint64, error) {
	l.closePropagate()
	id := l.t.begin(spanWALBegin)
	lsn, err := l.log.BeginDelta(d, srcApplied)
	l.t.end(id)
	if err == nil {
		l.propagate = l.t.begin(spanPropagate)
	}
	return lsn, err
}

func (l *tracedLog) BeginDDL(sql string) (uint64, error) { return l.log.BeginDDL(sql) }

func (l *tracedLog) Commit(lsn uint64) error {
	l.closePropagate()
	id := l.t.begin(spanWALCommit)
	err := l.log.Commit(lsn)
	l.t.end(id)
	return err
}

func (l *tracedLog) CommitBatch(lsns []uint64) error {
	l.closePropagate()
	id := l.t.begin(spanWALCommit)
	err := l.log.CommitBatch(lsns)
	l.t.end(id)
	return err
}

func (l *tracedLog) Abort(lsn uint64) error {
	l.closePropagate()
	return l.log.Abort(lsn)
}

func (l *tracedLog) LastLSN() uint64 { return l.log.LastLSN() }

func (l *tracedLog) EnsureFlushed(lsn uint64) error {
	start := l.t.storeStart()
	err := l.log.EnsureFlushed(lsn)
	l.t.storeEnd(opWALFlush, start)
	return err
}

// ---- pager seam: maintain.AuxStore around each pager.Store ----------------

type tracedStore struct {
	maintain.AuxStore
	t *tracer
}

func (s tracedStore) Get(key []byte) (tuple.Tuple, bool, error) {
	start := s.t.storeStart()
	row, ok, err := s.AuxStore.Get(key)
	s.t.storeEnd(opGet, start)
	return row, ok, err
}

func (s tracedStore) GetString(key string) (tuple.Tuple, bool, error) {
	start := s.t.storeStart()
	row, ok, err := s.AuxStore.GetString(key)
	s.t.storeEnd(opGet, start)
	return row, ok, err
}

func (s tracedStore) Put(key []byte, row tuple.Tuple) error {
	start := s.t.storeStart()
	err := s.AuxStore.Put(key, row)
	s.t.storeEnd(opPut, start)
	return err
}

func (s tracedStore) PutString(key string, row tuple.Tuple) error {
	start := s.t.storeStart()
	err := s.AuxStore.PutString(key, row)
	s.t.storeEnd(opPut, start)
	return err
}

func (s tracedStore) DeleteString(key string) error {
	start := s.t.storeStart()
	err := s.AuxStore.DeleteString(key)
	s.t.storeEnd(opDelete, start)
	return err
}

func (s tracedStore) Scan(fn func(key string, row tuple.Tuple) error) error {
	start := s.t.storeStart()
	err := s.AuxStore.Scan(fn)
	s.t.storeEnd(opScan, start)
	return err
}
