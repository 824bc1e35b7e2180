package wire

import (
	"crypto/subtle"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mindetail/internal/obs"
	"mindetail/internal/warehouse"
)

// Server defaults; all overridable through Config.
const (
	DefaultMaxConns         = 1024
	DefaultMaxInFlight      = 32
	DefaultHandshakeTimeout = 5 * time.Second
)

// Config tunes a Server.
type Config struct {
	// Secret is the shared secret clients must present in the Hello
	// handshake. Empty means no authentication.
	Secret string
	// MaxConns caps concurrent sessions (admission control); further
	// connections are answered with an error frame and closed. <=0 selects
	// DefaultMaxConns.
	MaxConns int
	// MaxInFlight caps concurrently executing requests per session. When a
	// client pipelines past the cap, the session stops reading its socket —
	// TCP backpressure, not an error. <=0 selects DefaultMaxInFlight.
	MaxInFlight int
	// MaxFrame bounds a single request frame. <=0 selects DefaultMaxFrame.
	MaxFrame int
	// HandshakeTimeout bounds the magic+Hello exchange. <=0 selects
	// DefaultHandshakeTimeout.
	HandshakeTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = DefaultMaxConns
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = DefaultHandshakeTimeout
	}
	return c
}

// bodyPool recycles response body buffers. A handler encodes its response
// into one; the session writer puts it back once the frame is written, so a
// steady stream of results reuses grown buffers instead of regrowing one
// per response.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// response is a handler's answer and the pooled buffer its body came from.
type response struct {
	f   Frame
	buf *[]byte
}

// Server is a concurrent TCP front end over one Warehouse. Reads (QUERY,
// all-SELECT EXEC scripts) ride the warehouse's lock-free snapshot /
// shared-lock paths and overlap freely; single-delta APPLY requests call
// Warehouse.ApplyDelta on their handler goroutine, whose group commit
// batches concurrent applies from all sessions so WAL fsyncs amortize
// across connections; batch APPLY uses ApplyDeltaBatch directly.
type Server struct {
	w   *warehouse.Warehouse
	cfg Config
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup // accept loop + sessions

	connsAccepted *obs.Counter
	connsRejected *obs.Counter
	connsActive   *obs.Gauge
	authFailures  *obs.Counter
	requests      *obs.Counter
	requestErrs   *obs.Counter
	requestNs     *obs.Histogram
}

// Listen starts a server on a fresh TCP listener at addr ("host:port";
// ":0" picks a free port, readable via Addr).
func Listen(w *warehouse.Warehouse, addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(w, ln, cfg), nil
}

// Serve starts a server on an existing listener. The server owns the
// listener; Close releases it.
func Serve(w *warehouse.Warehouse, ln net.Listener, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := w.ObsRegistry()
	s := &Server{
		w:     w,
		cfg:   cfg,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),

		connsAccepted: reg.Counter("wire.conns.accepted"),
		connsRejected: reg.Counter("wire.conns.rejected"),
		connsActive:   reg.Gauge("wire.conns.active"),
		authFailures:  reg.Counter("wire.auth.failures"),
		requests:      reg.Counter("wire.requests"),
		requestErrs:   reg.Counter("wire.request.errors"),
		requestNs:     reg.Histogram("wire.request.ns"),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, severs every session's connection, waits for all
// session goroutines to drain (in-flight requests, applies included, run
// to completion and have their responses consumed — never abandoned).
// Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	if already {
		err = nil
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.connsRejected.Inc()
			// Answer with an error frame (best effort, bounded) so the
			// client's handshake fails with a reason instead of an EOF.
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				_ = conn.SetDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
				_, _ = WriteFrame(conn, nil, Frame{Kind: KindError, ID: 0,
					Body: AppendStringBody(nil, "wire: server at connection capacity")})
				// Hold the connection open (discarding the client's handshake
				// bytes) until the client closes or the deadline passes —
				// closing immediately can RST the error frame away before the
				// client reads it.
				_, _ = io.Copy(io.Discard, conn)
			}()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connsAccepted.Inc()
		s.connsActive.Add(1)
		s.wg.Add(1)
		go s.session(conn)
	}
}

// session owns one authenticated connection: a reader that admits at most
// MaxInFlight concurrent handlers (backpressure = it simply stops reading)
// and a writer that serializes response frames. On disconnect — graceful
// or torn — every in-flight handler still runs to completion and has its
// response consumed, so a dead client can neither leak a goroutine nor
// abandon a group-committed apply.
func (s *Server) session(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.connsActive.Add(-1)
	}()

	if err := s.handshake(conn); err != nil {
		return
	}

	writeCh := make(chan response, s.cfg.MaxInFlight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var buf []byte
		var err error
		broken := false
		for r := range writeCh {
			// Keep draining after a write error so handlers never block.
			if !broken {
				if buf, err = WriteFrame(conn, buf, r.f); err != nil {
					broken = true
				}
			}
			// The body is dead once written; keep whichever buffer grew.
			if cap(r.f.Body) > cap(*r.buf) {
				*r.buf = r.f.Body
			}
			*r.buf = (*r.buf)[:0]
			bodyPool.Put(r.buf)
		}
	}()

	sem := make(chan struct{}, s.cfg.MaxInFlight)
	var handlers sync.WaitGroup
	var rbuf []byte
	for {
		var req Frame
		var err error
		req, rbuf, err = ReadFrame(conn, rbuf, s.cfg.MaxFrame)
		if err != nil {
			break // disconnect or protocol error: drain and exit
		}
		// The frame body aliases the session read buffer; copy it so the
		// handler survives the next ReadFrame overwriting it.
		req.Body = append([]byte(nil), req.Body...)
		sem <- struct{}{} // in-flight cap: blocks the reader when saturated
		handlers.Add(1)
		go func(req Frame) {
			defer handlers.Done()
			defer func() { <-sem }()
			buf := bodyPool.Get().(*[]byte)
			writeCh <- response{s.handle(req, *buf), buf}
		}(req)
	}
	handlers.Wait()
	close(writeCh)
	<-writerDone
}

// handshake validates the magic preamble and the Hello frame within the
// handshake timeout.
func (s *Server) handshake(conn net.Conn) error {
	if err := conn.SetDeadline(time.Now().Add(s.cfg.HandshakeTimeout)); err != nil {
		return err
	}
	var magic [8]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return err
	}
	if string(magic[:]) != string(Magic) {
		return fmt.Errorf("wire: bad magic preamble")
	}
	hello, _, err := ReadFrame(conn, nil, s.cfg.MaxFrame)
	if err != nil {
		return err
	}
	fail := func(msg string) error {
		s.authFailures.Inc()
		_, _ = WriteFrame(conn, nil, Frame{Kind: KindError, ID: hello.ID,
			Body: AppendStringBody(nil, msg)})
		return fmt.Errorf("wire: %s", msg)
	}
	if hello.Kind != KindHello {
		return fail("handshake must start with a hello frame")
	}
	version, secret, err := DecodeHello(hello.Body)
	if err != nil {
		return fail("malformed hello frame")
	}
	if version != ProtocolVersion {
		return fail(fmt.Sprintf("unsupported protocol version %d", version))
	}
	if subtle.ConstantTimeCompare([]byte(secret), []byte(s.cfg.Secret)) != 1 {
		return fail("authentication failed")
	}
	if _, err := WriteFrame(conn, nil, Frame{Kind: KindOK, ID: hello.ID}); err != nil {
		return err
	}
	return conn.SetDeadline(time.Time{})
}

// handle executes one request and builds its response frame, encoding the
// body onto dst. A response the client could not accept, its payload over
// DefaultMaxFrame, becomes an error instead.
func (s *Server) handle(req Frame, dst []byte) Frame {
	start := time.Now()
	s.requests.Inc()
	resp := s.dispatch(req, dst)
	if payloadLen(resp) > DefaultMaxFrame {
		resp = Frame{Kind: KindError, ID: req.ID, Body: AppendStringBody(nil, "wire: result exceeds frame limit")}
	}
	if resp.Kind == KindError {
		s.requestErrs.Inc()
	}
	s.requestNs.ObserveSince(start)
	return resp
}

func (s *Server) dispatch(req Frame, dst []byte) Frame {
	fail := func(err error) Frame {
		return Frame{Kind: KindError, ID: req.ID, Body: AppendStringBody(dst, err.Error())}
	}
	switch req.Kind {
	case KindPing:
		return Frame{Kind: KindOK, ID: req.ID}
	case KindExec:
		sql, err := DecodeStringBody(req.Body)
		if err != nil {
			return fail(err)
		}
		rel, err := s.w.Exec(sql)
		if err != nil {
			return fail(err)
		}
		return Frame{Kind: KindResult, ID: req.ID, Body: AppendResultBody(dst, rel)}
	case KindQuery:
		view, since, err := DecodeQueryBody(req.Body)
		if err != nil {
			return fail(err)
		}
		rel, ver, err := s.w.QuerySince(view, since)
		if err != nil {
			return fail(err)
		}
		if rel == nil {
			return Frame{Kind: KindUnchanged, ID: req.ID, Body: AppendUnchangedBody(dst, ver)}
		}
		return Frame{Kind: KindView, ID: req.ID, Body: AppendViewBody(dst, ver, rel)}
	case KindApply:
		d, err := DecodeDeltaBody(req.Body)
		if err != nil {
			return fail(err)
		}
		if err := s.w.ApplyDelta(d); err != nil {
			return fail(err)
		}
		return Frame{Kind: KindOK, ID: req.ID}
	case KindApplyBatch:
		ds, err := DecodeDeltaBatchBody(req.Body)
		if err != nil {
			return fail(err)
		}
		errs := s.w.ApplyDeltaBatch(ds)
		return Frame{Kind: KindBatchResult, ID: req.ID, Body: AppendBatchResultBody(dst, errs)}
	case KindMetrics:
		data, err := s.w.MetricsSnapshot().MarshalJSONIndent()
		if err != nil {
			return fail(err)
		}
		return Frame{Kind: KindMetricsResult, ID: req.ID, Body: data}
	default:
		return fail(fmt.Errorf("wire: unexpected request kind %s", req.Kind))
	}
}
