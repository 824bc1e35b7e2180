// Package wireclient is the Go client for the warehouse wire protocol
// (internal/wire, served by cmd/dwserver). A Client wraps one TCP
// connection with synchronous request/response round trips; it is safe
// for concurrent use (calls serialize on the connection). For concurrent
// load, open one Client per goroutine — connections are cheap and the
// warehouse group-commits concurrent APPLYs across them.
//
// A Client remembers the last result of every view it queried, with the
// view's version, and asks the server only for what changed since: a
// view still at that version is answered UNCHANGED and Query returns the
// remembered result set again. Result sets are therefore shared and
// read-only. The cache lives and dies with the connection.
package wireclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mindetail/internal/maintain"
	"mindetail/internal/wire"
)

// DefaultDialTimeout bounds Dial's connect + handshake.
const DefaultDialTimeout = 10 * time.Second

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("wireclient: client closed")

// Client is one authenticated wire-protocol session. A transport or
// framing error closes it: the stream can no longer be trusted to start at
// a frame boundary, so every later call returns an error.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	wbuf   []byte
	rbuf   []byte
	body   []byte
	nextID uint64
	closed bool
	views  map[string]cachedView
}

// cachedView is the last result of a view this client read, and the
// version the server gave it.
type cachedView struct {
	ver uint64
	rs  *wire.ResultSet
}

// Options tunes Dial. Response frames are bounded by wire.DefaultMaxFrame.
type Options struct {
	// DialTimeout bounds connect + handshake (<=0 selects
	// DefaultDialTimeout).
	DialTimeout time.Duration
}

// Dial connects to a dwserver at addr and authenticates with the shared
// secret.
func Dial(addr, secret string) (*Client, error) {
	return DialOptions(addr, secret, Options{})
}

// DialOptions is Dial with explicit options.
func DialOptions(addr, secret string, o Options) (*Client, error) {
	timeout := o.DialTimeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), views: make(map[string]cachedView)}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := conn.Write(wire.Magic); err != nil {
		conn.Close()
		return nil, err
	}
	resp, err := c.roundTrip(wire.KindHello, wire.AppendHello(nil, secret))
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wireclient: handshake: %w", err)
	}
	if resp.Kind != wire.KindOK {
		conn.Close()
		return nil, fmt.Errorf("wireclient: handshake: unexpected %s response", resp.Kind)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// roundTrip sends one request frame and reads its response, matching the
// request id. A KindError response becomes a Go error. A transport or
// framing error closes the client. Callers hold c.mu and decode the
// response before releasing it: the body aliases c.rbuf, which the next
// round trip overwrites.
func (c *Client) roundTrip(kind wire.Kind, body []byte) (wire.Frame, error) {
	if c.closed {
		return wire.Frame{}, ErrClosed
	}
	id := c.nextID
	c.nextID++
	var err error
	if c.wbuf, err = wire.WriteFrame(c.conn, c.wbuf, wire.Frame{Kind: kind, ID: id, Body: body}); err != nil {
		return wire.Frame{}, c.fail(err)
	}
	var resp wire.Frame
	if resp, c.rbuf, err = wire.ReadFrame(c.br, c.rbuf, 0); err != nil {
		return wire.Frame{}, c.fail(err)
	}
	if resp.ID != id {
		return wire.Frame{}, c.fail(fmt.Errorf("wireclient: response id %d for request %d", resp.ID, id))
	}
	if resp.Kind == wire.KindError {
		msg, derr := wire.DecodeStringBody(resp.Body)
		if derr != nil {
			return wire.Frame{}, fmt.Errorf("wireclient: malformed error response: %w", derr)
		}
		return wire.Frame{}, errors.New(msg)
	}
	return resp, nil
}

// fail closes the client after a transport or framing error and returns
// the error. Callers hold c.mu.
func (c *Client) fail(err error) error {
	c.closed = true
	c.views = nil
	c.conn.Close()
	return err
}

// Ping checks server liveness.
func (c *Client) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(wire.KindPing, nil)
	if err != nil {
		return err
	}
	if resp.Kind != wire.KindOK {
		return fmt.Errorf("wireclient: unexpected %s response to ping", resp.Kind)
	}
	return nil
}

// Exec runs a SQL script on the server (DDL, DML, or queries) and returns
// the final SELECT's result set (nil for scripts ending in DDL/DML).
// All-SELECT scripts run on the server's shared-lock read path and
// overlap with other readers.
func (c *Client) Exec(sql string) (*wire.ResultSet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(wire.KindExec, wire.AppendStringBody(nil, sql))
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KindResult {
		return nil, fmt.Errorf("wireclient: unexpected %s response to exec", resp.Kind)
	}
	return wire.DecodeResultBody(resp.Body)
}

// Query reads a materialized view through the server's lock-free snapshot
// path. While the view is at the version this client last read, the server
// answers UNCHANGED and Query returns the same result set as last time:
// treat it as read-only.
func (c *Client) Query(view string) (*wire.ResultSet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	held := c.views[view]
	c.body = wire.AppendQueryBody(c.body[:0], view, held.ver)
	resp, err := c.roundTrip(wire.KindQuery, c.body)
	if err != nil {
		return nil, err
	}
	switch resp.Kind {
	case wire.KindUnchanged:
		ver, err := wire.DecodeUnchangedBody(resp.Body)
		if err != nil {
			return nil, err
		}
		if held.rs == nil || ver != held.ver {
			return nil, fmt.Errorf("wireclient: %s unchanged at version %d, but version %d is held", view, ver, held.ver)
		}
		return held.rs, nil
	case wire.KindView:
		ver, rs, err := wire.DecodeViewBody(resp.Body)
		if err != nil {
			return nil, err
		}
		c.views[view] = cachedView{ver: ver, rs: rs}
		return rs, nil
	}
	return nil, fmt.Errorf("wireclient: unexpected %s response to query", resp.Kind)
}

// ApplyDelta applies one externally produced delta through the server's
// Warehouse.ApplyDelta, which group-commits it with concurrent APPLYs from
// other sessions; it returns once the delta's outcome is known
// (committed across every view, durable per the server's WAL policy).
func (c *Client) ApplyDelta(d maintain.Delta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.body = wire.AppendDeltaBody(c.body[:0], d)
	resp, err := c.roundTrip(wire.KindApply, c.body)
	if err != nil {
		return err
	}
	if resp.Kind != wire.KindOK {
		return fmt.Errorf("wireclient: unexpected %s response to apply", resp.Kind)
	}
	return nil
}

// ApplyDeltaBatch applies a batch of deltas under one server-side lock
// acquisition and group commit. The returned slice has one entry per
// delta: nil when it committed, its error otherwise (the batch is a queue
// drain, not a transaction — later members still apply after a failure).
func (c *Client) ApplyDeltaBatch(ds []maintain.Delta) ([]error, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(wire.KindApplyBatch, wire.AppendDeltaBatchBody(nil, ds))
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KindBatchResult {
		return nil, fmt.Errorf("wireclient: unexpected %s response to apply-batch", resp.Kind)
	}
	msgs, err := wire.DecodeBatchResultBody(resp.Body)
	if err != nil {
		return nil, err
	}
	if len(msgs) != len(ds) {
		return nil, fmt.Errorf("wireclient: %d outcomes for %d deltas", len(msgs), len(ds))
	}
	errs := make([]error, len(msgs))
	for i, m := range msgs {
		if m != "" {
			errs[i] = errors.New(m)
		}
	}
	return errs, nil
}

// Metrics fetches the server's observability snapshot as JSON.
func (c *Client) Metrics() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(wire.KindMetrics, nil)
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KindMetricsResult {
		return nil, fmt.Errorf("wireclient: unexpected %s response to metrics", resp.Kind)
	}
	return append([]byte(nil), resp.Body...), nil
}

// Close tears down the connection. Safe to call twice.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.views = nil
	return c.conn.Close()
}
