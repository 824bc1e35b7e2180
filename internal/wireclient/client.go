// Package wireclient is the Go client for the warehouse wire protocol
// (internal/wire, served by cmd/dwserver). A Client wraps one TCP
// connection with synchronous request/response round trips; it is safe
// for concurrent use (calls serialize on the connection). For concurrent
// load, open one Client per goroutine — connections are cheap and the
// server's group-commit pipeline batches across them.
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

// Client is one authenticated wire-protocol session.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	wbuf   []byte
	rbuf   []byte
	nextID uint64
	closed bool
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
	c := &Client{conn: conn, br: bufio.NewReader(conn)}
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
// request id. A KindError response becomes a Go error.
func (c *Client) roundTrip(kind wire.Kind, body []byte) (wire.Frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return wire.Frame{}, ErrClosed
	}
	id := c.nextID
	c.nextID++
	var err error
	if c.wbuf, err = wire.WriteFrame(c.conn, c.wbuf, wire.Frame{Kind: kind, ID: id, Body: body}); err != nil {
		return wire.Frame{}, err
	}
	var resp wire.Frame
	if resp, c.rbuf, err = wire.ReadFrame(c.br, c.rbuf, 0); err != nil {
		return wire.Frame{}, err
	}
	// The body aliases the reusable read buffer; copy it out so callers may
	// decode after the mutex is released (another goroutine could already
	// be reusing the buffer for its own response).
	resp.Body = append([]byte(nil), resp.Body...)
	if resp.ID != id {
		return wire.Frame{}, fmt.Errorf("wireclient: response id %d for request %d", resp.ID, id)
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

// Ping checks server liveness.
func (c *Client) Ping() error {
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
// path.
func (c *Client) Query(view string) (*wire.ResultSet, error) {
	resp, err := c.roundTrip(wire.KindQuery, wire.AppendStringBody(nil, view))
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KindResult {
		return nil, fmt.Errorf("wireclient: unexpected %s response to query", resp.Kind)
	}
	return wire.DecodeResultBody(resp.Body)
}

// ApplyDelta applies one externally produced delta through the server's
// group-commit pipeline; it returns once the delta's outcome is known
// (committed across every view, durable per the server's WAL policy).
func (c *Client) ApplyDelta(d maintain.Delta) error {
	resp, err := c.roundTrip(wire.KindApply, wire.AppendDeltaBody(nil, d))
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
	resp, err := c.roundTrip(wire.KindMetrics, nil)
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KindMetricsResult {
		return nil, fmt.Errorf("wireclient: unexpected %s response to metrics", resp.Kind)
	}
	return resp.Body, nil
}

// Close tears down the connection. Safe to call twice.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}
