package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrConnClosed reports a request issued on (or interrupted by) a
// closed client connection.
var ErrConnClosed = errors.New("wire: connection closed")

// RemoteError is a server Error message surfaced to the caller.
type RemoteError struct {
	Code uint64
	Msg  string
}

func (e *RemoteError) Error() string { return e.Msg }

// Client is the caller side of one wire connection. A background
// goroutine reads frames and routes each response to the request id
// that awaits it, so roundtrips, fire-and-forget cancels and
// concurrent Rows.Close calls can safely share the connection.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes
	wr  *Writer    // under wmu

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan response
	err     error // terminal read error, set once
	done    chan struct{}
}

type response struct {
	msg Msg
	err error
}

// NewClient wraps an established connection and starts its read loop.
// The caller still owns the handshake (Hello / Attach).
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		wr:      NewWriter(conn),
		pending: make(map[uint64]chan response),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Dial connects and starts a client (no handshake yet).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

func (c *Client) readLoop() {
	rd := NewReader(c.conn)
	for {
		id, msg, err := rd.ReadMessage()
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrConnClosed, err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- response{msg: msg} // buffered; never blocks
		} else if e, isErr := msg.(Error); isErr {
			// An Error no request is waiting for is connection-level:
			// the server refused us (draining, connection limit)
			// before reading any request. Terminal.
			c.fail(&RemoteError{Code: e.Code, Msg: e.Msg})
			return
		}
	}
}

// fail terminates the client: every waiter (current and future) gets
// the terminal error.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.done)
	}
	waiters := c.pending
	c.pending = make(map[uint64]chan response)
	c.mu.Unlock()
	for _, ch := range waiters {
		ch <- response{err: err}
	}
}

// Alive reports whether the connection is still usable.
func (c *Client) Alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// register allocates a request id with a response slot.
func (c *Client) register() (uint64, chan response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan response, 1)
	c.pending[id] = ch
	return id, ch, nil
}

func (c *Client) write(id uint64, m Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.wr.WriteMessage(id, m)
}

// Send writes a fire-and-forget message (Cancel, CloseStmt, Close)
// under a fresh id no response will be routed to.
func (c *Client) Send(m Msg) error {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return c.err
	}
	c.nextID++
	id := c.nextID
	c.mu.Unlock()
	return c.write(id, m)
}

// Roundtrip sends m and blocks for its response (or the connection's
// terminal error). A server Error message comes back as *RemoteError.
func (c *Client) Roundtrip(m Msg) (Msg, error) {
	return c.RoundtripCtx(context.Background(), m)
}

// RoundtripCtx is Roundtrip under a context: when ctx is cancelled
// mid-flight, a Cancel naming the request is sent and the call keeps
// waiting for the server's definitive answer (the statement must not
// appear abandoned while it still runs). The response to a cancelled
// request is normally an Error with CodeCancelled.
func (c *Client) RoundtripCtx(ctx context.Context, m Msg) (Msg, error) {
	_, resp, err := c.RoundtripID(ctx, m)
	return resp, err
}

// RoundtripID is RoundtripCtx exposing the request id — an Exec's id
// doubles as its result cursor for Fetch/CloseStmt.
func (c *Client) RoundtripID(ctx context.Context, m Msg) (uint64, Msg, error) {
	id, ch, err := c.register()
	if err != nil {
		return 0, nil, err
	}
	if err := c.write(id, m); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return 0, nil, err
	}
	unwrap := func(resp response) (uint64, Msg, error) {
		if resp.err != nil {
			return id, nil, resp.err
		}
		if e, ok := resp.msg.(Error); ok {
			return id, nil, &RemoteError{Code: e.Code, Msg: e.Msg}
		}
		return id, resp.msg, nil
	}
	select {
	case resp := <-ch:
		return unwrap(resp)
	case <-ctx.Done():
		// Ask the server to cancel, then wait for its definitive
		// answer (bounded by the connection's lifetime).
		if err := c.write(0, Cancel{Target: id}); err != nil {
			c.mu.Lock()
			delete(c.pending, id)
			c.mu.Unlock()
			return id, nil, ctx.Err()
		}
		return unwrap(<-ch)
	}
}

// Close sends a best-effort goodbye and closes the connection.
func (c *Client) Close() error {
	_ = c.Send(Close{})
	err := c.conn.Close()
	c.fail(ErrConnClosed)
	return err
}

// Kill severs the connection abruptly, with no goodbye — the way a
// crashed client or a cut network looks to the server.
func (c *Client) Kill() {
	c.conn.Close()
	c.fail(ErrConnClosed)
}
