package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"time"
)

// Accept-error backoff bounds: a persistent Accept failure (EMFILE, for
// example) must not busy-spin the accept loop, but recovery should be
// quick once the condition clears.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// LineHandler answers one non-blank request line. The returned envelope
// is written back as one JSON line. ctx is the LineServer's lifecycle
// context, canceled by Close.
type LineHandler func(ctx context.Context, line []byte) Envelope

// LineServer is the accept-and-serve loop of the line-delimited JSON
// protocol, shared by Server and the cluster coordinator. It accepts
// TCP connections, backing off exponentially on persistent Accept
// errors, and answers each request line with the handler's response.
// Every open connection is tracked, so Close unblocks idle readers
// instead of waiting for their clients to hang up.
type LineServer struct {
	handle      LineHandler
	idleTimeout time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	closeOnce sync.Once
	closeErr  error

	// mu guards listeners and conns, and orders Close's cancel against
	// the wg.Add calls in serve and track.
	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
}

// NewLineServer returns a LineServer answering requests with handle. A
// connection that sends nothing for idleTimeout is dropped (<= 0
// disables the deadline).
func NewLineServer(handle LineHandler, idleTimeout time.Duration) *LineServer {
	ctx, cancel := context.WithCancel(context.Background())
	return &LineServer{
		handle:      handle,
		idleTimeout: idleTimeout,
		ctx:         ctx,
		cancel:      cancel,
		conns:       make(map[net.Conn]struct{}),
	}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Canceling ctx closes the LineServer, just
// as Close does.
func (l *LineServer) Listen(ctx context.Context, addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := l.serve(ln); err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		// Not counted in wg: Close waits on wg, and this goroutine calls it.
		go func() {
			select {
			case <-ctx.Done():
				l.Close()
			case <-l.ctx.Done():
			}
		}()
	}
	return ln.Addr(), nil
}

// serve runs the accept loop on ln until Close. After Close it closes
// ln and returns net.ErrClosed.
func (l *LineServer) serve(ln net.Listener) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ctx.Err() != nil {
		ln.Close()
		return net.ErrClosed
	}
	l.listeners = append(l.listeners, ln)
	l.wg.Add(1)
	go l.acceptLoop(ln)
	return nil
}

// Close stops accepting, closes every listener once and every open
// connection, and waits for the connection handlers to finish. It is
// idempotent: repeated calls return the first call's error. A listener
// that is already closed is not an error.
func (l *LineServer) Close() error {
	l.closeOnce.Do(func() {
		l.mu.Lock()
		l.cancel()
		for _, ln := range l.listeners {
			if err := ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) && l.closeErr == nil {
				l.closeErr = err
			}
		}
		l.listeners = nil
		for conn := range l.conns {
			conn.Close()
		}
		l.mu.Unlock()
		l.wg.Wait()
	})
	return l.closeErr
}

// track registers an accepted connection, or reports false once Close
// has started (the caller then drops the connection).
func (l *LineServer) track(conn net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ctx.Err() != nil {
		return false
	}
	l.conns[conn] = struct{}{}
	l.wg.Add(1)
	return true
}

func (l *LineServer) untrack(conn net.Conn) {
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
	l.wg.Done()
}

func (l *LineServer) acceptLoop(ln net.Listener) {
	defer l.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if l.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			// Persistent failures (EMFILE and friends) would otherwise spin
			// this loop at 100% CPU; back off exponentially and retry.
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			timer := time.NewTimer(backoff)
			select {
			case <-l.ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
			continue
		}
		backoff = 0
		if !l.track(conn) {
			conn.Close()
			return
		}
		go l.serveConn(conn)
	}
}

// serveConn handles one client: JSON request per line, JSON response per
// line, until Close, the idle deadline passes, or the client hangs up.
// An over-long line is unrecoverable (the framing is lost) and drops the
// connection; every other line, malformed or not, gets an answer.
func (l *LineServer) serveConn(conn net.Conn) {
	defer l.untrack(conn)
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), MaxLineBytes)
	enc := json.NewEncoder(conn)
	for {
		if l.ctx.Err() != nil {
			return
		}
		if l.idleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(l.idleTimeout)); err != nil {
				return
			}
		}
		if !sc.Scan() {
			return
		}
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := enc.Encode(l.handle(l.ctx, line)); err != nil {
			return
		}
	}
}
