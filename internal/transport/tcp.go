package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"
)

// tcpEndpoint implements Endpoint over one TCP connection per peer with
// length-prefixed frames.  Connection setup uses the usual mesh convention:
// party i dials every j < i and accepts from every j > i.
//
// Sends are asynchronous: each peer has a FIFO queue drained by one writer
// goroutine, so Send does not block on the socket.  The SPMD protocols run
// symmetric exchanges — every owner of a frontier level ships multi-megabyte
// contribution batches to every other owner before turning around to receive
// — and with synchronous writes two parties whose kernel buffers fill
// mid-frame would deadlock, each stuck in Send while the other isn't
// reading.
//
// Each queue is bounded by a byte high-water mark (SendQueueBytes, default
// one MaxFrameSize per peer): a Send that would push the queue past the mark
// blocks until the writer drains below it, so a runaway producer — or a
// protocol bug that sends without ever receiving — holds at most
// HWM + one frame per peer instead of growing without limit.  A Send into
// an EMPTY queue is always admitted regardless of size, so no legal frame
// can block forever.  Deadlock freedom for the symmetric exchanges relies
// on the mark being at least one round's fan-out per peer, which the
// default (256 MiB) comfortably covers for every protocol here; the queue
// depth gauges in Stats (QueuedBytes / QueuePeakBytes) make the actual
// occupancy observable.  A write failure is recorded and surfaced on
// subsequent Sends; the peer's broken connection surfaces on its Recv.
//
// With TCPConfig.Reconnect, each peer wire is a ReliableConn instead of a
// bare socket: frames are sequence-numbered and acknowledged, heartbeats
// detect dead connections, and a broken connection is redialed (dialer
// side) or re-accepted (listener side) with a resume handshake that
// replays exactly the unacked frames — the mesh survives any single
// connection dying without losing or duplicating a frame.
type tcpEndpoint struct {
	id, n int
	cfg   TCPConfig
	ctx   context.Context
	conns []net.Conn
	rd    []*bufio.Reader
	wr    []*bufio.Writer
	links []*ReliableConn // reconnect mode; nil otherwise
	accpt []chan net.Conn // reconnect mode: re-accepted conns, per dialing peer
	ln    net.Listener    // retained in reconnect mode for re-accepts
	out   []*sendQueue
	hwm   int64
	stats Stats

	closeOnce sync.Once
	closeErr  error
}

// sendQueue is one peer's outgoing wire: a byte-bounded FIFO drained by a
// dedicated writer goroutine.  bytes counts frames queued but not yet
// written; Send blocks (backpressure) while bytes would exceed hwm, except
// into an empty queue.
type sendQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    [][]byte
	bytes    int64 // sum of len() over queue + the batch being written
	hwm      int64 // high-water mark for bytes
	stats    *Stats
	err      error // first write failure, surfaced on later Sends
	closed   bool  // no further Sends accepted; writer drains what remains
	inflight bool  // writer is mid-batch on the socket
	expired  bool  // the close grace period ran out
}

// DefaultSendQueueBytes is the per-peer send-queue high-water mark when
// TCPConfig.SendQueueBytes is zero: one maximum frame, so chunked ciphertext
// batches (at most MaxFrameSize/2 per chunk) always make progress.
const DefaultSendQueueBytes = MaxFrameSize

func newSendQueue(hwm int64, stats *Stats) *sendQueue {
	if hwm <= 0 {
		hwm = DefaultSendQueueBytes
	}
	q := &sendQueue{hwm: hwm, stats: stats}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// close rejects further Sends and waits up to grace for the writer to flush
// everything already queued — matching the synchronous-write behavior where
// anything Sent before Close was already on the socket.  A peer that stops
// reading can stall the writer; the grace bound keeps Close from hanging
// (the caller closes the connection right after, unblocking the writer).
func (q *sendQueue) close(grace time.Duration) {
	timer := time.AfterFunc(grace, func() {
		q.mu.Lock()
		q.expired = true
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	defer timer.Stop()
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	for (len(q.queue) > 0 || q.inflight) && q.err == nil && !q.expired {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// TCPConfig describes a TCP mesh.  Addrs[i] is the listen address of party i.
type TCPConfig struct {
	Addrs []string

	// SendQueueBytes bounds each per-peer asynchronous send queue: a Send
	// that would push the queued bytes past this mark blocks until the
	// writer goroutine drains below it.  Zero selects
	// DefaultSendQueueBytes.  Must cover one protocol round's fan-out to a
	// single peer or the symmetric bulk exchanges will stall.
	SendQueueBytes int64

	// DialTimeout bounds each peer dial during mesh setup (and redials in
	// reconnect mode).  Zero selects 15s.
	DialTimeout time.Duration

	// Reconnect runs every peer wire over a ReliableConn: sequence-
	// numbered acknowledged frames, heartbeats, and crash/reconnect
	// recovery with a resume handshake.  All parties in the mesh must
	// agree on this setting (the wire format changes).
	Reconnect bool

	// Heartbeat is the keepalive interval for reconnect-mode wires
	// (0 = no heartbeats; death is then detected only on I/O errors).
	Heartbeat time.Duration

	// ResumeTimeout bounds how long a broken reconnect-mode wire keeps
	// trying to re-establish before failing terminally (default 10s).
	ResumeTimeout time.Duration
}

func (c TCPConfig) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return 15 * time.Second
}

// NewTCPEndpoint joins the mesh as party id.  It blocks until connections to
// all peers are established.  All parties must call this concurrently.
func NewTCPEndpoint(cfg TCPConfig, id int) (Endpoint, error) {
	return NewTCPEndpointContext(context.Background(), cfg, id)
}

// NewTCPEndpointContext is NewTCPEndpoint with a cancellable context: mesh
// setup (and reconnect-mode redials) abort cleanly when ctx is done.
func NewTCPEndpointContext(ctx context.Context, cfg TCPConfig, id int) (Endpoint, error) {
	n := len(cfg.Addrs)
	if id < 0 || id >= n {
		return nil, fmt.Errorf("transport: party id %d out of range [0,%d)", id, n)
	}
	ln, err := net.Listen("tcp", cfg.Addrs[id])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addrs[id], err)
	}
	return newTCPEndpointOn(ctx, cfg, id, ln)
}

// NewLoopbackTCPNetwork brings up an n-party TCP mesh on 127.0.0.1 with
// OS-assigned ports and returns the connected endpoints, party i at index i.
// It is the TCP twin of NewMemoryNetwork: same process, but every message
// crosses the kernel loopback with real framing, serialization and socket
// scheduling — the transport the benchmark harness uses when per-message
// cost should be represented rather than idealized away.  cfg.Addrs is
// ignored (the reserved listener addresses replace it).
func NewLoopbackTCPNetwork(n int, cfg TCPConfig) ([]Endpoint, error) {
	return NewLoopbackTCPNetworkContext(context.Background(), n, cfg)
}

// NewLoopbackTCPNetworkContext is NewLoopbackTCPNetwork with a cancellable
// setup context.
func NewLoopbackTCPNetworkContext(ctx context.Context, n int, cfg TCPConfig) ([]Endpoint, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("transport: loopback listen: %w", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	cfg.Addrs = addrs
	eps := make([]Endpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps[i], errs[i] = newTCPEndpointOn(ctx, cfg, i, lns[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, ep := range eps {
				if ep != nil {
					ep.Close()
				}
			}
			return nil, err
		}
	}
	return eps, nil
}

// newTCPEndpointOn joins the mesh as party id, accepting on the provided
// listener.  Without Reconnect the listener is closed once the mesh is up;
// with Reconnect it stays open for the endpoint's lifetime so broken
// inbound connections can be re-accepted.
func newTCPEndpointOn(ctx context.Context, cfg TCPConfig, id int, ln net.Listener) (Endpoint, error) {
	n := len(cfg.Addrs)
	e := &tcpEndpoint{
		id: id, n: n,
		cfg:   cfg,
		ctx:   ctx,
		conns: make([]net.Conn, n),
		rd:    make([]*bufio.Reader, n),
		wr:    make([]*bufio.Writer, n),
		out:   make([]*sendQueue, n),
		hwm:   cfg.SendQueueBytes,
	}
	e.stats.TrackPeers(n)
	if cfg.Reconnect {
		e.links = make([]*ReliableConn, n)
		e.accpt = make([]chan net.Conn, n)
		for j := id + 1; j < n; j++ {
			e.accpt[j] = make(chan net.Conn, 1)
		}
		e.ln = ln
	} else {
		defer ln.Close()
	}

	errc := make(chan error, n)
	var wg sync.WaitGroup
	// Accept from higher-numbered parties.
	higher := n - 1 - id
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < higher; k++ {
			conn, err := ln.Accept()
			if err != nil {
				errc <- err
				return
			}
			var peer uint32
			if err := binary.Read(conn, binary.BigEndian, &peer); err != nil {
				errc <- err
				return
			}
			e.attach(int(peer), conn)
		}
	}()
	// Dial lower-numbered parties.
	for j := 0; j < id; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			conn, err := e.dialPeer(j)
			if err != nil {
				errc <- err
				return
			}
			e.attach(j, conn)
		}(j)
	}
	wg.Wait()
	select {
	case err := <-errc:
		e.Close()
		return nil, fmt.Errorf("transport: mesh setup: %w", err)
	default:
	}
	if cfg.Reconnect {
		go e.acceptLoop()
	}
	return e, nil
}

// dialPeer dials party j and runs the 4-byte peer-id handshake.
func (e *tcpEndpoint) dialPeer(j int) (net.Conn, error) {
	conn, err := dialRetry(e.ctx, e.cfg.Addrs[j], e.cfg.dialTimeout())
	if err != nil {
		return nil, err
	}
	if err := binary.Write(conn, binary.BigEndian, uint32(e.id)); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// acceptLoop (reconnect mode) keeps accepting after mesh setup, routing
// each re-established connection to the peer's waiting reliable link.
func (e *tcpEndpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed (endpoint Close)
		}
		go func(conn net.Conn) {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			var peer uint32
			if err := binary.Read(conn, binary.BigEndian, &peer); err != nil {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			p := int(peer)
			if p <= e.id || p >= e.n || e.accpt[p] == nil {
				conn.Close()
				return
			}
			select {
			case e.accpt[p] <- conn:
			default:
				conn.Close() // a fresher reconnect is already queued
			}
		}(conn)
	}
}

// dialRetry dials addr with capped exponential backoff plus jitter until
// it succeeds, the timeout elapses, or ctx is cancelled — so mesh startup
// tolerates parties launching in any order and can be aborted cleanly.
func dialRetry(ctx context.Context, addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	backoff := 5 * time.Millisecond
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("deadline elapsed")
			}
			return nil, fmt.Errorf("transport: dial %s timed out after %s: %w", addr, timeout, lastErr)
		}
		d := net.Dialer{Timeout: remain}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, fmt.Errorf("transport: dial %s cancelled: %w", addr, ctx.Err())
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: dial %s timed out after %s: %w", addr, timeout, lastErr)
		}
		// Full jitter on a doubling base, capped: fast when the peer is
		// about to come up, polite when it is genuinely down.
		sleep := time.Duration(rand.Int64N(int64(backoff))) + backoff/2
		if backoff *= 2; backoff > 400*time.Millisecond {
			backoff = 400 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("transport: dial %s cancelled: %w", addr, ctx.Err())
		case <-time.After(sleep):
		}
	}
}

func (e *tcpEndpoint) attach(peer int, conn net.Conn) {
	e.conns[peer] = conn
	if e.cfg.Reconnect {
		e.links[peer] = NewReliableConn(conn, ReliableConfig{
			Heartbeat:     e.cfg.Heartbeat,
			ResumeTimeout: e.cfg.ResumeTimeout,
			Redial:        e.redialFn(peer),
		})
	} else {
		e.rd[peer] = bufio.NewReaderSize(conn, 1<<16)
		e.wr[peer] = bufio.NewWriterSize(conn, 1<<16)
	}
	e.out[peer] = newSendQueue(e.hwm, &e.stats)
	go e.writeLoop(peer, e.out[peer])
}

// redialFn builds the reliable link's reconnection hook for one peer:
// lower-numbered peers are redialed, higher-numbered peers re-dial us and
// the accept loop hands their fresh connection over.
func (e *tcpEndpoint) redialFn(peer int) func() (net.Conn, error) {
	if peer < e.id {
		return func() (net.Conn, error) { return e.dialPeer(peer) }
	}
	return func() (net.Conn, error) {
		select {
		case conn := <-e.accpt[peer]:
			return conn, nil
		case <-time.After(2 * time.Second):
			return nil, fmt.Errorf("transport: party %d has not redialed", peer)
		case <-e.ctx.Done():
			return nil, e.ctx.Err()
		}
	}
}

// writeLoop drains one peer's send queue in FIFO order, flushing once per
// drained batch so back-to-back chunked sends coalesce on the socket.
func (e *tcpEndpoint) writeLoop(peer int, q *sendQueue) {
	for {
		q.mu.Lock()
		for len(q.queue) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.queue) == 0 { // closed and fully drained
			q.mu.Unlock()
			return
		}
		batch := q.queue
		q.queue = nil
		q.inflight = true
		q.mu.Unlock()

		var err error
		if link := e.link(peer); link != nil {
			for _, b := range batch {
				if err = link.Send(b); err != nil {
					break
				}
				e.stats.CountSent(peer, len(b))
			}
		} else {
			w := e.wr[peer]
			for _, b := range batch {
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
				if _, err = w.Write(hdr[:]); err != nil {
					break
				}
				if _, err = w.Write(b); err != nil {
					break
				}
				e.stats.CountSent(peer, len(b))
			}
			if err == nil {
				err = w.Flush()
			}
		}
		var written int64
		for _, b := range batch {
			written += int64(len(b))
		}
		q.stats.CountQueued(-written)
		q.mu.Lock()
		q.inflight = false
		q.bytes -= written
		if err != nil {
			q.err = err
		}
		q.cond.Broadcast()
		q.mu.Unlock()
		if err != nil {
			return
		}
	}
}

func (e *tcpEndpoint) link(peer int) *ReliableConn {
	if e.links == nil {
		return nil
	}
	return e.links[peer]
}

func (e *tcpEndpoint) ID() int       { return e.id }
func (e *tcpEndpoint) N() int        { return e.n }
func (e *tcpEndpoint) Stats() *Stats { return &e.stats }

// Send enqueues b for delivery to party `to` and returns immediately.  A
// write failure on the wire is surfaced on the next Send to that peer.
func (e *tcpEndpoint) Send(to int, b []byte) error {
	if to < 0 || to >= e.n || to == e.id {
		return fmt.Errorf("transport: bad destination %d", to)
	}
	q := e.out[to]
	if q == nil {
		return ErrClosed
	}
	// Copy so the caller may reuse the buffer (the Endpoint contract): the
	// queue retains the frame until the writer goroutine flushes it.
	msg := make([]byte, len(b))
	copy(msg, b)
	q.mu.Lock()
	defer q.mu.Unlock()
	// Backpressure: block while admitting this frame would push the queue
	// past its high-water mark — unless the queue is empty, so a frame
	// larger than the mark still goes through rather than wedging forever.
	for q.bytes > 0 && q.bytes+int64(len(msg)) > q.hwm && q.err == nil && !q.closed {
		q.cond.Wait()
	}
	if q.err != nil {
		return q.err
	}
	if q.closed {
		return ErrClosed
	}
	q.queue = append(q.queue, msg)
	q.bytes += int64(len(msg))
	q.stats.CountQueued(int64(len(msg)))
	q.cond.Broadcast()
	return nil
}

func (e *tcpEndpoint) Recv(from int) ([]byte, error) {
	if from < 0 || from >= e.n || from == e.id {
		return nil, fmt.Errorf("transport: bad source %d", from)
	}
	if link := e.link(from); link != nil {
		start := time.Now()
		msg, err := link.Recv()
		if err != nil {
			return nil, err
		}
		e.stats.CountRecvWait(time.Since(start))
		e.stats.CountRecv(from, len(msg))
		return msg, nil
	}
	r := e.rd[from]
	if r == nil {
		return nil, ErrClosed
	}
	// The wait for the header's first byte is the wire's dead air; once it
	// arrives the rest of the frame streams in at loopback/LAN throughput.
	// A frame already buffered in the reader returns in well under a
	// microsecond, so the fast path charges ~nothing.
	start := time.Now()
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	e.stats.CountRecvWait(time.Since(start))
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		// A corrupt or hostile length prefix must error out instead of
		// triggering an unbounded allocation.
		return nil, fmt.Errorf("transport: frame of %d bytes from party %d exceeds the %d-byte limit", n, from, MaxFrameSize)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, err
	}
	e.stats.CountRecv(from, int(n))
	return msg, nil
}

func (e *tcpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		// Drain all peers' queues concurrently so shutdown pays at most one
		// grace period, not one per stalled peer.
		var wg sync.WaitGroup
		for _, q := range e.out {
			if q == nil {
				continue
			}
			wg.Add(1)
			go func(q *sendQueue) {
				defer wg.Done()
				q.close(5 * time.Second)
			}(q)
		}
		wg.Wait()
		for _, q := range e.out {
			if q == nil {
				continue
			}
			q.mu.Lock()
			if q.err != nil && e.closeErr == nil {
				e.closeErr = q.err
			}
			q.mu.Unlock()
		}
		if e.ln != nil {
			e.ln.Close()
		}
		for _, l := range e.links {
			if l != nil {
				l.Close()
			}
		}
		for _, c := range e.conns {
			if c != nil {
				if err := c.Close(); err != nil && e.closeErr == nil {
					e.closeErr = err
				}
			}
		}
	})
	return e.closeErr
}
