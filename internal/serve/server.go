package serve

import (
	"crypto/subtle"
	"crypto/tls"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/core"
)

// Backend is what the wire server fronts: Service implements it, and the
// wire tests substitute a fake so the protocol is exercised without a
// federation behind it.
type Backend interface {
	// Lookup resolves a model name to its current registry entry.
	Lookup(name string) (*Entry, error)
	// List enumerates the registry.
	List() []Info
	// Width returns the flat feature-row width requests must carry.
	Width() int
	// PredictManyEntry serves samples pinned to a resolved entry.
	PredictManyEntry(entry *Entry, rows [][]float64, deadline time.Time) ([]float64, error)
	// Update absorbs appended samples into the named model (incremental
	// training against the live registry entry) and installs the result
	// as version+1.
	Update(name string, rows [][]float64, labels []float64, addTrees int) (*Entry, error)
	// Stats snapshots protocol + serving statistics.
	Stats() core.RunStats
	// Health probes liveness.
	Health() Health
	// Drain stops admission and flushes queued work.
	Drain()
	// Close drains and tears the serving sessions down.
	Close()
}

var _ Backend = (*Service)(nil)

// WireConfig secures the serve wire.  The zero value is plaintext TCP
// with no authentication — fine on a loopback dev box, not across a WAN.
type WireConfig struct {
	// TLS, when set, wraps the listener (server) or connection (client)
	// in TLS; see transport.LoadServerTLS / transport.SelfSignedTLS for
	// building one.
	TLS *tls.Config
	// AuthToken, when non-empty, requires each connection's first frame
	// to be opAuth carrying the same shared token (constant-time
	// compared); everything else on the connection is refused until then.
	AuthToken string
}

// Server exposes a Backend over the wire protocol.  Each connection gets
// its own goroutine; predict requests from all connections coalesce in
// the backend's queues, which is the whole point of serving them from one
// long-lived daemon.
type Server struct {
	svc  Backend
	ln   net.Listener
	wire WireConfig

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	shutdown bool

	connWG   sync.WaitGroup
	stopOnce sync.Once
}

// NewServer listens on addr (e.g. "127.0.0.1:9100") with a plaintext,
// unauthenticated wire.
func NewServer(svc Backend, addr string) (*Server, error) {
	return NewServerWire(svc, addr, WireConfig{})
}

// NewServerWire is NewServer with transport security: TLS on the listener
// and/or a shared-token handshake per connection.
func NewServerWire(svc Backend, addr string, wire WireConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if wire.TLS != nil {
		ln = tls.NewListener(ln, wire.TLS)
	}
	return &Server{svc: svc, ln: ln, wire: wire, conns: make(map[net.Conn]struct{})}, nil
}

// Addr returns the bound listen address.
func (srv *Server) Addr() string { return srv.ln.Addr().String() }

// Serve accepts connections until Shutdown; it returns nil on a graceful
// shutdown.  The backend is drained and closed before Serve returns, so
// a daemon can simply `defer os.Exit` semantics on it.
func (srv *Server) Serve() error {
	failures := 0
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			srv.mu.Lock()
			stopped := srv.shutdown
			srv.mu.Unlock()
			// An Accept failure while the listener is open (fd
			// exhaustion, aborted handshake) must not tear down a
			// session whose keys cannot be rebuilt — keep accepting
			// with a capped backoff until Shutdown closes the listener.
			if !stopped && !errors.Is(err, net.ErrClosed) {
				if failures++; failures < 10 {
					time.Sleep(time.Duration(failures) * 100 * time.Millisecond)
				} else {
					time.Sleep(time.Second)
				}
				continue
			}
			srv.drain()
			return nil
		}
		failures = 0
		srv.mu.Lock()
		if srv.shutdown {
			srv.mu.Unlock()
			conn.Close()
			continue
		}
		srv.conns[conn] = struct{}{}
		srv.mu.Unlock()
		srv.connWG.Add(1)
		go srv.handle(conn)
	}
}

// Shutdown begins a graceful stop: no new connections, existing requests
// drain.  It returns immediately; Serve returns once the drain is done.
func (srv *Server) Shutdown() {
	srv.stopOnce.Do(func() {
		srv.mu.Lock()
		srv.shutdown = true
		srv.mu.Unlock()
		srv.ln.Close()
	})
}

// drain finishes a stop: queued samples flush first (so handlers blocked
// on PredictMany can still write their responses), then connections that
// linger idle past a grace period are force-closed to unblock their
// readFrame loops, and finally the backend is torn down.
func (srv *Server) drain() {
	srv.svc.Drain()
	done := make(chan struct{})
	go func() { srv.connWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		srv.mu.Lock()
		for conn := range srv.conns {
			conn.Close()
		}
		srv.mu.Unlock()
		<-done
	}
	srv.svc.Close()
}

func (srv *Server) handle(conn net.Conn) {
	defer srv.connWG.Done()
	defer func() {
		srv.mu.Lock()
		delete(srv.conns, conn)
		srv.mu.Unlock()
		conn.Close()
	}()
	if srv.wire.AuthToken != "" && !srv.authenticate(conn) {
		return
	}
	for {
		op, body, err := readFrame(conn)
		if err != nil {
			return // disconnect or malformed framing
		}
		if !srv.serveOp(conn, op, body) {
			return
		}
	}
}

// authenticate gates a connection on the shared-token handshake: the
// first frame must be opAuth with the right token.  A bad token gets one
// opErr and the connection is dropped; the comparison is constant-time so
// the wire doesn't leak token prefixes.
func (srv *Server) authenticate(conn net.Conn) bool {
	// A handshake deadline keeps an idle unauthenticated socket from
	// pinning a goroutine forever.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	op, body, err := readFrame(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil || op != opAuth {
		writeFrame(conn, opErr, "serve: authentication required")
		return false
	}
	var req authReq
	if json.Unmarshal(body, &req) != nil ||
		subtle.ConstantTimeCompare([]byte(req.Token), []byte(srv.wire.AuthToken)) != 1 {
		writeFrame(conn, opErr, "serve: bad auth token")
		return false
	}
	return writeFrame(conn, opOK, "ok") == nil
}

// serveOp answers one request frame; it reports whether the connection
// should keep being served.
func (srv *Server) serveOp(conn net.Conn, op byte, body []byte) bool {
	switch op {
	case opPredict:
		var req predictReq
		if err := json.Unmarshal(body, &req); err != nil {
			return writeFrame(conn, opErr, err.Error()) == nil
		}
		entry, err := srv.svc.Lookup(req.Model)
		if err != nil {
			return writeFrame(conn, opErr, err.Error()) == nil
		}
		var deadline time.Time
		if req.DeadlineMs > 0 {
			deadline = time.Now().Add(time.Duration(req.DeadlineMs) * time.Millisecond)
		}
		preds, err := srv.svc.PredictManyEntry(entry, req.Samples, deadline)
		if err != nil {
			var ue *UnavailableError
			if errors.As(err, &ue) {
				return writeFrame(conn, opUnavail, unavailResp{RetryAfterMs: ue.RetryAfter.Milliseconds()}) == nil
			}
			return writeFrame(conn, opErr, err.Error()) == nil
		}
		if preds == nil {
			preds = []float64{}
		}
		return writeFrame(conn, opOK, predictResp{Predictions: preds, Version: entry.Version}) == nil

	case opUpdate:
		var req updateReq
		if err := json.Unmarshal(body, &req); err != nil {
			return writeFrame(conn, opErr, err.Error()) == nil
		}
		entry, err := srv.svc.Update(req.Model, req.Samples, req.Labels, req.AddTrees)
		if err != nil {
			var ue *UnavailableError
			if errors.As(err, &ue) {
				return writeFrame(conn, opUnavail, unavailResp{RetryAfterMs: ue.RetryAfter.Milliseconds()}) == nil
			}
			return writeFrame(conn, opErr, err.Error()) == nil
		}
		return writeFrame(conn, opOK, updateResp{Version: entry.Version, Info: entry.Info()}) == nil

	case opModels:
		return writeFrame(conn, opOK, srv.svc.List()) == nil

	case opStats:
		return writeFrame(conn, opOK, srv.svc.Stats()) == nil

	case opHealth:
		return writeFrame(conn, opOK, srv.svc.Health()) == nil

	case opDrain:
		if err := writeFrame(conn, opOK, "draining"); err != nil {
			return false
		}
		go srv.Shutdown()
		return false

	default:
		return writeFrame(conn, opErr, "serve: unknown opcode") == nil
	}
}
