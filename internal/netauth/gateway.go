// Session gateway: the fleet-facing front door of a replicated deployment.
// Devices dial one address; the gateway peeks the session's hello frame,
// maps the chip ID onto a consistent-hash ring of registry shards, and
// splices the connection through to the shard's current owner.  Each shard
// lists its replicas in priority order (primary first); when the owner is
// unreachable the gateway marks it down for a cooldown and re-routes the
// session to the next replica — which is how traffic finds a freshly
// promoted follower after failover, with no device-side reconfiguration.
//
// The gateway stays protocol-thin on purpose: it parses exactly one frame
// (the hello or keyex_init) and never terminates the authentication
// protocol, so the end-to-end frame checks and error semantics between
// device and verifier are untouched.  The one extra frame it reads is the backend's
// first reply: a "moved" error there means the chip's range was rebalanced
// to another shard, and the gateway follows the redirect within a
// per-session budget instead of bouncing the device.
//
// The single change the gateway makes to the opening frame is the
// distributed-trace context: it adopts the device's context when the hello
// carries a usable one, mints a fresh trace otherwise, and re-encodes the
// frame with its own "gateway.session" span as the parent — so every
// backend span of the session nests under the gateway's, and one
// `puflab trace show` renders the whole gateway → shard → quorum tree.
// Everything after the opening frame is spliced verbatim.  The gateway's
// own refusals (unroutable chip, malformed opening frame) are error frames
// like the server's.
package netauth

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xorpuf/internal/telemetry"
	"xorpuf/internal/telemetry/dtrace"
	"xorpuf/internal/wire"
)

var (
	gatewaySessions   = telemetry.Default.Counter("gateway_sessions_total")
	gatewayActive     = telemetry.Default.Gauge("gateway_active_sessions")
	gatewayReroutes   = telemetry.Default.Counter("gateway_reroutes_total")
	gatewayUnroutable = telemetry.Default.Counter("gateway_unroutable_total")
	gatewayDownMarks  = telemetry.Default.Counter("gateway_backend_down_total")
	gatewayRedirects  = telemetry.Default.Counter("gateway_redirects_total")
)

const (
	// gatewayHelloTimeout bounds the wait for the session's opening frame,
	// the backend's first reply and a refusal write.
	gatewayHelloTimeout = 5 * time.Second
	// gatewayRedirectBudget caps how many "moved" redirects one session
	// follows before the error is handed to the device.  A budget stops a
	// misconfigured shard pair that redirects in a cycle from pinning
	// gateway goroutines forever.
	gatewayRedirectBudget = 3
)

// GatewayShard is one registry shard: a name (the hash-ring identity) and
// its replica addresses in routing priority order — the primary first, then
// the followers that may be promoted in its place.
type GatewayShard struct {
	Name  string
	Addrs []string
}

// GatewayConfig tunes a Gateway.
type GatewayConfig struct {
	// VirtualNodes is how many ring points each shard gets; more points
	// smooth the chip distribution (default 64).
	VirtualNodes int
	// DialTimeout bounds one backend dial attempt (default 2s).
	DialTimeout time.Duration
	// Cooldown is the base backoff for a backend that failed a dial; each
	// consecutive failure doubles it (with ±50% jitter so a fleet of
	// gateways doesn't re-probe a recovering backend in lockstep) up to
	// MaxCooldown (default 500ms).
	Cooldown time.Duration
	// MaxCooldown caps the down-mark backoff (default 15s).
	MaxCooldown time.Duration
}

func (c GatewayConfig) normalized() GatewayConfig {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 64
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 500 * time.Millisecond
	}
	if c.MaxCooldown <= 0 {
		c.MaxCooldown = 15 * time.Second
	}
	return c
}

type ringPoint struct {
	hash  uint64
	shard int
}

// downState is one backend's failure streak and jittered probe-again time.
type downState struct {
	fails int
	until time.Time
}

// Gateway routes authentication sessions to registry shard owners.
type Gateway struct {
	shards []GatewayShard
	ring   []ringPoint
	cfg    GatewayConfig

	mu     sync.Mutex
	down   map[string]downState
	rng    *rand.Rand
	ln     net.Listener
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewGateway builds a gateway over the given shards.
func NewGateway(shards []GatewayShard, cfg GatewayConfig) (*Gateway, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("netauth: gateway needs at least one shard")
	}
	g := &Gateway{shards: shards, cfg: cfg.normalized(), down: make(map[string]downState),
		rng: rand.New(rand.NewSource(time.Now().UnixNano()))}
	for i, s := range shards {
		if s.Name == "" || len(s.Addrs) == 0 {
			return nil, fmt.Errorf("netauth: gateway shard %d needs a name and at least one address", i)
		}
		for v := 0; v < g.cfg.VirtualNodes; v++ {
			g.ring = append(g.ring, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", s.Name, v)), shard: i})
		}
	}
	sort.Slice(g.ring, func(a, b int) bool { return g.ring[a].hash < g.ring[b].hash })
	return g, nil
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck
	return h.Sum64()
}

// ShardFor returns the shard that owns chipID on the hash ring.
func (g *Gateway) ShardFor(chipID string) GatewayShard {
	h := ringHash(chipID)
	i := sort.Search(len(g.ring), func(i int) bool { return g.ring[i].hash >= h })
	if i == len(g.ring) {
		i = 0
	}
	return g.shards[g.ring[i].shard]
}

// Serve accepts device connections on ln until Close.
func (g *Gateway) Serve(ln net.Listener) error {
	g.mu.Lock()
	g.ln = ln
	g.mu.Unlock()
	if g.closed.Load() {
		ln.Close()
		return fmt.Errorf("netauth: gateway closed")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if g.closed.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.handle(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight sessions to unwind (each is
// bounded by the backend's own session deadlines).
func (g *Gateway) Close() {
	if g.closed.Swap(true) {
		return
	}
	g.mu.Lock()
	ln := g.ln
	g.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	g.wg.Wait()
}

// handle routes one session: peek the hello, pick the shard owner, splice.
func (g *Gateway) handle(client net.Conn) {
	defer client.Close()
	gatewaySessions.Inc()
	gatewayActive.Inc()
	defer gatewayActive.Dec()

	br := bufio.NewReader(client)
	client.SetReadDeadline(time.Now().Add(gatewayHelloTimeout))
	opening, chipID, span, ok := g.readOpening(client, br)
	if !ok {
		return
	}
	client.SetReadDeadline(time.Time{})
	span.SetAttr("chip", chipID)
	defer span.End()

	// Route, forward the opening frame, and peek the backend's first reply:
	// a "moved" error there is a rebalanced range whose redirect the gateway
	// follows (within budget) so the device never sees the topology change.
	// Each attempt gets its own hop span, so redirects and re-routes show up
	// as sibling hops under the gateway session.
	shard := g.ShardFor(chipID)
	addrs, label := shard.Addrs, shard.Name
	budget := gatewayRedirectBudget
	var backend net.Conn
	var bbr *bufio.Reader
	var firstReply []byte
	for {
		hop := dtrace.Default.StartSpan(span.Context(), "gateway.hop")
		backend = g.dialAddrs(addrs)
		if backend == nil {
			gatewayUnroutable.Inc()
			hop.SetStatus("error:unroutable")
			hop.End()
			span.SetStatus("refused:" + CodeBusy)
			g.refuse(client, CodeBusy, fmt.Sprintf("gateway: no reachable owner for %s", label), true)
			return
		}
		hop.SetAttr("backend", backend.RemoteAddr().String())
		if _, err := backend.Write(opening); err != nil {
			backend.Close()
			hop.SetStatus("error:write")
			hop.End()
			span.SetStatus("refused:" + CodeBusy)
			g.refuse(client, CodeBusy, "gateway: shard owner dropped the session", true)
			return
		}
		bbr = bufio.NewReader(backend)
		backend.SetReadDeadline(time.Now().Add(gatewayHelloTimeout))
		reply, moved, redirect, err := g.readReply(bbr)
		if err != nil {
			backend.Close()
			hop.SetStatus("error:read")
			hop.End()
			span.SetStatus("refused:" + CodeBusy)
			g.refuse(client, CodeBusy, "gateway: shard owner dropped the session", true)
			return
		}
		backend.SetReadDeadline(time.Time{})
		if moved && redirect != "" && budget > 0 {
			budget--
			backend.Close()
			gatewayRedirects.Inc()
			hop.SetStatus("redirect")
			hop.SetAttr("redirect", redirect)
			hop.End()
			addrs, label = []string{redirect}, "redirect "+redirect
			continue
		}
		hop.SetStatus("ok")
		hop.End()
		firstReply = reply
		break
	}
	span.SetStatus("ok")
	defer backend.Close()
	if _, err := client.Write(firstReply); err != nil {
		return
	}

	// Bidirectional splice.  When either side finishes, both close; the
	// surviving copy then unblocks and the session ends.
	done := make(chan struct{}, 2)
	go func() {
		buf := make([]byte, 32<<10)
		copyConn(backend, br, buf) // br first: it may hold bytes past the hello
		done <- struct{}{}
	}()
	go func() {
		buf := make([]byte, 32<<10)
		copyConn(client, bbr, buf) // bbr: it may hold bytes past the first reply
		done <- struct{}{}
	}()
	<-done
	client.Close()
	backend.Close()
	<-done
}

// readOpening reads the device's opening frame, returning the bytes to
// forward, the chip ID to route on, and the session's gateway span.
// Anything but a well-formed hello or keyex_init — including bytes of
// another protocol — gets a bad_message refusal.
//
// Trace mint-or-adopt: a device hello carrying a parseable trace context
// makes the gateway span a child of the device's; anything else — absent,
// malformed, oversized — mints a fresh root trace.  Either way the frame is
// re-encoded with the gateway span's context, so downstream spans nest
// under it.
func (g *Gateway) readOpening(client net.Conn, br *bufio.Reader) (opening []byte, chipID string, span *dtrace.Span, ok bool) {
	raw, err := wire.ReadRawFrame(br)
	if err != nil {
		if errors.Is(err, wire.ErrFrame) {
			g.refuse(client, CodeBadMessage, "gateway: bad opening frame", false)
		}
		return nil, "", nil, false
	}
	var m wire.Msg
	if err := wire.Decode(raw, &m); err != nil ||
		(m.Type != wire.THello && m.Type != wire.TKeyexInit) || m.ChipID == "" {
		g.refuse(client, CodeBadMessage, "gateway: first frame must be a hello or keyex_init", false)
		return nil, "", nil, false
	}
	span = g.sessionSpan(m.Trace)
	m.Trace = span.Context().String()
	return wire.AppendFrame(raw[:0], &m), m.ChipID, span, true
}

// sessionSpan starts the "gateway.session" span: a child of the device's
// context when deviceTrace parses, a fresh root trace otherwise.
func (g *Gateway) sessionSpan(deviceTrace string) *dtrace.Span {
	if tc, adopted := dtrace.ParseContext(deviceTrace); adopted {
		return dtrace.Default.StartSpan(tc, "gateway.session")
	}
	return dtrace.Default.StartRoot("gateway.session")
}

// readReply reads the backend's first reply and reports whether it is a
// follow-able "moved" redirect.
func (g *Gateway) readReply(bbr *bufio.Reader) (reply []byte, moved bool, redirect string, err error) {
	raw, err := wire.ReadRawFrame(bbr)
	if err != nil {
		return nil, false, "", err
	}
	var m wire.Msg
	if derr := wire.Decode(raw, &m); derr == nil &&
		m.Type == wire.TError && codeFromByte(m.Code) == CodeMoved {
		return raw, true, m.Redirect, nil
	}
	return raw, false, "", nil
}

func copyConn(dst net.Conn, src io.Reader, buf []byte) {
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// dialAddrs tries candidate addresses in priority order, skipping backends
// inside their down backoff (unless every candidate is marked down, in which
// case all are probed).  A successful later-candidate dial is a re-route.
func (g *Gateway) dialAddrs(addrs []string) net.Conn {
	for pass := 0; pass < 2; pass++ {
		for i, addr := range addrs {
			if pass == 0 && g.isDown(addr) {
				continue
			}
			conn, err := net.DialTimeout("tcp", addr, g.cfg.DialTimeout)
			if err != nil {
				g.markDown(addr)
				continue
			}
			g.markUp(addr)
			if i > 0 {
				gatewayReroutes.Inc()
			}
			return conn
		}
		// Second pass only if the first skipped someone.
		if !g.anyDown(addrs) {
			break
		}
	}
	return nil
}

func (g *Gateway) isDown(addr string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	st, ok := g.down[addr]
	return ok && time.Now().Before(st.until)
}

func (g *Gateway) anyDown(addrs []string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := time.Now()
	for _, a := range addrs {
		if st, ok := g.down[a]; ok && now.Before(st.until) {
			return true
		}
	}
	return false
}

// markDown records a dial failure: the backoff doubles with each consecutive
// failure up to MaxCooldown, jittered into [0.5x, 1.5x) so a fleet of
// gateways spreads its re-probes of a recovering backend instead of
// stampeding it at the same instant.
func (g *Gateway) markDown(addr string) {
	g.mu.Lock()
	st := g.down[addr]
	first := st.fails == 0
	st.fails++
	backoff := g.cfg.Cooldown
	for i := 1; i < st.fails && backoff < g.cfg.MaxCooldown; i++ {
		backoff *= 2
	}
	if backoff > g.cfg.MaxCooldown {
		backoff = g.cfg.MaxCooldown
	}
	jittered := time.Duration(float64(backoff) * (0.5 + g.rng.Float64()))
	st.until = time.Now().Add(jittered)
	g.down[addr] = st
	g.mu.Unlock()
	if first {
		gatewayDownMarks.Inc()
	}
}

func (g *Gateway) markUp(addr string) {
	g.mu.Lock()
	delete(g.down, addr)
	g.mu.Unlock()
}

// refuse sends one structured error frame and closes.
func (g *Gateway) refuse(conn net.Conn, code, msg string, retryable bool) {
	frame := wire.AppendFrame(nil, &wire.Msg{
		Type: wire.TError, Code: codeToByte(code), ErrMsg: msg, Retryable: retryable,
	})
	conn.SetWriteDeadline(time.Now().Add(gatewayHelloTimeout))
	conn.Write(frame) //nolint:errcheck
}
