package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/wirebin"
)

func (srv *Server) startSession(conn net.Conn) {
	srv.wg.Add(1)
	go srv.serveConn(conn)
}

// maxMuxStreams bounds one connection's stream table so a misbehaving
// client cannot grow daemon state without bound; crossing it drops the
// connection.
const maxMuxStreams = 1 << 16

// muxWriteBufferBytes sizes a mux connection's buffered writer: larger than
// a plain connection's 4KiB because one flush carries frames for many
// streams.
const muxWriteBufferBytes = 32 << 10

// conn is one accepted connection and the sessions (streams) riding it,
// served by one reader goroutine and one writer goroutine. A plain v1/v2
// connection is a conn with exactly one implicit stream whose id the
// framing elides; a v3 mux connection carries many, each frame prefixed by
// its stream id. The handshake deadline, rate limit, slow-client
// disconnect and byte counting exist once; the negotiated framing selects
// only the encoding, the flush strategy and what a dropped stream means.
type conn struct {
	srv   *Server
	nc    net.Conn
	codec wire.Codec
	mux   bool
	out   chan outFrame
	quit  chan struct{} // closed at teardown; the writer drains and exits
	dead  atomic.Bool   // overflowed, failed or torn down: later responses are dropped
	torn  atomic.Bool
}

// outFrame is one queued response and the stream it answers.
type outFrame struct {
	stream uint64
	resp   wire.Response
}

// send enqueues one stream's response without ever blocking its caller,
// which holds a shard's lock: a client too slow to drain the queue is
// disconnected rather than allowed to stall arbitration for everyone else.
// Overflow kills the whole connection — with one writer per connection
// there is no way to disconnect a single slow stream, and a client that
// cannot drain its socket has already lost every stream on it.
func (c *conn) send(stream uint64, r wire.Response) {
	if c.dead.Load() {
		return
	}
	select {
	case c.out <- outFrame{stream, r}:
	default:
		if c.dead.CompareAndSwap(false, true) {
			if c.srv.m != nil {
				c.srv.m.slowDisconnects.Inc()
			}
			c.nc.Close()
		}
	}
}

// teardown ends the writer, which drains what was queued and closes the
// connection. Idempotent.
func (c *conn) teardown() {
	c.dead.Store(true)
	if c.torn.CompareAndSwap(false, true) {
		close(c.quit)
	}
}

// oneStream reads a plain connection's frames: the framing elides the
// stream id, so every frame belongs to the one implicit stream.
type oneStream struct{ wire.RequestReader }

func (o oneStream) Read(req *wire.Request) (uint64, error) { return 1, o.RequestReader.Read(req) }

// serveConn is an accepted connection's reader goroutine. It negotiates the
// wire codec, starts the writer, then reads frames, charges the rate limit
// (one bucket for the physical connection, which is what the syscall
// budget cares about) and routes each to its stream's session (see route),
// running coordination verbs to completion itself. The first frame naming
// a stream opens it with its own register deadline; until the first frame
// the connection has no session, so the handshake deadline is a read
// deadline and a silent connection cannot park here forever.
func (srv *Server) serveConn(nc net.Conn) {
	defer srv.wg.Done()
	var rd io.Reader = nc
	var wr io.Writer = nc
	if srv.m != nil {
		rd = countReader{nc, srv.m.bytesIn}
		wr = countWriter{nc, srv.m.bytesOut}
	}
	deadline := srv.cfg.HandshakeTimeout > 0
	if deadline {
		nc.SetReadDeadline(time.Now().Add(srv.cfg.HandshakeTimeout))
	}
	br := bufio.NewReader(rd)
	codec, mux, err := srv.negotiate(br, wr)
	if err != nil {
		srv.handshakeFailed(err)
		nc.Close()
		return
	}
	if srv.m != nil {
		srv.m.conns(codec.Name(), mux).Inc()
	}
	queue := srv.cfg.WriteBuffer
	if queue <= 0 {
		queue = 256
	}
	var frames interface {
		Read(*wire.Request) (uint64, error)
	} = oneStream{codec.NewRequestReader(br)}
	if mux {
		// One queue for every stream: scaled up from the per-session buffer
		// so a grant storm across thousands of streams is absorbed by
		// batching rather than tripping the overflow disconnect.
		queue *= 16
		frames = wirebin.NewMuxRequestReader(br)
	}
	c := &conn{srv: srv, nc: nc, codec: codec, mux: mux,
		out: make(chan outFrame, queue), quit: make(chan struct{})}
	srv.wg.Add(1)
	go c.writeLoop(wr)

	rl := srv.newRateLimiter()
	streams := make(map[uint64]*session)
	defer func() {
		for _, s := range streams {
			select {
			case srv.reqCh <- envelope{kind: kindDisconnect, s: s}:
			case <-srv.stop:
			}
		}
		if mux && srv.m != nil {
			srv.m.muxStreams.Add(-int64(len(streams)))
		}
		c.teardown()
	}()
	var req wire.Request
	for {
		req = wire.Request{}
		sid, err := frames.Read(&req)
		if err != nil {
			if deadline {
				srv.handshakeFailed(err)
			}
			return
		}
		if deadline {
			nc.SetReadDeadline(time.Time{})
			deadline = false
		}
		if req.Seq == 0 {
			return // reserved for pushes; a zero Seq is a client bug
		}
		s := streams[sid]
		if s != nil && s.gone.Load() {
			if !mux {
				return // the only stream was dropped: the connection goes with it
			}
			// The stream was dropped (idle eviction, register deadline)
			// while the connection lived on; forget it so the frame reopens
			// the stream below — the client is expected to register again,
			// exactly as it would after a reconnect.
			delete(streams, sid)
			if srv.m != nil {
				srv.m.muxStreams.Add(-1)
			}
			s = nil
		}
		if s == nil {
			if len(streams) >= maxMuxStreams {
				srv.logf("calciomd: mux connection exceeded %d streams, dropping", maxMuxStreams)
				return
			}
			s = &session{c: c, stream: sid}
			if !srv.announce(s) {
				return
			}
			streams[sid] = s
			if mux && srv.m != nil {
				srv.m.muxStreams.Add(1)
			}
		}
		admit, kill := rl.admit(srv, s, &req)
		if kill {
			return
		}
		if admit && !srv.route(s, req) {
			return
		}
	}
}

// handshakeFailed counts and logs a connection that reached its handshake
// deadline before its first frame.
func (srv *Server) handshakeFailed(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if srv.m != nil {
			srv.m.handshakeTimeouts.Inc()
		}
		srv.logf("calciomd: dropping unregistered connection: handshake timeout")
	}
}

// sheddable reports whether a verb may be answered with CodeOverloaded
// under brownout. Advisory verbs only: a shed inform/check/progress/stats
// costs the client a backoff and a retry. State-critical verbs — register,
// prepare/complete, wait, release, end — are always admitted: shedding a
// release or end would wedge the grant pipeline behind a holder the daemon
// itself refused to hear from.
func sheddable(t string) bool {
	switch t {
	case wire.TypeInform, wire.TypeProgress, wire.TypeCheck, wire.TypeStats:
		return true
	}
	return false
}

// shedReply answers one shed request. The response carries no Authorized
// bit — the reader goroutine cannot see shard state — which is why the
// client library ignores the bit on busy/overloaded replies.
func (srv *Server) shedReply(s *session, seq uint64, verb, target string, now float64) {
	if srv.cfg.Events != nil {
		srv.cfg.Events.Emit(obs.Event{Kind: obs.EvShed, Time: now,
			App: s.name(), Target: target})
	}
	s.send(wire.Response{Seq: seq, Type: wire.TypeResp,
		Err:  "overloaded: " + verb + " shed, back off and retry",
		Code: wire.CodeOverloaded, Target: target})
}

// countReader and countWriter sit between a connection and its buffered
// reader/writer, counting wire bytes into registry counters with one atomic
// add per syscall-level read or write.
type countReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.c.Add(uint64(n))
	}
	return n, err
}

type countWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.c.Add(uint64(n))
	}
	return n, err
}

// negotiate sniffs the connection's first byte to pick its wire codec. A v1
// JSON client's first byte is always 0x00 (frame lengths are bounded far
// below 1<<24), so anything but wire.HelloMagic falls through to the JSON
// codec with the byte stream untouched. On a hello it consumes the two
// hello bytes, writes the two-byte ack echoing the accepted version (no
// write loop exists yet, so serveConn's goroutine owns the connection), and
// switches the connection to the negotiated codec before the first frame.
// The returned mux flag selects the session-multiplexed framing on top of
// the binary codec (wire.VersionBinaryMux).
func (srv *Server) negotiate(br *bufio.Reader, wr io.Writer) (wire.Codec, bool, error) {
	first, err := br.Peek(1)
	if err != nil {
		return nil, false, err
	}
	if first[0] != wire.HelloMagic {
		return wire.JSON, false, nil
	}
	var hello [2]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return nil, false, err
	}
	if hello[1] != wire.VersionBinary && hello[1] != wire.VersionBinaryMux {
		return nil, false, fmt.Errorf("unsupported codec version %d", hello[1])
	}
	if _, err := wr.Write(hello[:]); err != nil {
		return nil, false, err
	}
	return wirebin.Codec{}, hello[1] == wire.VersionBinaryMux, nil
}

// rateLimiter is a per-connection token bucket, plain locals on the reader
// goroutine: zero allocation, zero locks, refilled from the server clock so
// injected logical clocks keep tests deterministic. Burst equals the rate
// (at least 1), so a client may front-load one second's worth of requests.
// On a mux connection one bucket covers all streams — the limit bounds the
// physical connection, which is what the syscall budget cares about.
type rateLimiter struct {
	limit   float64
	burst   float64
	tokens  float64
	last    float64
	strikes int
}

func (srv *Server) newRateLimiter() rateLimiter {
	limit := srv.cfg.RateLimit
	burst := limit
	if burst < 1 {
		burst = 1
	}
	rl := rateLimiter{limit: limit, burst: burst, tokens: burst}
	if limit > 0 {
		rl.last = srv.clock()
	}
	return rl
}

// admit charges one request against the bucket. A false admit answered the
// request (shed with a retryable warning); kill means sustained abuse and
// the connection must be dropped.
func (rl *rateLimiter) admit(srv *Server, s *session, req *wire.Request) (bool, bool) {
	if rl.limit <= 0 {
		return true, false
	}
	now := srv.clock()
	rl.tokens += (now - rl.last) * rl.limit
	if rl.tokens > rl.burst {
		rl.tokens = rl.burst
	}
	rl.last = now
	if rl.tokens < 1 {
		// Over the limit: one retryable warning, then sustained abuse (a
		// second violation with no compliant request in between)
		// disconnects the client.
		rl.strikes++
		if srv.m != nil {
			srv.m.rateLimited.Inc()
		}
		if rl.strikes > 1 {
			srv.cfg.Events.Emit(obs.Event{Kind: obs.EvRateLimit,
				Time: now, App: s.name(), Queue: int32(rl.strikes)})
			return false, true
		}
		srv.cfg.Events.Emit(obs.Event{Kind: obs.EvRateLimit,
			Time: now, App: s.name(), Queue: 1})
		s.send(wire.Response{Seq: req.Seq, Type: wire.TypeResp,
			Err:  "overloaded: per-connection rate limit exceeded, back off",
			Code: wire.CodeOverloaded, Target: req.Target})
		return false, false
	}
	rl.tokens--
	rl.strikes = 0
	return true, false
}

// route handles one decoded request on the connection's reader goroutine. A
// coordination verb is served right here, under the lock of the shard of the
// target it addresses; register and stats go to the control loop. A
// coordination frame read before the session has an identity — a client
// pipelining ahead of its register response — also goes to the control
// loop, which processes it strictly after the register it was queued behind
// and serves it on the right shard, so the frame is never misrouted to the
// wrong coordination domain. Returns false when the server is stopping.
func (srv *Server) route(s *session, req wire.Request) bool {
	coordination := req.Type != wire.TypeRegister && req.Type != wire.TypeStats
	if coordination && s.id.Load() != nil && s.viaControl.Load() == 0 {
		target := srv.routeTarget(s, req.Target)
		sh := s.lastShard
		if sh == nil || sh.target != target {
			var err error
			if sh, err = srv.shardFor(target); err != nil {
				s.reply(req.Seq, err, req.Target)
				return true
			}
			s.lastShard = sh
		}
		if sheddable(req.Type) && sh.shed() {
			if sh.m != nil {
				sh.m.sheds.Inc()
			}
			srv.shedReply(s, req.Seq, req.Type, sh.target, srv.clock())
			return true
		}
		return sh.serve(s, req)
	}
	if coordination {
		s.viaControl.Add(1)
	} else if req.Type == wire.TypeStats && srv.ctrlShed() {
		if srv.m != nil {
			srv.m.statsSheds.Inc()
		}
		srv.shedReply(s, req.Seq, req.Type, req.Target, srv.clock())
		return true
	}
	select {
	case srv.reqCh <- envelope{kind: kindRequest, s: s, req: req}:
	case <-srv.stop:
		return false
	}
	return true
}

// writeLoop is the connection's writer goroutine: each wakeup drains every
// response queued across the connection's streams into one buffered writer
// and flushes once. A plain connection flushes as soon as its queue is
// empty. A mux connection first steps behind the other runnable goroutines
// — the sending reader parked the writer in the scheduler's run-next slot —
// so responses they are about to queue join this flush instead of paying
// for their own (group commit).
func (c *conn) writeLoop(wr io.Writer) {
	defer c.srv.wg.Done()
	defer c.nc.Close()
	size := 4096
	if c.mux {
		size = muxWriteBufferBytes
	}
	bw := bufio.NewWriterSize(wr, size)
	enc := c.codec.NewResponseWriter(bw)
	var resp wire.Response // the plain encoder's argument, reused
	var scratch []byte
	// write encodes one frame; an unencodable response is dropped, not the
	// connection (a failed write surfaces at the flush).
	write := func(f *outFrame) {
		if !c.mux {
			resp = f.resp
			enc.Write(&resp)
		} else if b, err := wirebin.AppendMuxResponse(scratch[:0], f.stream, &f.resp); err == nil {
			scratch = b
			bw.Write(b)
		}
	}
	// flush writes everything still queued, without blocking, behind the n
	// frames already written and commits the batch with one syscall.
	flush := func(n int) {
		for more := true; more; {
			select {
			case f := <-c.out:
				write(&f)
				n++
			default:
				more = false
			}
		}
		if err := bw.Flush(); err != nil {
			c.dead.Store(true)
		}
		if n > 0 && c.mux && c.srv.m != nil {
			c.srv.m.muxBatchFrames.Observe(float64(n))
		}
	}
	for {
		select {
		case f := <-c.out:
			write(&f)
			if c.mux {
				runtime.Gosched()
			}
			flush(1)
		case <-c.quit:
			flush(0) // what arbitration queued before teardown
			return
		case <-c.srv.stop:
			// Shutdown: closing the connection unblocks the reader, whose
			// teardown path owns the per-stream disconnects.
			flush(0)
			return
		}
	}
}
