package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
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

// conn is one accepted connection and the sessions (streams) riding it. A
// plain v1/v2 connection is a conn with exactly one implicit stream whose id
// the framing elides; a v3 mux connection carries many, each frame prefixed
// by its stream id. The handshake deadline, rate limit, slow-client
// disconnect and byte counting exist once; the negotiated framing selects
// only the encoding and what a dropped stream means.
//
// A response leaves on the goroutine that made it. Responses queue on the
// connection, and its reader goroutine flushes the queue itself just before
// each read from the socket (flushReader), outside every lock, so the
// responses to one read's worth of frames leave in one write. The writer
// goroutine writes only what other goroutines — another connection's reader
// pushing a grant, a recheck timer, the control plane, Drain — queue while
// the reader is blocked in Read, and at teardown what is still queued.
type conn struct {
	srv  *Server
	nc   net.Conn
	wr   io.Writer // nc, or nc behind the byte counter
	mux  bool
	enc  wire.ResponseWriter // a plain connection's encoder, into buf
	buf  bytes.Buffer        // one write's frames, owned by the flushing goroutine
	quit chan struct{}       // closed at teardown; the writer writes what is queued and closes
	kick chan struct{}       // wakes the writer for frames queued while the reader reads

	// wmu guards the queue and the flush state; it is never held across a
	// write. At most one goroutine flushes at a time (flushing), and it
	// writes everything queued before it stops.
	wmu      sync.Mutex
	queue    []reply // at most max responses waiting for a flush
	spare    []reply // the batch last written, reused as the next queue
	max      int
	flushing bool
	idle     bool // the reader is blocked in Read: a sender kicks the writer
	dead     bool // overflowed, failed or torn down: later responses are dropped
	closing  bool // torn down: only the writer flushes, then closes
}

// reply is one queued response and the stream it answers.
type reply struct {
	stream uint64
	resp   wire.Response
}

// send queues one stream's response without ever blocking its caller, which
// may hold a shard's lock or the control lock: a client too slow to drain
// the queue is disconnected rather than allowed to stall arbitration for
// everyone else. Overflow kills the whole connection — a client that cannot
// drain its socket has already lost every stream on it. The reader writes
// what it queued itself before its next read; any other sender kicks the
// writer if the reader is blocked in Read.
func (c *conn) send(stream uint64, r wire.Response) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	switch {
	case c.dead:
	case len(c.queue) >= c.max:
		c.dead = true
		if c.srv.m != nil {
			c.srv.m.slowDisconnects.Inc()
		}
		c.nc.Close()
	default:
		c.queue = append(c.queue, reply{stream, r})
		if c.idle && !c.flushing {
			c.wake()
		}
	}
}

// wake kicks the writer; a kick already pending covers this one.
func (c *conn) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// teardown ends the connection: the writer writes what is queued and
// closes it. Idempotent.
func (c *conn) teardown() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.dead = true
	if !c.closing {
		c.closing = true
		close(c.quit)
	}
}

// flush is the one write path, run by the reader before each read and by
// the writer. The caller takes the queue unless a flush is in progress (that
// one writes everything queued before it stops), encodes it outside every
// lock, commits it with one write, and goes on until the queue is empty.
// Once the connection is closing only the writer flushes: a reader's flush
// that runs into teardown hands the close to the writer, and the writer's
// flush ends with the close, reported as true.
func (c *conn) flush(reader bool) bool {
	c.wmu.Lock()
	if reader {
		c.idle = true
	}
	if c.flushing || c.closing && reader {
		c.wmu.Unlock()
		return false
	}
	c.flushing = true
	for len(c.queue) > 0 {
		batch := c.queue
		c.queue = c.spare[:0]
		c.wmu.Unlock()
		ok := c.write(batch)
		c.wmu.Lock()
		c.spare, c.dead = batch, c.dead || !ok
	}
	c.flushing = false
	closing := c.closing
	c.wmu.Unlock()
	switch {
	case !closing:
		return false
	case reader:
		c.wake()
		return false
	}
	c.nc.Close()
	return true
}

// write encodes one batch and commits it with one write, reporting whether
// the write succeeded. An unencodable response is dropped, not the
// connection.
func (c *conn) write(batch []reply) bool {
	c.buf.Reset()
	for i := range batch {
		f := &batch[i]
		if !c.mux {
			c.enc.Write(&f.resp)
		} else if b, err := wirebin.AppendMuxResponse(c.buf.AvailableBuffer(), f.stream, &f.resp); err == nil {
			c.buf.Write(b)
		}
	}
	_, err := c.wr.Write(c.buf.Bytes())
	if c.mux && c.srv.m != nil {
		c.srv.m.muxBatchFrames.Observe(float64(len(batch)))
	}
	return err == nil
}

// flushReader sits under the reader's bufio.Reader, so every read from the
// socket first writes the responses queued since the last one. A reader
// blocked writing its own replies reads nothing more from that connection:
// backpressure onto that one client, with no lock held.
type flushReader struct {
	c *conn
	r io.Reader
}

func (f flushReader) Read(p []byte) (int, error) {
	f.c.flush(true)
	n, err := f.r.Read(p)
	f.c.wmu.Lock()
	f.c.idle = false
	f.c.wmu.Unlock()
	return n, err
}

// oneStream reads a plain connection's frames: the framing elides the
// stream id, so every frame belongs to the one implicit stream.
type oneStream struct{ wire.RequestReader }

func (o oneStream) Read(req *wire.Request) (uint64, error) { return 1, o.RequestReader.Read(req) }

// serveConn is an accepted connection's reader goroutine. It negotiates the
// wire codec, starts the writer, then reads frames, charges the rate limit
// (one bucket for the physical connection, which is what the syscall
// budget cares about) and runs each to completion itself on its stream's
// session (see Server.handle). The first frame naming a stream opens it
// with its own register deadline; until the first frame the connection has
// no session, so the handshake deadline is a read deadline and a silent
// connection cannot park here forever.
func (srv *Server) serveConn(nc net.Conn) {
	defer srv.wg.Done()
	c := &conn{srv: srv, nc: nc, wr: nc, quit: make(chan struct{}), kick: make(chan struct{}, 1)}
	var rd io.Reader = nc
	if srv.m != nil {
		cn := counted{nc, srv.m.bytesIn, srv.m.bytesOut}
		rd, c.wr = cn, cn
	}
	deadline := srv.cfg.HandshakeTimeout > 0
	if deadline {
		nc.SetReadDeadline(time.Now().Add(srv.cfg.HandshakeTimeout))
	}
	br := bufio.NewReader(flushReader{c, rd})
	codec, mux, err := srv.negotiate(br, c.wr)
	if err != nil {
		srv.handshakeFailed(err)
		nc.Close()
		return
	}
	if srv.m != nil {
		srv.m.conns(codec.Name(), mux).Inc()
	}
	c.max = srv.writeBuffer
	var frames interface {
		Read(*wire.Request) (uint64, error)
	} = oneStream{codec.NewRequestReader(br)}
	if mux {
		// One queue for every stream: scaled up from the per-session bound
		// so a grant storm across thousands of streams is absorbed by
		// batching rather than tripping the overflow disconnect.
		c.max *= 16
		frames = wirebin.NewMuxRequestReader(br)
	}
	c.mux, c.enc = mux, codec.NewResponseWriter(&c.buf)
	srv.wg.Add(1)
	go c.writeLoop()

	rl := srv.newRateLimiter()
	streams := make(map[uint64]*session)
	defer func() {
		if srv.ctl.enter() {
			for _, s := range streams {
				srv.disconnect(s)
			}
			srv.ctl.mu.Unlock()
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
			if !srv.open(s) {
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
		if admit && !srv.handle(s, req) {
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

// counted sits under a connection's reads and writes, counting wire bytes
// into registry counters with one atomic add per syscall-level read or
// write.
type counted struct {
	net.Conn
	rx, tx *obs.Counter
}

func (c counted) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(uint64(n))
	return n, err
}

func (c counted) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(uint64(n))
	return n, err
}

// negotiate sniffs the connection's first byte to pick its wire codec. A v1
// JSON client's first byte is always 0x00 (frame lengths are bounded far
// below 1<<24), so anything but wire.HelloMagic falls through to the JSON
// codec with the byte stream untouched. On a hello it consumes the two
// hello bytes, writes the two-byte ack echoing the accepted version (the
// writer is not started yet, so serveConn's goroutine owns the socket), and
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

// writeLoop is the connection's writer goroutine. A sender kicks it only
// for frames queued while the reader is blocked in Read; on a mux connection
// it first steps behind the other runnable goroutines — the kick parked it
// in the scheduler's run-next slot — so responses they are about to queue
// join this write instead of paying for their own (group commit). At
// teardown it writes what is still queued, after any flush in progress, and
// closes the connection.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	quit, stop := c.quit, c.srv.stop
	for {
		select {
		case <-c.kick:
			if c.mux {
				runtime.Gosched()
			}
		case <-quit:
			quit = nil
		case <-stop:
			// Shutdown: closing the connection unblocks the reader; shutdown
			// has torn the sessions down, but a mux connection outlives its
			// streams, so tear it down here. A client that has stopped
			// reading gets a second to take what is queued, not forever.
			c.nc.SetWriteDeadline(time.Now().Add(time.Second))
			c.teardown()
			quit, stop = nil, nil
		}
		if c.flush(false) {
			return
		}
	}
}
