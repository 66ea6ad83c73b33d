package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/internal/wirebin"
)

// Session multiplexing (protocol version wire.VersionBinaryMux): one
// physical connection carries many logical sessions, each a stream id in
// the frame prefix. The demux loop (serveMux, on the accepting goroutine)
// owns the stream table and feeds the same routing path plain connections
// use — every stream is an ordinary *session to the control goroutine and
// the shards. The shared write loop (muxWriteLoop) group-commits: it drains
// every response queued across all streams into the buffered writer and
// flushes once, so K concurrent grant cycles cost ~1 write syscall instead
// of K. The per-connection rate limiter and byte accounting cover the
// physical connection, which is what the syscall budget cares about.

// maxMuxStreams bounds one connection's stream table so a misbehaving
// client cannot grow daemon state without bound; crossing it drops the
// connection.
const maxMuxStreams = 1 << 16

// muxWriteBufferBytes sizes the shared write loop's buffer. Larger than the
// per-session 4KiB default because one flush carries frames for many
// streams.
const muxWriteBufferBytes = 32 << 10

// muxResp pairs a queued response with the stream session it belongs to;
// the write loop stamps the stream id at encode time.
type muxResp struct {
	s    *session
	resp wire.Response
}

// muxConn is the shared half of a mux connection: the response queue all
// streams feed and the teardown latch. The stream table itself lives in
// serveMux's locals — only the demux loop touches it.
type muxConn struct {
	srv       *Server
	conn      net.Conn
	wr        io.Writer
	out       chan muxResp
	quit      chan struct{} // closed at teardown; the write loop drains and exits
	dead      atomic.Bool
	torn      atomic.Bool
	slowDrops *obs.Counter
}

// send enqueues one stream's response without ever blocking its caller,
// which holds a shard's lock. Overflow kills the whole connection — with one write loop per
// connection there is no way to disconnect a single slow stream, and a
// client that cannot drain its shared socket has already lost every stream
// on it.
func (mc *muxConn) send(s *session, r wire.Response) {
	if mc.dead.Load() {
		return
	}
	select {
	case mc.out <- muxResp{s, r}:
	default:
		mc.dead.Store(true)
		if mc.slowDrops != nil {
			mc.slowDrops.Inc()
		}
		mc.conn.Close()
	}
}

// teardown ends the shared write loop (which closes the connection).
// Idempotent.
func (mc *muxConn) teardown() {
	mc.dead.Store(true)
	if mc.torn.CompareAndSwap(false, true) {
		close(mc.quit)
	}
}

// serveMux is the demux loop of one mux connection, run on the accepting
// goroutine after negotiation. It owns the stream table: the first frame
// naming an unknown stream id opens that stream as a fresh session (with
// its own register deadline), and frames for dropped streams reopen them —
// the client is expected to register again, exactly as it would after a
// reconnect on a plain connection.
func (srv *Server) serveMux(conn net.Conn, br *bufio.Reader, wr io.Writer) {
	buf := srv.cfg.WriteBuffer
	if buf <= 0 {
		buf = 256
	}
	mc := &muxConn{srv: srv, conn: conn, wr: wr, quit: make(chan struct{}),
		// One queue for every stream: scaled up from the per-session buffer
		// so a grant storm across thousands of streams is absorbed by
		// batching rather than tripping the overflow disconnect.
		out: make(chan muxResp, 16*buf)}
	if srv.m != nil {
		mc.slowDrops = srv.m.slowDisconnects
	}
	srv.wg.Add(1)
	go srv.muxWriteLoop(mc)
	dec := wirebin.NewMuxRequestReader(br)
	rl := srv.newRateLimiter()
	streams := make(map[uint64]*session)
	defer func() {
		for _, s := range streams {
			select {
			case srv.reqCh <- envelope{kind: kindDisconnect, s: s}:
			case <-srv.stop:
			}
		}
		if srv.m != nil {
			srv.m.muxStreams.Add(-int64(len(streams)))
		}
		mc.teardown()
	}()
	// A negotiated-but-silent mux connection has no streams yet, hence no
	// per-stream register deadline; keep the read deadline armed until the
	// first frame so it cannot park forever.
	deadline := srv.cfg.HandshakeTimeout > 0
	if deadline {
		conn.SetReadDeadline(time.Now().Add(srv.cfg.HandshakeTimeout))
	}
	for {
		var req wire.Request
		sid, err := dec.Read(&req)
		if err != nil {
			if deadline && len(streams) == 0 {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					if srv.m != nil {
						srv.m.handshakeTimeouts.Inc()
					}
					srv.logf("calciomd: dropping unregistered connection: handshake timeout")
				}
			}
			return
		}
		if deadline {
			conn.SetReadDeadline(time.Time{})
			deadline = false
		}
		if req.Seq == 0 {
			return // reserved for pushes; a zero Seq is a client bug
		}
		s := streams[sid]
		if s != nil && s.gone.Load() {
			// The stream was dropped (idle eviction, register deadline)
			// while the connection lived on; forget it so the frame reopens
			// the stream below.
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
			s = &session{conn: conn, mc: mc, stream: sid, slowDrops: mc.slowDrops}
			if !srv.announce(s) {
				return
			}
			streams[sid] = s
			if srv.m != nil {
				srv.m.muxStreams.Add(1)
			}
		}
		admit, kill := rl.admit(srv, s, &req)
		if kill {
			return
		}
		if !admit {
			continue
		}
		if !srv.route(s, req) {
			return
		}
	}
}

// muxWriteLoop is the group-commit writer shared by every stream on one mux
// connection: each wakeup drains everything queued across all streams into
// the buffered writer and flushes once.
func (srv *Server) muxWriteLoop(mc *muxConn) {
	defer srv.wg.Done()
	defer mc.conn.Close()
	bw := bufio.NewWriterSize(mc.wr, muxWriteBufferBytes)
	var scratch []byte
	write := func(mr muxResp) {
		buf, err := wirebin.AppendMuxResponse(scratch[:0], mr.s.stream, &mr.resp)
		if err != nil {
			return // unencodable response; drop it, not the connection
		}
		scratch = buf
		if _, err := bw.Write(buf); err != nil {
			mc.dead.Store(true)
		}
	}
	// drain empties the queue without blocking and returns how many frames
	// joined the batch.
	drain := func(n int) int {
		for {
			select {
			case mr := <-mc.out:
				write(mr)
				n++
				continue
			default:
			}
			return n
		}
	}
	flush := func(n int) {
		if err := bw.Flush(); err != nil {
			mc.dead.Store(true)
		}
		if n > 0 && srv.m != nil {
			srv.m.muxBatchFrames.Observe(float64(n))
		}
	}
	for {
		select {
		case mr := <-mc.out:
			write(mr)
			// The sending reader parked this goroutine in the scheduler's
			// run-next slot; step behind the other runnable goroutines so
			// responses they are about to queue join this flush instead of
			// paying for their own.
			runtime.Gosched()
			flush(drain(1))
		case <-mc.quit:
			// Drain what arbitration queued before teardown.
			flush(drain(0))
			return
		case <-srv.stop:
			// Shutdown: closing the connection unblocks the demux loop,
			// whose teardown path owns the per-stream disconnects.
			flush(drain(0))
			return
		}
	}
}
