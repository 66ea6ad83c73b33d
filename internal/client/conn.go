package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/internal/wirebin"
)

// muxBufferBytes sizes a mux connection's buffered reader: larger than a
// plain connection's because one daemon write carries many streams.
const muxBufferBytes = 32 << 10

// resumeWindow bounds a resume: a fresh connection whose registered streams
// have not all re-registered within it is lost like any other, so a
// successor that accepts the handshake and never answers cannot park
// callers past FailOpen.
const resumeWindow = 5 * time.Second

// conn is the one connection machine: a physical daemon connection and the
// logical sessions (streams) riding it. A plain v1/v2 connection is a conn
// of exactly one stream whose id the framing elides; a v3 mux connection
// carries many, each frame prefixed by its stream id. Dial, negotiation,
// the read loop, connection loss, recovery with fail-open and per-stream
// resume are the same code for both; the negotiated framing selects only
// how frames are encoded and when they are flushed.
type conn struct {
	addr  string
	opts  Options
	codec wire.Codec
	mux   bool // v3 framing: stream-prefixed frames, group-committed writes

	// mu guards the connection state and the stream table.
	mu         sync.Mutex
	nc         net.Conn
	gen        uint64 // counts adopted connections
	up         bool   // nc is adopted and its read loop running
	closed     bool
	recovering bool  // a recoverLoop goroutine owns redial and resume
	dead       error // terminal: the connection is gone and Reconnect is off
	streams    map[uint64]*Client
	nextStream uint64

	// wmu guards the write side: out holds the frames encoded for
	// generation wgen and not yet written to wnc, which is nil once that
	// generation is lost. It is never held across a write (see send).
	wmu      sync.Mutex
	wnc      net.Conn
	wgen     uint64
	out      outBuf
	spare    outBuf // the buffer last written, reused as the next out
	flushing bool
	enc      wire.RequestWriter // a plain connection's encoder, into out
	encReq   wire.Request       // enc's argument, so callers' requests stay on their stacks

	done chan struct{} // closed with the connection
}

// Mux shares one physical daemon connection across many logical sessions
// (protocol version wire.VersionBinaryMux). Each Client() handle is a full
// Client — register, coordinate, reconnect/resume, fail open — on the same
// connection machine a plain Client uses, with its frames carrying a
// stream id instead of owning a socket: N sessions cost one descriptor, one
// reader goroutine, and (through group-committed writes) ~1 write syscall
// per burst of concurrent requests instead of N. The daemon batches its
// responses the same way. Connection failure is shared by construction:
// every stream's parked calls fail together, one redial resumes every
// registered stream, and FailOpen degrades them together.
type Mux struct{ cn *conn }

// DialMux connects one multiplexed physical connection. The codec is the v2
// binary wire format with the mux extension — Options.Codec is ignored. As
// with DialOptions, a failed initial dial is fatal unless both Reconnect
// and FailOpen are set, in which case the mux starts down and recovers (or
// degrades) in the background.
func DialMux(addr string, opts Options) (*Mux, error) {
	cn := newConn(addr, opts, wirebin.Codec{}, true)
	if err := cn.start(); err != nil {
		return nil, err
	}
	return &Mux{cn}, nil
}

// Client opens a new logical session on the mux. The handle is an ordinary
// *Client; Close it to drop the stream without touching the shared
// connection. Sessions created while the mux is down start down and unpark
// when the connection recovers.
func (m *Mux) Client() (*Client, error) { return m.cn.stream() }

// Close tears the mux down: the shared connection closes and every stream's
// client closes with it.
func (m *Mux) Close() error {
	m.cn.close()
	return nil
}

func newConn(addr string, opts Options, codec wire.Codec, mux bool) *conn {
	if opts.BackoffMin <= 0 {
		opts.BackoffMin = DefaultBackoffMin
	}
	if opts.BackoffMax < opts.BackoffMin {
		opts.BackoffMax = DefaultBackoffMax
	}
	return &conn{addr: addr, opts: opts, codec: codec, mux: mux,
		streams: make(map[uint64]*Client), done: make(chan struct{})}
}

// start makes the first connection. A failed dial is fatal unless both
// Reconnect and FailOpen are set: then the connection starts down and
// recovers (or fails open) in the background.
func (cn *conn) start() error {
	nc, err := net.Dial("tcp", cn.addr)
	if err != nil {
		if !cn.opts.Reconnect || cn.opts.FailOpen <= 0 {
			return err
		}
		cn.recovering = true
		go cn.recoverLoop()
		return nil
	}
	cn.open(nc)
	return nil
}

// stream opens a logical session on the connection, in the connection's
// state: healthy when up, terminal when dead, down (parked until recovery)
// otherwise.
func (cn *conn) stream() (*Client, error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.closed {
		return nil, ErrClosed
	}
	cn.nextStream++
	c := &Client{
		cn:      cn,
		stream:  cn.nextStream,
		pending: make(map[uint64]*pendingCall),
		auth:    make(map[string]bool),
		journal: make(map[string]*tjournal),
		done:    make(chan struct{}),
	}
	switch {
	case cn.dead != nil:
		c.termErr = cn.dead
	case cn.up:
		c.gen, c.healthy = cn.gen, true
	default:
		c.stateCh = make(chan struct{})
	}
	cn.streams[c.stream] = c
	return c, nil
}

// list snapshots the stream table (caller holds mu).
func (cn *conn) list() []*Client {
	cs := make([]*Client, 0, len(cn.streams))
	for _, c := range cn.streams {
		cs = append(cs, c)
	}
	return cs
}

// detach removes a closed client's stream from the table.
func (cn *conn) detach(stream uint64) {
	cn.mu.Lock()
	delete(cn.streams, stream)
	cn.mu.Unlock()
}

// close tears the connection down; every stream's client closes with it.
func (cn *conn) close() {
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		return
	}
	cn.closed = true
	nc, streams := cn.nc, cn.list()
	cn.mu.Unlock()
	close(cn.done)
	if nc != nil {
		nc.Close()
	}
	for _, c := range streams {
		c.Close()
	}
}

// open adopts nc as the connection's next generation and resumes every
// stream on it. The codec hello (none on v1 JSON) is buffered in front of
// the first frame, so negotiation costs no round trip, and the read loop
// checks the daemon's ack. Each registered stream re-registers — same
// name, next incarnation, its degraded report — through an ordinary round
// trip and unparks its callers once its own register lands; unregistered
// streams unpark at once. One read deadline bounds the whole window. open
// reports whether every stream is back on a connection that is still up;
// otherwise that connection is lost (a retryable rejection cycles it) and
// recovery goes on.
func (cn *conn) open(nc net.Conn) bool {
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		nc.Close()
		return false
	}
	cn.gen++
	gen := cn.gen
	cn.nc, cn.up = nc, true
	streams := cn.list()
	cn.mu.Unlock()

	var hello byte
	size := 4096
	switch {
	case cn.mux:
		hello, size = wire.VersionBinaryMux, muxBufferBytes
	case cn.codec.Name() != "json":
		hello = wire.VersionBinary
	}
	cn.wmu.Lock()
	cn.wnc, cn.wgen, cn.out = nc, gen, cn.out[:0]
	if hello != 0 {
		cn.out = append(cn.out, wire.HelloMagic, hello)
	}
	if !cn.mux {
		cn.enc = cn.codec.NewRequestWriter(&cn.out)
	}
	cn.wmu.Unlock()
	go cn.readLoop(bufio.NewReaderSize(nc, size), gen, hello)

	nc.SetReadDeadline(time.Now().Add(resumeWindow))
	var wg sync.WaitGroup
	var failed atomic.Bool
	for _, c := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !c.resume(gen) {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		cn.connLost(gen, errors.New("resume failed"))
		return false
	}
	nc.SetReadDeadline(time.Time{})
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if gen != cn.gen || !cn.up {
		return false
	}
	cn.recovering = false
	return true
}

// readLoop is the one reader of a connection generation: it checks the
// negotiation ack, then dispatches every response frame to its stream —
// the only stream, for plain framing — in arrival order. On exit it reports
// the loss.
func (cn *conn) readLoop(br *bufio.Reader, gen uint64, hello byte) {
	var err error
	if hello != 0 {
		err = readAck(br, hello)
	}
	var frames interface {
		Read(*wire.Response) (uint64, error)
	}
	if cn.mux {
		frames = wirebin.NewMuxResponseReader(br)
	} else {
		frames = oneStream{cn.codec.NewResponseReader(br)}
	}
	var resp wire.Response
	for err == nil {
		resp = wire.Response{}
		var sid uint64
		if sid, err = frames.Read(&resp); err == nil {
			cn.mu.Lock()
			c := cn.streams[sid]
			cn.mu.Unlock()
			if c != nil {
				c.dispatch(&resp)
			}
		}
	}
	cn.connLost(gen, err)
}

// readAck consumes the daemon's echo of the codec hello.
func readAck(br *bufio.Reader, hello byte) error {
	var ack [2]byte
	if _, err := io.ReadFull(br, ack[:]); err != nil {
		return err
	}
	if ack != [2]byte{wire.HelloMagic, hello} {
		return fmt.Errorf("client: bad codec negotiation ack %x", ack)
	}
	return nil
}

// oneStream reads a plain connection's responses: the framing elides the
// stream id, so every frame belongs to the connection's only stream (ids
// start at 1).
type oneStream struct{ wire.ResponseReader }

func (o oneStream) Read(resp *wire.Response) (uint64, error) { return 1, o.ResponseReader.Read(resp) }

// send buffers one stream's request for connection generation gen,
// failing if that generation is not the live one. A sender that finds no
// flush in progress flushes; senders that arrive while it writes only
// append, and their frames ride its next write. A flush error is not
// reported here — the broken connection fails the read loop, which owns
// connection loss.
func (cn *conn) send(gen, stream uint64, req *wire.Request) error {
	cn.wmu.Lock()
	if cn.wnc == nil || cn.wgen != gen {
		cn.wmu.Unlock()
		return errors.New("not connected")
	}
	var err error
	if cn.mux {
		cn.out, err = wirebin.AppendMuxRequest(cn.out, stream, req)
	} else {
		cn.encReq = *req
		err = cn.enc.Write(&cn.encReq)
	}
	lead := err == nil && !cn.flushing
	cn.flushing = cn.flushing || lead
	cn.wmu.Unlock()
	if lead {
		cn.flush() // no flush was in progress: this sender writes
	}
	return err
}

// flush writes the buffered frames without holding wmu, swapping buffers
// with the senders, until a pass finds nothing new. On a mux connection a
// write first steps behind the other runnable goroutines until a step adds
// no frame, so streams ready to send share its syscall (group commit).
func (cn *conn) flush() {
	cn.wmu.Lock()
	for n := 0; len(cn.out) > 0 && cn.wnc != nil; {
		if cn.mux && n != len(cn.out) {
			n = len(cn.out)
			cn.wmu.Unlock()
			runtime.Gosched()
			cn.wmu.Lock()
			continue
		}
		buf, nc := cn.out, cn.wnc
		cn.out, n = cn.spare[:0], 0
		cn.wmu.Unlock()
		nc.Write(buf)
		cn.wmu.Lock()
		cn.spare = buf
	}
	cn.flushing = false
	cn.wmu.Unlock()
}

// outBuf is an encoder's destination: Write appends.
type outBuf []byte

func (b *outBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// connLost handles the death of connection generation gen — seen by its
// reader, a failed resume, or a daemon that said it is draining: every
// stream's parked calls fail together, then (with Reconnect) one recovery
// redials for all of them, or (without) every stream dies.
func (cn *conn) connLost(gen uint64, cause error) {
	cn.mu.Lock()
	if cn.closed || gen != cn.gen || !cn.up {
		cn.mu.Unlock()
		return
	}
	cn.up = false
	cn.nc.Close()
	err := fmt.Errorf("client: connection lost: %w", cause)
	reconnect, spawn := cn.opts.Reconnect, false
	if reconnect {
		// A loss inside a resume window belongs to the running recovery.
		spawn, cn.recovering = !cn.recovering, true
	} else {
		cn.dead = err
	}
	streams := cn.list()
	cn.mu.Unlock()
	// Nothing more is sent on the dead generation — before parked calls
	// are failed, so a call that parks after the sweep cannot be buffered
	// into a connection nobody will ever answer on.
	cn.wmu.Lock()
	cn.wnc, cn.out = nil, cn.out[:0]
	cn.wmu.Unlock()
	for _, c := range streams {
		c.down(err, reconnect)
	}
	if spawn {
		go cn.recoverLoop()
	}
}

// recoverLoop redials with exponential backoff plus jitter until every
// stream is resumed on a fresh connection or the connection closes. The
// fail-open clock runs from the loss to the end of the loop, across resume
// windows that expire: past FailOpen every stream degrades (callers
// self-serve, new streams on the next tick) while the loop keeps trying.
func (cn *conn) recoverLoop() {
	backoff := cn.opts.BackoffMin
	var failAt time.Time
	if cn.opts.FailOpen > 0 {
		failAt = time.Now().Add(cn.opts.FailOpen)
	}
	for {
		cn.mu.Lock()
		closed, streams := cn.closed, cn.list()
		cn.mu.Unlock()
		if closed {
			return
		}
		if !failAt.IsZero() && time.Now().After(failAt) {
			for _, c := range streams {
				c.enterDegraded()
			}
		}
		if nc, err := net.DialTimeout("tcp", cn.addr, time.Second); err == nil && cn.open(nc) {
			return
		}
		d := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		select {
		case <-time.After(d):
		case <-cn.done:
			return
		}
		if backoff *= 2; backoff > cn.opts.BackoffMax {
			backoff = cn.opts.BackoffMax
		}
	}
}
