package client_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// teeProxy forwards every accepted connection to a target and records both
// directions' bytes, per connection in accept order. With wedge set, new
// connections are not forwarded: the proxy answers the two-byte codec hello
// with its echo (the ack a daemon sends) and then reads forever — a daemon
// that accepts the handshake and never answers a frame.
type teeProxy struct {
	t      *testing.T
	ln     net.Listener
	target string
	wedge  atomic.Bool

	mu    sync.Mutex
	conns []*teeConn
	wg    sync.WaitGroup
}

// teeConn is one proxied connection's recording.
type teeConn struct {
	mu           sync.Mutex
	up, down     bytes.Buffer // client→daemon, daemon→client
	client, peer net.Conn
}

func newTeeProxy(t *testing.T, target string) *teeProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &teeProxy{t: t, ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(p.Close)
	return p
}

func (p *teeProxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting, severs every live connection and waits for the
// pumps, so the recordings are final.
func (p *teeProxy) Close() {
	p.ln.Close()
	p.mu.Lock()
	for _, tc := range p.conns {
		tc.client.Close()
		if tc.peer != nil {
			tc.peer.Close()
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *teeProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		tc := &teeConn{client: c}
		if !p.wedge.Load() {
			if tc.peer, err = net.Dial("tcp", p.target); err != nil {
				c.Close()
				continue
			}
		}
		p.mu.Lock()
		p.conns = append(p.conns, tc)
		p.mu.Unlock()
		if tc.peer == nil {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				var hello [2]byte
				if _, err := io.ReadFull(c, hello[:]); err == nil {
					c.Write(hello[:])
					io.Copy(io.Discard, c)
				}
				c.Close()
			}()
			continue
		}
		p.wg.Add(2)
		go p.pump(tc, tc.peer, c, &tc.up)
		go p.pump(tc, c, tc.peer, &tc.down)
	}
}

// pump copies src to dst, recording every forwarded byte; either side dying
// tears the pair down.
func (p *teeProxy) pump(tc *teeConn, dst, src net.Conn, rec *bytes.Buffer) {
	defer p.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			tc.mu.Lock()
			rec.Write(buf[:n])
			tc.mu.Unlock()
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}

// accepted returns how many connections the proxy has accepted.
func (p *teeProxy) accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// waitAccepted polls until at least n connections have been accepted.
func (p *teeProxy) waitAccepted(n int) {
	p.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.accepted() < n {
		if time.Now().After(deadline) {
			p.t.Fatalf("proxy accepted %d connections, want %d", p.accepted(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// render prints every recorded connection, both directions, as hex dumps.
// Call it after Close.
func (p *teeProxy) render() string {
	var sb strings.Builder
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, tc := range p.conns {
		fmt.Fprintf(&sb, "conn %d client->daemon (%d bytes)\n%s", i, tc.up.Len(), hex.Dump(tc.up.Bytes()))
		fmt.Fprintf(&sb, "conn %d daemon->client (%d bytes)\n%s", i, tc.down.Len(), hex.Dump(tc.down.Bytes()))
	}
	return sb.String()
}
