package wire

import "io"

// Codec negotiation. The v1 protocol is length-prefixed JSON: every frame
// starts with a 4-byte big-endian payload length, and because MaxFrame is
// 1<<20 (< 1<<24) the first byte a v1 client ever sends is 0x00. A v2-capable
// client instead opens the connection with a two-byte hello [HelloMagic,
// version]; the server peeks at the first byte, and anything other than
// HelloMagic falls through to the v1 JSON path untouched — a client that
// never negotiates sees today's protocol byte for byte. On a recognised
// hello the server answers with the same two bytes and both directions
// switch to the negotiated codec before the first frame. Clients pipeline
// the hello with their first request (typically register), so negotiation
// adds no round trip.
const (
	// HelloMagic opens a codec-negotiation hello. It can never begin a v1
	// frame: v1 length prefixes are bounded by MaxFrame < 1<<24, so their
	// first byte is always zero.
	HelloMagic = 0xCB

	// VersionJSON is the implicit v1 length-prefixed JSON protocol. It is
	// never sent on the wire; it is what a connection speaks when no hello
	// was exchanged.
	VersionJSON = 1

	// VersionBinary is the v2 binary codec implemented by internal/wirebin.
	VersionBinary = 2

	// VersionBinaryMux is the v2 binary codec with session multiplexing: the
	// connection carries many logical sessions (streams), every frame's
	// payload is prefixed with a uvarint stream id, and both sides batch
	// writes across streams into one flush (group commit). The framing is
	// otherwise VersionBinary's; a daemon that predates mux rejects the
	// hello and closes, exactly like any other unknown version.
	VersionBinaryMux = 3
)

// RequestReader decodes a stream of requests (the server's read side).
// A reader carries per-connection decode state (reused buffers, interned
// strings) and must be used from a single goroutine.
type RequestReader interface {
	Read(*Request) error
}

// RequestWriter encodes requests onto a stream (the client's write side).
// Writers do not flush; the caller owns buffering and flush policy.
type RequestWriter interface {
	Write(*Request) error
}

// ResponseReader decodes a stream of responses (the client's read side).
type ResponseReader interface {
	Read(*Response) error
}

// ResponseWriter encodes responses onto a stream (the server's write side).
type ResponseWriter interface {
	Write(*Response) error
}

// Codec constructs the per-direction, per-connection encode/decode state of
// one wire format. Reader and writer halves of a connection may live in
// different goroutines, so each half is constructed independently.
type Codec interface {
	// Name identifies the codec in logs and metric labels: "json" or "binary".
	Name() string
	NewRequestReader(r io.Reader) RequestReader
	NewRequestWriter(w io.Writer) RequestWriter
	NewResponseReader(r io.Reader) ResponseReader
	NewResponseWriter(w io.Writer) ResponseWriter
}

// JSON is the v1 length-prefixed JSON codec. Its byte stream is exactly the
// protocol that predates codec negotiation.
var JSON Codec = jsonCodec{}

type jsonCodec struct{}

func (jsonCodec) Name() string { return "json" }

func (jsonCodec) NewRequestReader(r io.Reader) RequestReader {
	return jsonReader[Request]{NewReader(r)}
}
func (jsonCodec) NewRequestWriter(w io.Writer) RequestWriter { return &jsonWriter[Request]{w: w} }
func (jsonCodec) NewResponseReader(r io.Reader) ResponseReader {
	return jsonReader[Response]{NewReader(r)}
}
func (jsonCodec) NewResponseWriter(w io.Writer) ResponseWriter { return &jsonWriter[Response]{w: w} }

// jsonReader is one direction's read half: a Reader typed to its message.
type jsonReader[T Request | Response] struct{ r *Reader }

func (j jsonReader[T]) Read(v *T) error { return j.r.Read(v) }

// jsonWriter is one direction's write half. It encodes into a buffer kept
// between calls and writes header and payload as one frame.
type jsonWriter[T Request | Response] struct {
	w   io.Writer
	buf []byte
}

func (j *jsonWriter[T]) Write(v *T) error {
	buf, err := appendFrame(j.buf[:0], v)
	if err != nil {
		return err
	}
	j.buf = buf[:0]
	_, err = j.w.Write(buf)
	return err
}
