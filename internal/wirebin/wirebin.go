// Package wirebin implements the v2 binary wire codec for the calciomd
// protocol: the same Request/Response message model as internal/wire, in a
// compact fixed-order binary encoding negotiated per connection (see the
// hello/ack handshake in internal/wire).
//
// Framing: every message is a uvarint payload length followed by that many
// payload bytes. Payloads above wire.MaxFrame (or empty) are rejected on
// both read and write, mirroring the v1 JSON framing guarantees.
//
// Request payload, fixed field order:
//
//	u8      verb        1=register 2=prepare 3=complete 4=inform 5=progress
//	                    6=check 7=wait 8=release 9=end 10=stats
//	uvarint seq
//	u8      flags       bit 0 target, bit 1 bytes_done, bit 2 info,
//	                    bit 3 register extras
//	[str    target]             if flags&1
//	[f64    bytes_done]         if flags&2 (IEEE-754 bits, little-endian)
//	[info]                      if flags&4: uvarint count, then count ×
//	                            (str key, str value), keys sorted ascending
//	[register extras]           if flags&8: str app, uvarint cores,
//	                            uvarint incarnation, uvarint self_grants,
//	                            f64 degraded_s
//
// Response payload, fixed field order:
//
//	u8      type        1=resp 2=grant 3=revoke
//	uvarint seq
//	u8      flags       bit 0 ok, bit 1 authorized, bit 2 err, bit 3 code,
//	                    bit 4 target, bit 5 stats
//	[str    err]        if flags&4
//	[str    code]       if flags&8
//	[str    target]     if flags&16
//	[str    stats]      if flags&32: the wire.Stats snapshot as JSON bytes
//
// str is uvarint length + bytes. Stats rides as an embedded JSON blob: it
// is a cold, stats-verb-only payload, so the zero-allocation discipline
// below does not extend to it.
//
// Encoders append into a per-connection scratch buffer and decoders reuse a
// per-connection payload buffer and intern target/app/code strings through
// a wire.Interner (the v1 JSON codec keeps one too), so steady-state
// coordination verbs — inform/progress/check/wait/release/end and their
// responses — encode and decode with zero allocations per message.
package wirebin

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/wire"
)

// Verb and response-type enums. Values are wire format — never renumber.
const (
	verbRegister = 1
	verbPrepare  = 2
	verbComplete = 3
	verbInform   = 4
	verbProgress = 5
	verbCheck    = 6
	verbWait     = 7
	verbRelease  = 8
	verbEnd      = 9
	verbStats    = 10

	respResp   = 1
	respGrant  = 2
	respRevoke = 3
)

// Request presence flags.
const (
	reqFlagTarget    = 1 << 0
	reqFlagBytesDone = 1 << 1
	reqFlagInfo      = 1 << 2
	reqFlagRegister  = 1 << 3
)

// Response presence flags.
const (
	respFlagOK         = 1 << 0
	respFlagAuthorized = 1 << 1
	respFlagErr        = 1 << 2
	respFlagCode       = 1 << 3
	respFlagTarget     = 1 << 4
	respFlagStats      = 1 << 5
)

var verbCode = map[string]byte{
	wire.TypeRegister: verbRegister,
	wire.TypePrepare:  verbPrepare,
	wire.TypeComplete: verbComplete,
	wire.TypeInform:   verbInform,
	wire.TypeProgress: verbProgress,
	wire.TypeCheck:    verbCheck,
	wire.TypeWait:     verbWait,
	wire.TypeRelease:  verbRelease,
	wire.TypeEnd:      verbEnd,
	wire.TypeStats:    verbStats,
}

var verbName = [...]string{
	verbRegister: wire.TypeRegister,
	verbPrepare:  wire.TypePrepare,
	verbComplete: wire.TypeComplete,
	verbInform:   wire.TypeInform,
	verbProgress: wire.TypeProgress,
	verbCheck:    wire.TypeCheck,
	verbWait:     wire.TypeWait,
	verbRelease:  wire.TypeRelease,
	verbEnd:      wire.TypeEnd,
	verbStats:    wire.TypeStats,
}

var respCodeOf = map[string]byte{
	wire.TypeResp:   respResp,
	wire.TypeGrant:  respGrant,
	wire.TypeRevoke: respRevoke,
}

var respNameOf = [...]string{
	respResp:   wire.TypeResp,
	respGrant:  wire.TypeGrant,
	respRevoke: wire.TypeRevoke,
}

// Codec is the v2 binary wire.Codec.
type Codec struct{}

var _ wire.Codec = Codec{}

func (Codec) Name() string { return "binary" }

func (Codec) NewRequestReader(r io.Reader) wire.RequestReader {
	return &RequestReader{fr: newFrameReader(r)}
}

func (Codec) NewRequestWriter(w io.Writer) wire.RequestWriter {
	return &RequestWriter{w: w}
}

func (Codec) NewResponseReader(r io.Reader) wire.ResponseReader {
	return &ResponseReader{fr: newFrameReader(r)}
}

func (Codec) NewResponseWriter(w io.Writer) wire.ResponseWriter {
	return &ResponseWriter{w: w}
}

// frameReader reads uvarint-length-prefixed frames into a reused buffer.
type frameReader struct {
	r   byteReader
	n   int // frames read, for error context
	buf []byte
}

// byteReader is what frames are read from: the length varint a byte at a
// time, the payload in one go.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// newFrameReader reads frames from r, buffering it unless it is already a
// byteReader (a reader owns the stream it decodes).
func newFrameReader(r io.Reader) *frameReader {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &frameReader{r: br}
}

// next reads one frame and returns its payload, valid until the next call.
// io.EOF surfaces unchanged only at a frame boundary, exactly like the v1
// wire.Reader; a partial header or payload becomes io.ErrUnexpectedEOF.
func (fr *frameReader) next() ([]byte, error) {
	var n uint64
	for shift := uint(0); ; shift += 7 {
		b, err := fr.r.ReadByte()
		if err != nil {
			if err == io.EOF && shift > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if shift >= 35 { // 5 bytes encode up to 1<<35; MaxFrame is far below
			return nil, fmt.Errorf("wirebin: frame %d: length varint too long", fr.n)
		}
		n |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("wirebin: frame %d: bad frame length 0", fr.n)
	}
	if n > wire.MaxFrame {
		return nil, fmt.Errorf("wirebin: frame %d: frame length %d exceeds max %d", fr.n, n, wire.MaxFrame)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	buf := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wirebin: frame %d: payload: %w", fr.n, err)
	}
	fr.n++
	return buf, nil
}

var errShort = errors.New("wirebin: truncated payload")

// errBadStream rejects stream id 0 on a mux frame: ids start at 1 so an
// all-zero or truncated prefix can never alias a live stream.
var errBadStream = errors.New("wirebin: invalid mux stream id 0")

// dec is a cursor over one frame's payload.
type dec struct {
	buf []byte
}

func (d *dec) u8() (byte, error) {
	if len(d.buf) < 1 {
		return 0, errShort
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errShort
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *dec) f64() (float64, error) {
	if len(d.buf) < 8 {
		return 0, errShort
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v, nil
}

// bytes returns the next uvarint-length-prefixed byte slice, aliasing the
// frame buffer (valid until the next frame is read).
func (d *dec) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)) {
		return nil, errShort
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b, nil
}

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// writeFrame writes the uvarint length header and payload. Both writes land
// in the caller's buffered writer, so a flush is one syscall per batch.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) == 0 || len(payload) > wire.MaxFrame {
		return fmt.Errorf("wirebin: bad frame payload size %d", len(payload))
	}
	var hdr [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendRequest appends the binary encoding of req (header and payload) to
// buf and returns the extended slice. It is the encoding primitive under
// RequestWriter, exposed for golden tests and pipelined handshakes.
func AppendRequest(buf []byte, req *wire.Request) ([]byte, error) {
	return appendRequest(buf, 0, false, req)
}

// AppendMuxRequest is AppendRequest for a mux connection: the frame payload
// starts with the uvarint stream id. Stream ids start at 1; 0 is invalid.
func AppendMuxRequest(buf []byte, stream uint64, req *wire.Request) ([]byte, error) {
	if stream == 0 {
		return buf, errBadStream
	}
	return appendRequest(buf, stream, true, req)
}

func appendRequest(buf []byte, stream uint64, mux bool, req *wire.Request) ([]byte, error) {
	verb, ok := verbCode[req.Type]
	if !ok {
		return buf, fmt.Errorf("wirebin: unknown request type %q", req.Type)
	}
	start := len(buf)
	// Reserve a 1-byte length header, the common case; move the payload if
	// it turns out longer.
	buf = append(buf, 0)
	if mux {
		buf = appendUvarint(buf, stream)
	}
	buf = append(buf, verb)
	buf = appendUvarint(buf, req.Seq)
	var flags byte
	if req.Target != "" {
		flags |= reqFlagTarget
	}
	if req.BytesDone != 0 {
		flags |= reqFlagBytesDone
	}
	if len(req.Info) > 0 {
		flags |= reqFlagInfo
	}
	if req.Type == wire.TypeRegister {
		flags |= reqFlagRegister
	}
	buf = append(buf, flags)
	if flags&reqFlagTarget != 0 {
		buf = appendStr(buf, req.Target)
	}
	if flags&reqFlagBytesDone != 0 {
		buf = appendF64(buf, req.BytesDone)
	}
	if flags&reqFlagInfo != 0 {
		keys := make([]string, 0, len(req.Info))
		for k := range req.Info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf = appendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = appendStr(buf, k)
			buf = appendStr(buf, req.Info[k])
		}
	}
	if flags&reqFlagRegister != 0 {
		buf = appendStr(buf, req.App)
		buf = appendUvarint(buf, uint64(req.Cores))
		buf = appendUvarint(buf, req.Incarnation)
		buf = appendUvarint(buf, req.SelfGrants)
		buf = appendF64(buf, req.DegradedS)
	}
	return finishFrame(buf, start)
}

// AppendResponse appends the binary encoding of resp (header and payload)
// to buf and returns the extended slice.
func AppendResponse(buf []byte, resp *wire.Response) ([]byte, error) {
	return appendResponse(buf, 0, false, resp)
}

// AppendMuxResponse is AppendResponse for a mux connection: the frame
// payload starts with the uvarint stream id. Stream ids start at 1; 0 is
// invalid.
func AppendMuxResponse(buf []byte, stream uint64, resp *wire.Response) ([]byte, error) {
	if stream == 0 {
		return buf, errBadStream
	}
	return appendResponse(buf, stream, true, resp)
}

func appendResponse(buf []byte, stream uint64, mux bool, resp *wire.Response) ([]byte, error) {
	tc, ok := respCodeOf[resp.Type]
	if !ok {
		return buf, fmt.Errorf("wirebin: unknown response type %q", resp.Type)
	}
	start := len(buf)
	buf = append(buf, 0)
	if mux {
		buf = appendUvarint(buf, stream)
	}
	buf = append(buf, tc)
	buf = appendUvarint(buf, resp.Seq)
	var flags byte
	if resp.OK {
		flags |= respFlagOK
	}
	if resp.Authorized {
		flags |= respFlagAuthorized
	}
	if resp.Err != "" {
		flags |= respFlagErr
	}
	if resp.Code != "" {
		flags |= respFlagCode
	}
	if resp.Target != "" {
		flags |= respFlagTarget
	}
	if resp.Stats != nil {
		flags |= respFlagStats
	}
	buf = append(buf, flags)
	if flags&respFlagErr != 0 {
		buf = appendStr(buf, resp.Err)
	}
	if flags&respFlagCode != 0 {
		buf = appendStr(buf, resp.Code)
	}
	if flags&respFlagTarget != 0 {
		buf = appendStr(buf, resp.Target)
	}
	if flags&respFlagStats != 0 {
		blob, err := json.Marshal(resp.Stats)
		if err != nil {
			return buf[:start], fmt.Errorf("wirebin: marshal stats: %w", err)
		}
		buf = appendUvarint(buf, uint64(len(blob)))
		buf = append(buf, blob...)
	}
	return finishFrame(buf, start)
}

// finishFrame replaces the 1-byte header reservation at start with the real
// uvarint length of the payload that follows it, shifting the payload only
// when the header needs more than one byte.
func finishFrame(buf []byte, start int) ([]byte, error) {
	n := len(buf) - start - 1
	if n == 0 || n > wire.MaxFrame {
		return buf[:start], fmt.Errorf("wirebin: bad frame payload size %d", n)
	}
	if n < 0x80 {
		buf[start] = byte(n)
		return buf, nil
	}
	var hdr [binary.MaxVarintLen32]byte
	hn := binary.PutUvarint(hdr[:], uint64(n))
	buf = append(buf, hdr[:hn-1]...) // grow by the extra header bytes
	copy(buf[start+hn:], buf[start+1:start+1+n])
	copy(buf[start:], hdr[:hn])
	return buf, nil
}

// RequestWriter encodes requests into a reused scratch buffer and writes
// one frame per message. Single-goroutine, like every codec half.
type RequestWriter struct {
	w   io.Writer
	buf []byte
}

func (rw *RequestWriter) Write(req *wire.Request) error {
	buf, err := AppendRequest(rw.buf[:0], req)
	if err != nil {
		return err
	}
	rw.buf = buf[:0]
	_, err = rw.w.Write(buf)
	return err
}

// ResponseWriter encodes responses into a reused scratch buffer and writes
// one frame per message.
type ResponseWriter struct {
	w   io.Writer
	buf []byte
}

func (rw *ResponseWriter) Write(resp *wire.Response) error {
	buf, err := AppendResponse(rw.buf[:0], resp)
	if err != nil {
		return err
	}
	rw.buf = buf[:0]
	_, err = rw.w.Write(buf)
	return err
}

// RequestReader decodes request frames (the server's read side), interning
// target and app names so steady-state verbs decode without allocating.
type RequestReader struct {
	fr      *frameReader
	interns wire.Interner
}

func (rr *RequestReader) Read(req *wire.Request) error {
	payload, err := rr.fr.next()
	if err != nil {
		return err
	}
	return decodeRequest(payload, req, &rr.interns)
}

func decodeRequest(payload []byte, req *wire.Request, interns *wire.Interner) error {
	d := dec{payload}
	verb, err := d.u8()
	if err != nil {
		return err
	}
	if int(verb) >= len(verbName) || verbName[verb] == "" {
		return fmt.Errorf("wirebin: unknown request verb %d", verb)
	}
	seq, err := d.uvarint()
	if err != nil {
		return err
	}
	flags, err := d.u8()
	if err != nil {
		return err
	}
	if flags&^byte(reqFlagTarget|reqFlagBytesDone|reqFlagInfo|reqFlagRegister) != 0 {
		return fmt.Errorf("wirebin: unknown request flags %#x", flags)
	}
	*req = wire.Request{Type: verbName[verb], Seq: seq}
	if flags&reqFlagTarget != 0 {
		b, err := d.bytes()
		if err != nil {
			return err
		}
		req.Target = interns.Intern(b)
	}
	if flags&reqFlagBytesDone != 0 {
		if req.BytesDone, err = d.f64(); err != nil {
			return err
		}
	}
	if flags&reqFlagInfo != 0 {
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		// Each pair needs at least two length bytes, so n is bounded by the
		// remaining payload; reject early rather than over-allocate.
		if n > uint64(len(d.buf))/2 {
			return errShort
		}
		req.Info = make(map[string]string, n)
		for i := uint64(0); i < n; i++ {
			k, err := d.bytes()
			if err != nil {
				return err
			}
			v, err := d.bytes()
			if err != nil {
				return err
			}
			req.Info[string(k)] = string(v)
		}
	}
	if flags&reqFlagRegister != 0 {
		if verbName[verb] != wire.TypeRegister {
			return fmt.Errorf("wirebin: register fields on %s request", verbName[verb])
		}
		b, err := d.bytes()
		if err != nil {
			return err
		}
		req.App = interns.Intern(b)
		cores, err := d.uvarint()
		if err != nil {
			return err
		}
		req.Cores = int(cores)
		if req.Incarnation, err = d.uvarint(); err != nil {
			return err
		}
		if req.SelfGrants, err = d.uvarint(); err != nil {
			return err
		}
		if req.DegradedS, err = d.f64(); err != nil {
			return err
		}
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wirebin: %d trailing bytes after request", len(d.buf))
	}
	return nil
}

// ResponseReader decodes response frames (the client's read side).
type ResponseReader struct {
	fr      *frameReader
	interns wire.Interner
}

func (rr *ResponseReader) Read(resp *wire.Response) error {
	payload, err := rr.fr.next()
	if err != nil {
		return err
	}
	return decodeResponse(payload, resp, &rr.interns)
}

func decodeResponse(payload []byte, resp *wire.Response, interns *wire.Interner) error {
	d := dec{payload}
	tc, err := d.u8()
	if err != nil {
		return err
	}
	if int(tc) >= len(respNameOf) || respNameOf[tc] == "" {
		return fmt.Errorf("wirebin: unknown response type %d", tc)
	}
	seq, err := d.uvarint()
	if err != nil {
		return err
	}
	flags, err := d.u8()
	if err != nil {
		return err
	}
	if flags&^byte(respFlagOK|respFlagAuthorized|respFlagErr|respFlagCode|respFlagTarget|respFlagStats) != 0 {
		return fmt.Errorf("wirebin: unknown response flags %#x", flags)
	}
	*resp = wire.Response{
		Type:       respNameOf[tc],
		Seq:        seq,
		OK:         flags&respFlagOK != 0,
		Authorized: flags&respFlagAuthorized != 0,
	}
	if flags&respFlagErr != 0 {
		b, err := d.bytes()
		if err != nil {
			return err
		}
		resp.Err = string(b)
	}
	if flags&respFlagCode != 0 {
		b, err := d.bytes()
		if err != nil {
			return err
		}
		resp.Code = interns.Intern(b)
	}
	if flags&respFlagTarget != 0 {
		b, err := d.bytes()
		if err != nil {
			return err
		}
		resp.Target = interns.Intern(b)
	}
	if flags&respFlagStats != 0 {
		b, err := d.bytes()
		if err != nil {
			return err
		}
		resp.Stats = new(wire.Stats)
		if err := json.Unmarshal(b, resp.Stats); err != nil {
			return fmt.Errorf("wirebin: unmarshal stats: %w", err)
		}
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wirebin: %d trailing bytes after response", len(d.buf))
	}
	return nil
}

// Mux framing (protocol version wire.VersionBinaryMux): identical frames to
// the non-mux v2 codec, except every frame payload begins with the uvarint
// stream id of the logical session the message belongs to. Stream ids start
// at 1; 0 is rejected on both encode and decode.

// muxStream consumes the leading uvarint stream id off a mux frame payload.
func muxStream(payload []byte) (uint64, []byte, error) {
	d := dec{payload}
	stream, err := d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if stream == 0 {
		return 0, nil, errBadStream
	}
	return stream, d.buf, nil
}

// MuxRequestReader decodes mux request frames (the server's read side of a
// mux connection). Read returns the frame's stream id alongside the decoded
// request. All streams on a connection share one reader, one frame buffer,
// and one intern table.
type MuxRequestReader struct {
	fr      *frameReader
	interns wire.Interner
}

func NewMuxRequestReader(r io.Reader) *MuxRequestReader {
	return &MuxRequestReader{fr: newFrameReader(r)}
}

func (rr *MuxRequestReader) Read(req *wire.Request) (uint64, error) {
	payload, err := rr.fr.next()
	if err != nil {
		return 0, err
	}
	stream, rest, err := muxStream(payload)
	if err != nil {
		return 0, err
	}
	return stream, decodeRequest(rest, req, &rr.interns)
}

// MuxResponseReader decodes mux response frames (the client's read side of a
// mux connection).
type MuxResponseReader struct {
	fr      *frameReader
	interns wire.Interner
}

func NewMuxResponseReader(r io.Reader) *MuxResponseReader {
	return &MuxResponseReader{fr: newFrameReader(r)}
}

func (rr *MuxResponseReader) Read(resp *wire.Response) (uint64, error) {
	payload, err := rr.fr.next()
	if err != nil {
		return 0, err
	}
	stream, rest, err := muxStream(payload)
	if err != nil {
		return 0, err
	}
	return stream, decodeResponse(rest, resp, &rr.interns)
}
