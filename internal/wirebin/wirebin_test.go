package wirebin

import (
	"bytes"
	"encoding/hex"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wire"
)

func encodeReq(t *testing.T, req *wire.Request) []byte {
	t.Helper()
	buf, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	return buf
}

func encodeResp(t *testing.T, resp *wire.Response) []byte {
	t.Helper()
	buf, err := AppendResponse(nil, resp)
	if err != nil {
		t.Fatalf("AppendResponse: %v", err)
	}
	return buf
}

// TestGoldenRequestBytes pins the exact wire bytes of representative
// requests. These encodings are protocol: a change here is a breaking wire
// format change and must bump the negotiated version instead.
func TestGoldenRequestBytes(t *testing.T) {
	cases := []struct {
		name string
		req  wire.Request
		hex  string
	}{
		{
			name: "wait with target",
			req:  wire.Request{Seq: 7, Type: wire.TypeWait, Target: "t3"},
			hex:  "06070701027433",
		},
		{
			name: "register",
			req:  wire.Request{Seq: 1, Type: wire.TypeRegister, App: "A", Cores: 64, Incarnation: 3},
			hex:  "1001010801414003000000000000000000",
		},
		{
			name: "inform with bytes_done",
			req:  wire.Request{Seq: 2, Type: wire.TypeInform, BytesDone: 2.5},
			hex:  "0b0402020000000000000440",
		},
		{
			name: "check default target",
			req:  wire.Request{Seq: 9, Type: wire.TypeCheck},
			hex:  "03060900",
		},
		{
			name: "prepare with sorted info",
			req:  wire.Request{Seq: 3, Type: wire.TypePrepare, Info: map[string]string{"b": "2", "a": "1"}},
			hex:  "0c020304020161013101620132",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := hex.DecodeString(tc.hex)
			if err != nil {
				t.Fatal(err)
			}
			got := encodeReq(t, &tc.req)
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding = %x, want %x", got, want)
			}
		})
	}
}

// TestGoldenResponseBytes pins the exact wire bytes of representative
// responses.
func TestGoldenResponseBytes(t *testing.T) {
	cases := []struct {
		name string
		resp wire.Response
		hex  string
	}{
		{
			name: "ok authorized with target",
			resp: wire.Response{Seq: 7, Type: wire.TypeResp, OK: true, Authorized: true, Target: "t3"},
			hex:  "06010713027433",
		},
		{
			name: "grant push",
			resp: wire.Response{Type: wire.TypeGrant, Authorized: true},
			hex:  "03020002",
		},
		{
			name: "error with code",
			resp: wire.Response{Seq: 4, Type: wire.TypeResp, Err: "no", Code: wire.CodeBusy},
			hex:  "0b01040c026e6f0462757379",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := hex.DecodeString(tc.hex)
			if err != nil {
				t.Fatal(err)
			}
			got := encodeResp(t, &tc.resp)
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding = %x, want %x", got, want)
			}
		})
	}
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []wire.Request{
		{Seq: 1, Type: wire.TypeRegister, App: "app-1", Cores: 128, Target: "t1", Incarnation: 7, SelfGrants: 2, DegradedS: 1.25},
		{Seq: 2, Type: wire.TypePrepare, Info: map[string]string{"bytes_total": "1048576", "mode": "write"}},
		{Seq: 3, Type: wire.TypeInform, BytesDone: 42.5, Target: "t1"},
		{Seq: 4, Type: wire.TypeProgress, BytesDone: 64},
		{Seq: 5, Type: wire.TypeCheck},
		{Seq: 6, Type: wire.TypeWait, Target: "t1"},
		{Seq: 7, Type: wire.TypeRelease, BytesDone: 100},
		{Seq: 8, Type: wire.TypeComplete},
		{Seq: 9, Type: wire.TypeEnd, Target: "t1"},
		{Seq: 10, Type: wire.TypeStats},
	}
	var stream []byte
	for i := range reqs {
		var err error
		if stream, err = AppendRequest(stream, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	rr := Codec{}.NewRequestReader(bytes.NewReader(stream))
	for i := range reqs {
		var got wire.Request
		if err := rr.Read(&got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, reqs[i]) {
			t.Fatalf("request %d = %+v, want %+v", i, got, reqs[i])
		}
	}
	var end wire.Request
	if err := rr.Read(&end); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []wire.Response{
		{Seq: 1, Type: wire.TypeResp, OK: true},
		{Seq: 2, Type: wire.TypeResp, OK: true, Authorized: true, Target: "t2"},
		{Type: wire.TypeGrant, Authorized: true, Target: "t2"},
		{Type: wire.TypeRevoke},
		{Seq: 3, Type: wire.TypeResp, Err: "busy", Code: wire.CodeBusy},
		{Seq: 4, Type: wire.TypeResp, OK: true, Stats: &wire.Stats{GrantsServed: 9, Sessions: 3}},
	}
	var stream []byte
	for i := range resps {
		var err error
		if stream, err = AppendResponse(stream, &resps[i]); err != nil {
			t.Fatal(err)
		}
	}
	rr := Codec{}.NewResponseReader(bytes.NewReader(stream))
	for i := range resps {
		var got wire.Response
		if err := rr.Read(&got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, resps[i]) {
			t.Fatalf("response %d = %+v, want %+v", i, got, resps[i])
		}
	}
}

// TestWriterFraming checks the writer halves produce the same bytes as the
// Append primitives, one frame per message.
func TestWriterFraming(t *testing.T) {
	req := wire.Request{Seq: 3, Type: wire.TypeWait, Target: "t0"}
	resp := wire.Response{Seq: 3, Type: wire.TypeResp, OK: true, Authorized: true}
	var rbuf, wbuf bytes.Buffer
	if err := (Codec{}).NewRequestWriter(&rbuf).Write(&req); err != nil {
		t.Fatal(err)
	}
	if err := (Codec{}).NewResponseWriter(&wbuf).Write(&resp); err != nil {
		t.Fatal(err)
	}
	if want := encodeReq(t, &req); !bytes.Equal(rbuf.Bytes(), want) {
		t.Fatalf("request writer bytes %x, want %x", rbuf.Bytes(), want)
	}
	if want := encodeResp(t, &resp); !bytes.Equal(wbuf.Bytes(), want) {
		t.Fatalf("response writer bytes %x, want %x", wbuf.Bytes(), want)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
	}{
		{"zero length", []byte{0x00}},
		{"oversize length", []byte{0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"varint too long", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
		{"unknown verb", []byte{0x03, 0xee, 0x01, 0x00}},
		{"unknown flags", []byte{0x03, 0x06, 0x01, 0x80}},
		{"truncated string", []byte{0x05, 0x07, 0x01, 0x01, 0x08, 0x61}},
		{"trailing bytes", []byte{0x04, 0x06, 0x01, 0x00, 0x00}},
		{"register fields on wait", []byte{0x10, 0x07, 0x01, 0x08, 0x01, 0x41, 0x40, 0x03, 0x00, 0, 0, 0, 0, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := Codec{}.NewRequestReader(bytes.NewReader(tc.frame))
			var req wire.Request
			if err := rr.Read(&req); err == nil {
				t.Fatalf("decoded %x into %+v, want error", tc.frame, req)
			}
		})
	}
}

// TestTruncatedFrame mirrors the v1 reader contract: EOF at a frame
// boundary passes through, a partial frame is ErrUnexpectedEOF.
func TestTruncatedFrame(t *testing.T) {
	frame := encodeReq(t, &wire.Request{Seq: 5, Type: wire.TypeWait, Target: "abc"})
	for cut := 1; cut < len(frame); cut++ {
		rr := Codec{}.NewRequestReader(bytes.NewReader(frame[:cut]))
		var req wire.Request
		err := rr.Read(&req)
		if err != io.ErrUnexpectedEOF && !strings.Contains(err.Error(), "unexpected EOF") {
			t.Fatalf("cut at %d: err = %v, want unexpected EOF", cut, err)
		}
	}
}

// TestSteadyStateAllocFree pins the zero-allocation guarantee for the
// daemon's hot path: decoding coordination requests and encoding their
// responses, with interned target names and warm buffers.
func TestSteadyStateAllocFree(t *testing.T) {
	var stream []byte
	reqs := []wire.Request{
		{Seq: 1, Type: wire.TypeInform, BytesDone: 10, Target: "t1"},
		{Seq: 2, Type: wire.TypeWait, Target: "t1"},
		{Seq: 3, Type: wire.TypeRelease, BytesDone: 20, Target: "t1"},
		{Seq: 4, Type: wire.TypeCheck},
		{Seq: 5, Type: wire.TypeEnd, Target: "t1"},
	}
	for i := range reqs {
		var err error
		if stream, err = AppendRequest(stream, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	src := bytes.NewReader(stream)
	rr := Codec{}.NewRequestReader(src).(*RequestReader)
	var req wire.Request
	decode := func() {
		src.Reset(stream)
		rr.fr.r = src // bytes.Reader is its own ByteReader
		for range reqs {
			if err := rr.Read(&req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Fatalf("request decode: %v allocs/run, want 0", allocs)
	}

	rw := Codec{}.NewResponseWriter(io.Discard).(*ResponseWriter)
	resp := wire.Response{Seq: 2, Type: wire.TypeResp, OK: true, Authorized: true, Target: "t1"}
	grant := wire.Response{Type: wire.TypeGrant, Authorized: true, Target: "t1"}
	encode := func() {
		if err := rw.Write(&resp); err != nil {
			t.Fatal(err)
		}
		if err := rw.Write(&grant); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Fatalf("response encode: %v allocs/run, want 0", allocs)
	}
}

// TestClientSideAllocFree covers the mirror-image hot path: the client
// encoding coordination requests and decoding responses.
func TestClientSideAllocFree(t *testing.T) {
	rw := Codec{}.NewRequestWriter(io.Discard).(*RequestWriter)
	req := wire.Request{Seq: 9, Type: wire.TypeWait, Target: "t1"}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := rw.Write(&req); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("request encode: %v allocs/run, want 0", allocs)
	}

	frame := encodeResp(t, &wire.Response{Seq: 9, Type: wire.TypeResp, OK: true, Authorized: true, Target: "t1"})
	src := bytes.NewReader(frame)
	rr := Codec{}.NewResponseReader(src).(*ResponseReader)
	var resp wire.Response
	if allocs := testing.AllocsPerRun(100, func() {
		src.Reset(frame)
		rr.fr.r = src
		if err := rr.Read(&resp); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("response decode: %v allocs/run, want 0", allocs)
	}
}

// TestInternBound checks the intern table stops retaining new names past
// its bound instead of growing without limit.
func TestInternBound(t *testing.T) {
	m := make(map[string]string)
	for i := 0; i < 4*internLimit; i++ {
		intern(m, []byte(strings.Repeat("x", 1+i%13)+string(rune('a'+i%26))))
	}
	if len(m) > internLimit {
		t.Fatalf("intern table grew to %d entries, bound is %d", len(m), internLimit)
	}
}

func TestNaNBytesDoneRoundTrips(t *testing.T) {
	req := wire.Request{Seq: 1, Type: wire.TypeInform, BytesDone: math.NaN()}
	frame := encodeReq(t, &req)
	rr := Codec{}.NewRequestReader(bytes.NewReader(frame))
	var got wire.Request
	if err := rr.Read(&got); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.BytesDone) != math.Float64bits(req.BytesDone) {
		t.Fatalf("NaN bits changed: %x -> %x", math.Float64bits(req.BytesDone), math.Float64bits(got.BytesDone))
	}
}
