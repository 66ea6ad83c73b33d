package wirebin

import (
	"bytes"
	"encoding/hex"
	"io"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// TestMuxGoldenBytes pins the mux framing: a mux frame is the non-mux frame
// with the uvarint stream id spliced in right after the length header.
func TestMuxGoldenBytes(t *testing.T) {
	req := wire.Request{Seq: 7, Type: wire.TypeWait, Target: "t3"}
	got, err := AppendMuxRequest(nil, 5, &req)
	if err != nil {
		t.Fatal(err)
	}
	// Non-mux encoding is 06070701027433; mux adds one length byte and the
	// stream id 05 before the verb.
	want, _ := hex.DecodeString("0705070701027433")
	if !bytes.Equal(got, want) {
		t.Fatalf("mux request encoding = %x, want %x", got, want)
	}

	resp := wire.Response{Type: wire.TypeGrant, Authorized: true}
	got, err = AppendMuxResponse(nil, 300, &resp)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 300 is the two-byte uvarint ac02.
	want, _ = hex.DecodeString("05ac02020002")
	if !bytes.Equal(got, want) {
		t.Fatalf("mux response encoding = %x, want %x", got, want)
	}
}

// TestMuxNonMuxUnchanged guards the acceptance criterion that non-mux
// encodings are byte-for-byte what they were before mux existed: the shared
// appendRequest/appendResponse body must not perturb the mux=false path.
func TestMuxNonMuxUnchanged(t *testing.T) {
	req := wire.Request{Seq: 7, Type: wire.TypeWait, Target: "t3"}
	frame := encodeReq(t, &req)
	if want, _ := hex.DecodeString("06070701027433"); !bytes.Equal(frame, want) {
		t.Fatalf("non-mux request encoding = %x, want %x", frame, want)
	}
	resp := wire.Response{Seq: 7, Type: wire.TypeResp, OK: true, Authorized: true, Target: "t3"}
	rframe := encodeResp(t, &resp)
	if want, _ := hex.DecodeString("06010713027433"); !bytes.Equal(rframe, want) {
		t.Fatalf("non-mux response encoding = %x, want %x", rframe, want)
	}
}

// TestMuxRoundTrip interleaves several streams on one byte stream and checks
// every frame comes back with its stream id and payload intact.
func TestMuxRoundTrip(t *testing.T) {
	type tagged struct {
		stream uint64
		req    wire.Request
	}
	msgs := []tagged{
		{1, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "a", Cores: 4}},
		{2, wire.Request{Seq: 1, Type: wire.TypeInform, BytesDone: 3.5, Target: "t0"}},
		{1, wire.Request{Seq: 2, Type: wire.TypeWait, Target: "t0"}},
		{1 << 20, wire.Request{Seq: 1, Type: wire.TypeCheck}},
		{2, wire.Request{Seq: 2, Type: wire.TypeEnd, Target: "t0"}},
	}
	var stream []byte
	for i := range msgs {
		var err error
		if stream, err = AppendMuxRequest(stream, msgs[i].stream, &msgs[i].req); err != nil {
			t.Fatal(err)
		}
	}
	rr := NewMuxRequestReader(bytes.NewReader(stream))
	for i := range msgs {
		var got wire.Request
		sid, err := rr.Read(&got)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if sid != msgs[i].stream {
			t.Fatalf("read %d: stream = %d, want %d", i, sid, msgs[i].stream)
		}
		if !reflect.DeepEqual(got, msgs[i].req) {
			t.Fatalf("read %d = %+v, want %+v", i, got, msgs[i].req)
		}
	}
	var end wire.Request
	if _, err := rr.Read(&end); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}

	resps := []struct {
		stream uint64
		resp   wire.Response
	}{
		{2, wire.Response{Seq: 1, Type: wire.TypeResp, OK: true, Authorized: true}},
		{1, wire.Response{Type: wire.TypeGrant, Authorized: true, Target: "t0"}},
		{3, wire.Response{Seq: 9, Type: wire.TypeResp, Err: "busy", Code: wire.CodeBusy}},
	}
	var rstream []byte
	for i := range resps {
		var err error
		if rstream, err = AppendMuxResponse(rstream, resps[i].stream, &resps[i].resp); err != nil {
			t.Fatal(err)
		}
	}
	pr := NewMuxResponseReader(bytes.NewReader(rstream))
	for i := range resps {
		var got wire.Response
		sid, err := pr.Read(&got)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if sid != resps[i].stream {
			t.Fatalf("read %d: stream = %d, want %d", i, sid, resps[i].stream)
		}
		if !reflect.DeepEqual(got, resps[i].resp) {
			t.Fatalf("read %d = %+v, want %+v", i, got, resps[i].resp)
		}
	}
}

// TestMuxStreamZeroRejected pins the invalid-stream contract on both encode
// and decode: ids start at 1.
func TestMuxStreamZeroRejected(t *testing.T) {
	req := wire.Request{Seq: 1, Type: wire.TypeCheck}
	if _, err := AppendMuxRequest(nil, 0, &req); err == nil {
		t.Fatal("AppendMuxRequest accepted stream 0")
	}
	resp := wire.Response{Seq: 1, Type: wire.TypeResp, OK: true}
	if _, err := AppendMuxResponse(nil, 0, &resp); err == nil {
		t.Fatal("AppendMuxResponse accepted stream 0")
	}
	// Hand-built frame: length 4, stream 0, then a check request.
	frame := []byte{0x04, 0x00, 0x06, 0x01, 0x00}
	rr := NewMuxRequestReader(bytes.NewReader(frame))
	var got wire.Request
	if _, err := rr.Read(&got); err == nil {
		t.Fatalf("decoded stream-0 frame into %+v, want error", got)
	}
}

// TestMuxSteadyStateAllocFree extends the hot-path zero-alloc guarantee to
// the mux framing: demuxing coordination verbs and encoding grant pushes
// must not allocate once buffers and interns are warm.
func TestMuxSteadyStateAllocFree(t *testing.T) {
	var stream []byte
	reqs := []wire.Request{
		{Seq: 1, Type: wire.TypeInform, BytesDone: 10, Target: "t1"},
		{Seq: 2, Type: wire.TypeWait, Target: "t1"},
		{Seq: 3, Type: wire.TypeRelease, BytesDone: 20, Target: "t1"},
		{Seq: 4, Type: wire.TypeEnd, Target: "t1"},
	}
	for i := range reqs {
		var err error
		if stream, err = AppendMuxRequest(stream, uint64(i%3+1), &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	src := bytes.NewReader(stream)
	rr := NewMuxRequestReader(src)
	var req wire.Request
	decode := func() {
		src.Reset(stream)
		rr.fr.r = src
		for range reqs {
			if _, err := rr.Read(&req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Fatalf("mux request decode: %v allocs/run, want 0", allocs)
	}

	resp := wire.Response{Seq: 2, Type: wire.TypeResp, OK: true, Authorized: true, Target: "t1"}
	grant := wire.Response{Type: wire.TypeGrant, Authorized: true, Target: "t1"}
	buf := make([]byte, 0, 256)
	encode := func() {
		var err error
		if buf, err = AppendMuxResponse(buf[:0], 7, &resp); err != nil {
			t.Fatal(err)
		}
		if buf, err = AppendMuxResponse(buf, 12, &grant); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Fatalf("mux response encode: %v allocs/run, want 0", allocs)
	}
}
