package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
)

// TestJSONSubset pins which payloads the scanner decodes itself; the rest
// go to encoding/json, which FuzzJSONMatchesStdlib holds both paths to.
func TestJSONSubset(t *testing.T) {
	for _, tc := range []struct {
		payload   string
		req, resp bool // decoded by the scanner as a Request, as a Response
	}{
		{`{"seq":3,"type":"inform","bytes_done":12.5,"target":"t7"}`, true, false},
		{`{"seq":1,"type":"register","app":"A","cores":4,"incarnation":2,"self_grants":1,"degraded_s":0.5}`, true, false},
		{`{"seq":2,"type":"prepare","info":{"bytes_total":"100","x":""}}`, true, false},
		{` { "target" : "t7" , "seq" : 4 , "type" : "wait" } `, true, true},
		{`{"seq":4,"type":"resp","ok":true,"authorized":true,"target":"t7"}`, false, true},
		{`{"seq":5,"type":"resp","err":"busy","code":"busy"}`, false, true},
		{`{"type":"grant","authorized":false}`, false, true},
		{`{"seq":1,"type":"wait"}`, true, true},
		{`{}`, true, true},
		{`{"seq":1,"type":"wait","app":"\u00e9"}`, false, false},
		{`{"seq":1,"type":"wait","app":"é"}`, false, false},
		{`{"Seq":1,"type":"wait"}`, false, false},
		{`{"seq":1,"type":"wait","extra":1}`, false, false},
		{`{"seq":null}`, false, false},
		{`null`, false, false},
		{`{"info":{},"info":{}}`, false, false},
		{`{"seq":1e3}`, false, false},
		{`{"seq":-0}`, false, false},
		{`{"seq":18446744073709551616}`, false, false},
		{`{"cores":1.0}`, false, false},
		{`{"cores":9223372036854775808}`, false, false},
		{`{"cores":-9223372036854775808}`, true, false},
		{`{"bytes_done":1e400}`, false, false},
		{`{"seq":01}`, false, false},
		{`{"seq":1,}`, false, false},
		{`{"seq":1} x`, false, false},
		{`{"seq":1,"type":"resp","stats":{}}`, false, false},
	} {
		var in Interner
		if got := decodeRequest([]byte(tc.payload), new(Request), &in); got != tc.req {
			t.Errorf("%s: scanner decodes it as a Request: %v, want %v", tc.payload, got, tc.req)
		}
		if got := decodeResponse([]byte(tc.payload), new(Response), &in); got != tc.resp {
			t.Errorf("%s: scanner decodes it as a Response: %v, want %v", tc.payload, got, tc.resp)
		}
	}
}

// TestJSONEncodeMatchesMarshal checks the append encoder against
// json.Marshal on the values decoding cannot produce (NaN, escapes it must
// hand over) and on the float format's edges.
func TestJSONEncodeMatchesMarshal(t *testing.T) {
	var values []any
	for _, f := range []float64{1, -1, 0.5, 1e-6, 9.99e-7, 1e-7, 1.5e-300, 5e-324, 1e20, 1e21, -1e21,
		123456789.125, math.MaxFloat64, math.Copysign(0, -1), math.NaN(), math.Inf(1)} {
		values = append(values,
			&Request{Seq: 1, Type: TypeRelease, BytesDone: f},
			&Request{Seq: 1, Type: TypeRegister, DegradedS: f})
	}
	for _, s := range []string{"t7", "", "a<b", "a&b", "q\"", "back\\", "tab\t", "caf\u00e9", "\x7f", "bad\xff", "\u2028"} {
		values = append(values,
			&Request{Seq: 2, Type: TypeRegister, App: s, Target: s, Cores: math.MinInt},
			&Request{Seq: 3, Type: TypePrepare, Info: map[string]string{s: s, "z": "1", "a": "2"}},
			&Response{Seq: 4, Type: TypeResp, Err: s, Code: s, Target: s})
	}
	values = append(values,
		&Request{Seq: math.MaxUint64, Type: TypeWait, Incarnation: math.MaxUint64, SelfGrants: 7, Info: map[string]string{}},
		&Response{Type: TypeGrant, OK: true, Authorized: true},
		&Response{Seq: 8, Type: TypeResp, OK: true, Stats: &Stats{Policy: "fcfs", NowS: 1e-9}},
		(*Request)(nil),
		map[string]int{"b": 1, "a": 2},
	)
	for _, v := range values {
		want, wantErr := json.Marshal(v)
		frame, err := appendFrame(nil, v)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%#v: codec err %v, json.Marshal err %v", v, err, wantErr)
		}
		if err == nil && !bytes.Equal(frame[4:], want) {
			t.Fatalf("%#v:\ncodec  %s\nstdlib %s", v, frame[4:], want)
		}
	}
}

// TestJSONSteadyStateAllocFree is wirebin's pair of zero-allocation guards
// for the v1 codec: once buffers and interned names are warm, the daemon
// decodes a grant cycle's requests and encodes its responses, and the
// client encodes the requests and decodes the responses, without
// allocating.
func TestJSONSteadyStateAllocFree(t *testing.T) {
	reqs := []Request{
		{Seq: 1, Type: TypeInform, BytesDone: 10, Target: "t1"},
		{Seq: 2, Type: TypeWait, Target: "t1"},
		{Seq: 3, Type: TypeRelease, BytesDone: 20.5, Target: "t1"},
		{Seq: 4, Type: TypeCheck},
		{Seq: 5, Type: TypeEnd, Target: "t1"},
	}
	resps := []Response{
		{Seq: 2, Type: TypeResp, OK: true, Authorized: true, Target: "t1"},
		{Type: TypeGrant, Authorized: true, Target: "t1"},
		{Seq: 5, Type: TypeResp, OK: true, Target: "t1"},
	}
	var reqStream, respStream bytes.Buffer
	for i := range reqs {
		if err := Write(&reqStream, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range resps {
		if err := Write(&respStream, &resps[i]); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("daemon", func(t *testing.T) {
		src := bytes.NewReader(reqStream.Bytes())
		rr := JSON.NewRequestReader(src)
		var req Request
		if allocs := testing.AllocsPerRun(100, func() {
			src.Reset(reqStream.Bytes())
			for range reqs {
				req = Request{}
				if err := rr.Read(&req); err != nil {
					t.Fatal(err)
				}
			}
		}); allocs != 0 {
			t.Fatalf("request decode: %v allocs/run, want 0", allocs)
		}
		rw := JSON.NewResponseWriter(io.Discard)
		if allocs := testing.AllocsPerRun(100, func() {
			for i := range resps {
				if err := rw.Write(&resps[i]); err != nil {
					t.Fatal(err)
				}
			}
		}); allocs != 0 {
			t.Fatalf("response encode: %v allocs/run, want 0", allocs)
		}
	})

	t.Run("client", func(t *testing.T) {
		rw := JSON.NewRequestWriter(io.Discard)
		if allocs := testing.AllocsPerRun(100, func() {
			for i := range reqs {
				if err := rw.Write(&reqs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}); allocs != 0 {
			t.Fatalf("request encode: %v allocs/run, want 0", allocs)
		}
		src := bytes.NewReader(respStream.Bytes())
		rr := JSON.NewResponseReader(src)
		var resp Response
		if allocs := testing.AllocsPerRun(100, func() {
			src.Reset(respStream.Bytes())
			for range resps {
				resp = Response{}
				if err := rr.Read(&resp); err != nil {
					t.Fatal(err)
				}
			}
		}); allocs != 0 {
			t.Fatalf("response decode: %v allocs/run, want 0", allocs)
		}
	})
}

// TestInternBound checks the intern table stops retaining new names past
// its bound instead of growing without limit.
func TestInternBound(t *testing.T) {
	var in Interner
	for i := 0; i < 4*internLimit; i++ {
		in.Intern([]byte(strings.Repeat("x", 1+i%13) + string(rune('a'+i%26))))
	}
	if len(in.m) > internLimit {
		t.Fatalf("intern table grew to %d entries, bound is %d", len(in.m), internLimit)
	}
}
