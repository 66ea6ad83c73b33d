package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzReadFrame throws arbitrary byte streams at the frame reader: whatever
// arrives on a daemon socket — truncated frames, hostile length prefixes,
// garbage JSON — must surface as an error, never a panic or an unbounded
// allocation. Seeds cover well-formed single and pipelined frames plus the
// classic malformations.
func FuzzReadFrame(f *testing.F) {
	frame := func(v any) []byte {
		var b bytes.Buffer
		if err := Write(&b, v); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add(frame(Request{Seq: 1, Type: TypeRegister, App: "A", Cores: 64, Incarnation: 1}))
	f.Add(frame(Request{Seq: 2, Type: TypePrepare, Info: map[string]string{"bytes_total": "1000"}}))
	f.Add(append(frame(Request{Seq: 3, Type: TypeInform, Target: "pfs0"}),
		frame(Request{Seq: 4, Type: TypeWait})...))
	f.Add(frame(Response{Seq: 1, Type: TypeResp, OK: true, Authorized: true, Target: "bb1"}))
	f.Add([]byte{0, 0, 0, 0})                  // zero-length frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'}) // length far past MaxFrame
	f.Add([]byte{0x00, 0x10, 0x00, 0x00, '{'}) // truncated payload
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			var req Request
			if err := d.Read(&req); err != nil {
				return // malformed input must fail with an error, not a panic
			}
		}
	})
}

// FuzzDecodeRequest fuzzes the payload layer under a well-formed length
// prefix, reaching the JSON decoding a hostile client fully controls. A
// payload that decodes must also re-encode: the daemon echoes request
// fields (Seq, Target) into responses through the same marshaller, so a
// decodable-but-unmarshalable request would let a client crash replies.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"seq":1,"type":"register","app":"A","cores":4}`))
	f.Add([]byte(`{"seq":9,"type":"wait","target":"pfs0"}`))
	f.Add([]byte(`{"seq":2,"type":"release","bytes_done":1e300}`))
	f.Add([]byte(`{"seq":1,"type":"register","incarnation":18446744073709551615}`))
	f.Add([]byte(`{"seq":1,"type":"prepare","info":{"a":"1","b":"2"}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte("\x00"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 || len(payload) > MaxFrame {
			t.Skip()
		}
		var b bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		b.Write(hdr[:])
		b.Write(payload)
		var req Request
		if err := Read(&b, &req); err != nil {
			return
		}
		// Escaping can grow a re-encoded string up to 6x (one control byte
		// becomes \u00XX), so only payloads with re-encode headroom under
		// MaxFrame assert the round trip.
		if len(payload) <= MaxFrame/8 {
			if err := Write(io.Discard, req); err != nil {
				t.Fatalf("decoded request failed to re-encode: %v (payload %q)", err, payload)
			}
		}
	})
}

// FuzzJSONMatchesStdlib holds the v1 codec to its specification,
// encoding/json: any payload decodes, into a zero Request and into a zero
// Response, to what json.Unmarshal makes of it (error or not, and
// reflect.DeepEqual values), and every value that decodes encodes to
// json.Marshal's bytes. Seeds are the transcript's frames plus one payload
// for each way out of the canonical subset.
func FuzzJSONMatchesStdlib(f *testing.F) {
	for _, s := range []string{
		// Frames of the client package's JSON wire transcript.
		`{"seq":1,"type":"register","app":"A","cores":1,"incarnation":1}`,
		`{"seq":2,"type":"prepare","info":{"bytes_total":"100"}}`,
		`{"seq":3,"type":"inform"}`,
		`{"seq":4,"type":"wait"}`,
		`{"seq":5,"type":"release","bytes_done":100}`,
		`{"seq":6,"type":"complete"}`,
		`{"seq":7,"type":"end"}`,
		`{"seq":8,"type":"stats"}`,
		`{"seq":1,"type":"resp","ok":true}`,
		`{"type":"grant","authorized":true}`,
		`{"seq":3,"type":"resp","ok":true,"authorized":true}`,
		// The rest of the fields, whitespace and key order.
		`{"seq":9,"type":"register","app":"B","cores":-2,"target":"pfs0","incarnation":3,"self_grants":4,"degraded_s":1.5e-7}`,
		" {\t\"target\" : \"t7\" ,\n\"type\":\"wait\",\r\"seq\":18446744073709551615 } ",
		`{"seq":2,"type":"resp","err":"shed","code":"overloaded","target":"bb1"}`,
		`{"type":"revoke","target":"t1"}`,
		`{"seq":1,"type":"inform","bytes_done":1e21}`,
		`{}`,
		// Outside the subset: encoding/json decides.
		`{"seq":1,"type":"register","app":"caf\u00e9"}`,
		"{\"seq\":1,\"type\":\"register\",\"app\":\"café\"}",
		`{"SEQ":1,"type":"wait"}`,
		`{"seq":1,"type":"wait","color":"red"}`,
		`{"seq":null,"type":"wait"}`,
		`null`,
		`{"seq":2,"type":"prepare","info":{"a":"1"},"info":{"b":"2"}}`,
		`{"seq":1e3,"type":"wait"}`,
		`{"seq":1,"type":"register","cores":1.0}`,
		`{"seq":1,"type":"inform","bytes_done":-0}`,
		`{"seq":1,"type":"wait"} x`,
		`{"seq":8,"type":"resp","ok":true,"stats":{"policy":"fcfs","sessions":2,"apps":[{"name":"A","cores":1,"state":"idle","phases":1,"grants":1,"io_time_s":0,"wait_time_s":0}]}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxFrame {
			t.Skip()
		}
		var frame bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		frame.Write(hdr[:])
		frame.Write(payload)
		stream := frame.Bytes()
		matchesStdlib(t, payload, stream, new(Request), new(Request))
		matchesStdlib(t, payload, stream, new(Response), new(Response))
	})
}

// matchesStdlib decodes payload with json.Unmarshal into want and the
// framed payload with a Reader into got, and holds the codec to the
// stdlib on both the decoded value and its re-encoding.
func matchesStdlib[T Request | Response](t *testing.T, payload, stream []byte, want, got *T) {
	t.Helper()
	wantErr := json.Unmarshal(payload, want)
	gotErr := NewReader(bytes.NewReader(stream)).Read(got)
	if len(payload) == 0 {
		wantErr = errors.New("empty payload") // the framing rejects it first
	}
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%T from %q: stdlib err %v, codec err %v", got, payload, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%T from %q: stdlib %+v, codec %+v", got, payload, *want, *got)
	}
	wantBytes, wantErr := json.Marshal(got)
	frame, gotErr := appendFrame(nil, got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("encoding %+v: stdlib err %v, codec err %v", *got, wantErr, gotErr)
	}
	if wantErr == nil && !bytes.Equal(frame[4:], wantBytes) {
		t.Fatalf("encoding %+v:\ncodec  %s\nstdlib %s", *got, frame[4:], wantBytes)
	}
}
