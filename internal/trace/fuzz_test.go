package trace

import (
	"bytes"
	"math"
	"testing"
)

// fuzzSample encodes a valid trace in memory for the fuzz corpus (the
// *testing.F twin of writeSample).
func fuzzSample(f *testing.F, hdr Header, opts Options, evs []Event) []byte {
	f.Helper()
	var b bytes.Buffer
	w, err := NewWriterOptions(&b, hdr, opts)
	if err != nil {
		f.Fatal(err)
	}
	for _, ev := range evs {
		w.Record(ev)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	return b.Bytes()
}

// sameEvents compares event lists field by field, floats by their bits (a
// trace may carry NaN, which == does not match), and a Prepare by what it
// declares: Prepared, whether the info came as a map or parsed by a reader.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Type != y.Type || math.Float64bits(x.Time) != math.Float64bits(y.Time) || x.SID != y.SID ||
			x.Cores != y.Cores || math.Float64bits(x.Bytes) != math.Float64bits(y.Bytes) ||
			x.App != y.App || x.Target != y.Target || x.Prepared() != y.Prepared() {
			return false
		}
	}
	return true
}

// FuzzReader feeds arbitrary bytes through the trace reader, in both strict
// and lenient (truncation-tolerant) modes: calciom-replay opens operator
// files, and a corrupt or truncated trace must produce an error or a
// truncation report, never a panic or a runaway allocation. Whatever strict
// Read accepts must survive a round trip — re-encoded by a Writer, it reads
// back to the same events — and ReadLenient must read it to the same events,
// reporting no truncation. Seeds are the
// golden-bytes corpus: a plain version-3 file, one with sync records, the
// version-1 and version-2 encodings pinned by the compatibility tests, the
// version-3 Prepare that declares every recognized key, and a mid-record
// truncation.
func FuzzReader(f *testing.F) {
	events := []Event{
		{Type: EvRegister, Time: 1.5, SID: 7, App: "ab", Cores: 3},
		{Type: EvPrepare, Time: 2, SID: 7, Info: map[string]string{"b": "2", "a": "1"}},
		{Type: EvInform, Time: 2.5, SID: 7, Bytes: 8, Target: "bb1"},
		{Type: EvGrant, Time: 2.5, SID: 7, Target: "bb1"},
	}
	hdr := Header{Source: SourceDaemon, Policy: "fcfs"}
	plain := fuzzSample(f, hdr, Options{}, events)
	f.Add(plain)
	f.Add(fuzzSample(f, hdr, Options{SyncEvery: 1}, events))
	f.Add(plain[:len(plain)-9])               // trailer cut mid-record
	f.Add(plain[:14])                         // header cut mid-JSON
	f.Add([]byte("CALTRACE\x03\x00\xff\xff")) // header length past EOF
	f.Add([]byte("" +
		"CALTRACE" + "\x02\x00" + "\x25\x00" +
		`{"source":"calciomd","policy":"fcfs"}` +
		"\x01\x00\x00\x00\x00\x00\x00\xf8\x3f\x07\x00\x00\x00\x00\x00\x02\x00ab\x03\x00\x00\x00" +
		"\xff\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("" +
		"CALTRACE" + "\x01\x00" + "\x25\x00" +
		`{"source":"calciomd","policy":"fcfs"}` +
		"\x01\x00\x00\x00\x00\x00\x00\xf8\x3f\x07\x00\x00\x00\x02\x00ab\x03\x00\x00\x00"))
	f.Add([]byte(v3Prepare))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, lenient := range []bool{false, true} {
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				return
			}
			r.SetLenient(lenient)
			var ev Event
			// Every successful Next consumes at least a record prelude, so
			// the loop is bounded by the input length; the cap is a backstop.
			for i := 0; i <= len(data); i++ {
				if err := r.Next(&ev); err != nil {
					break
				}
			}
		}

		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		lenient, err := ReadLenient(bytes.NewReader(data))
		if err != nil || lenient.Truncated || !sameEvents(lenient.Events, tr.Events) {
			t.Fatalf("ReadLenient of a valid trace: err %v, truncated %v, events equal %v",
				err, lenient != nil && lenient.Truncated, err == nil && sameEvents(lenient.Events, tr.Events))
		}
		var b bytes.Buffer
		w, err := NewWriter(&b, tr.Header, len(tr.Events)+1)
		if err != nil {
			t.Skipf("header does not re-encode: %v", err) // it can outgrow the length field once escaped
		}
		for _, ev := range tr.Events {
			w.Record(ev)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("re-encoding a valid trace: %v", err)
		}
		back, err := Read(&b)
		if err != nil || !sameEvents(back.Events, tr.Events) {
			t.Fatalf("re-encoded trace reads back differently: err %v", err)
		}
	})
}
