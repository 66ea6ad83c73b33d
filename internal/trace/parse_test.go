package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

// pair is one key/value pair of an encoded Prepare.
type pair struct{ k, v string }

// appendStr appends a u16-length-prefixed string.
func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// prepareFile hand-encodes a version-v trace of one Prepare per entry of
// records, its pairs in the order given: repeated keys and unsorted pairs,
// which no Writer produces, included.
func prepareFile(v uint16, records [][]pair) []byte {
	b := binary.LittleEndian.AppendUint16(append([]byte(nil), magic[:]...), v)
	b = appendStr(b, `{"source":"calciomd","policy":"fcfs"}`)
	for i, rec := range records {
		b = append(b, byte(EvPrepare))
		b = le64(b, float64(i))
		b = binary.LittleEndian.AppendUint32(b, 1)
		if v >= 2 {
			b = appendStr(b, "ssd0")
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(rec)))
		for _, p := range rec {
			b = appendStr(appendStr(b, p.k), p.v)
		}
	}
	b = le64(append(b, byte(evTrailer)), 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(records)))
	return binary.LittleEndian.AppendUint64(b, 0)
}

// checkParsed reads records encoded at every format version and holds each
// Prepare's parsed info to core.ParseInfo of the map its pairs form — the
// map earlier readers built, in which a repeated key keeps its last value.
func checkParsed(t *testing.T, records [][]pair) {
	t.Helper()
	for v := uint16(1); v <= Version; v++ {
		tr, err := Read(bytes.NewReader(prepareFile(v, records)))
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		if len(tr.Events) != len(records) {
			t.Fatalf("version %d: read %d events of %d", v, len(tr.Events), len(records))
		}
		for i, rec := range records {
			m := core.Info{}
			for _, p := range rec {
				m[p.k] = p.v
			}
			ev := &tr.Events[i]
			if ev.Info != nil || ev.Parsed == nil {
				t.Fatalf("version %d, %v: read with Info %v and Parsed %v, want only Parsed", v, rec, ev.Info, ev.Parsed)
			}
			if got, want := ev.Prepared(), core.ParseInfo(m); got != want {
				t.Errorf("version %d, pairs %q: parsed %v, ParseInfo of their map %v", v, rec, got.Info(), want.Info())
			}
		}
	}
}

// TestReadParsesLikeParseInfo is the reader's parse against the map parse
// on the cases that tell them apart if anything does.
func TestReadParsesLikeParseInfo(t *testing.T) {
	long := "0." + strings.Repeat("0", 40) + "125" // past the conversion's stack buffer
	checkParsed(t, [][]pair{
		{},
		{{"alone_bw", "2.5e9"}, {"bytes_total", "1024"}, {"cores", "64"}, {"files", "3"}, {"rounds", "7"}},
		{{"rounds", "7"}, {"files", "3"}, {"bytes_total", "1024"}}, // unsorted
		// A repeated key: the last value wins, malformed or not.
		{{"bytes_total", "10"}, {"bytes_total", "x"}},
		{{"files", "x"}, {"files", "5"}},
		{{"cores", "8"}, {"rounds", "2"}, {"cores", "16"}},
		// Keys no policy reads, near misses of the ones it does included.
		{{"colour", "12"}, {"Files", "12"}, {"cores ", "12"}, {"bytes_per_round", "12"}, {"", "12"}},
		{{strings.Repeat("k", 40), "1"}, {"bytes_total", long}},
		// Floats that are no declaration.
		{{"bytes_total", "NaN"}, {"alone_bw", "Inf"}},
		{{"bytes_total", "-Inf"}, {"alone_bw", "+Inf"}},
		{{"bytes_total", "nan"}, {"alone_bw", "1e999"}},
		{{"bytes_total", "-1.5"}, {"alone_bw", "-0"}},
		{{"bytes_total", ""}, {"alone_bw", "0x10"}},
		// Ints negative, overflowing or malformed.
		{{"files", "-3"}, {"rounds", "9223372036854775808"}, {"cores", "-9223372036854775809"}},
		{{"files", "9223372036854775807"}, {"rounds", "+12"}, {"cores", "0"}},
		{{"files", "1.5"}, {"rounds", " 3"}, {"cores", "NaN"}},
	})
}

// TestReadParsesLikeParseInfoRandom draws pair lists from the same keys and
// values, repeats and all.
func TestReadParsesLikeParseInfoRandom(t *testing.T) {
	keys := []string{core.KeyBytesTotal, core.KeyAloneBW, core.KeyFiles, core.KeyRounds, core.KeyCores,
		core.KeyBytesPerRound, "colour"}
	values := []string{"0", "-0", "7", "1024", "2.5e9", "-3", "1e999", "NaN", "Inf", "x", "",
		"9223372036854775807", "9223372036854775808", "0.125"}
	rng := rand.New(rand.NewSource(1))
	records := make([][]pair, 500)
	for i := range records {
		rec := make([]pair, rng.Intn(9))
		for j := range rec {
			rec[j] = pair{keys[rng.Intn(len(keys))], values[rng.Intn(len(values))]}
		}
		records[i] = rec
	}
	checkParsed(t, records)
}
