// Package core implements CALCioM, the paper's contribution: a
// cross-application layer for coordinated I/O management. Applications
// register a Coordinator with a shared Layer, describe their upcoming I/O
// with Prepare, announce it with Inform, and gate their accesses with
// Check/Wait/Release. A pluggable Policy arbitrates who may access the file
// system, either statically (interfere, FCFS serialization, interruption) or
// dynamically by minimizing a machine-wide efficiency Metric.
package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Info carries application-declared knowledge about upcoming I/O, mirroring
// the MPI_Info (key,value) structure the paper's Prepare call uses.
type Info map[string]string

// Well-known Info keys. The paper's Section III-C gives the number of files,
// the number of rounds of collective buffering and the amount of data per
// round as examples of values worth communicating.
const (
	KeyBytesTotal    = "bytes_total"     // total bytes this I/O phase will write
	KeyBytesPerRound = "bytes_per_round" // bytes written per collective-buffering round
	KeyFiles         = "files"           // number of files in the phase
	KeyRounds        = "rounds"          // rounds of collective buffering
	KeyCores         = "cores"           // cores the application occupies
	KeyAloneBW       = "alone_bw"        // estimated solo bandwidth (bytes/s), optional
)

// ParsedInfo is one Prepare's info, parsed once and reduced to the keys a
// policy can see: what AppState.Prepare stacks. A negative field was absent,
// malformed or negative, which a policy cannot tell apart; every such field
// holds -1. It is a plain value, so whoever receives an Info — the
// simulator's Coordinator, a daemon shard, a trace reader decoding a recorded
// Prepare — parses it where it arrives and can stack the result any number of
// times.
type ParsedInfo struct {
	bytesTotal, aloneBW  float64
	files, rounds, cores int64
}

// ParseInfo parses the recognized keys of info, in one pass over the map. A
// value that does not parse, or parses to NaN, an infinity or a negative
// number (the info is whatever a client sent), is ignored like a key that is
// not there. ParseInfo(nil) has every key absent.
func ParseInfo(info Info) ParsedInfo {
	p := ParsedInfo{bytesTotal: -1, aloneBW: -1, files: -1, rounds: -1, cores: -1}
	for k, s := range info {
		p.Set(k, s)
	}
	return p
}

// Set parses one key/value pair into p: a recognized key takes the value,
// replacing what an earlier pair of that key left (absent when the value is
// malformed), and any other key is ignored. Setting the pairs of an Info one
// after another, in any order, gives ParseInfo of it; a decoder that meets a
// key twice keeps the last value, as a map would. Neither string is retained.
func (p *ParsedInfo) Set(key, value string) {
	switch key {
	case KeyBytesTotal:
		p.bytesTotal = parseFinite(value)
	case KeyAloneBW:
		p.aloneBW = parseFinite(value)
	case KeyFiles:
		p.files = parseInt(value)
	case KeyRounds:
		p.rounds = parseInt(value)
	case KeyCores:
		p.cores = parseInt(value)
	}
}

// Info returns the canonical Info of p: one pair per recognized key present,
// in strconv's shortest form, so that ParseInfo of it is p again.
func (p ParsedInfo) Info() Info {
	in := Info{}
	if p.bytesTotal >= 0 {
		in.SetFloat(KeyBytesTotal, p.bytesTotal)
	}
	if p.aloneBW >= 0 {
		in.SetFloat(KeyAloneBW, p.aloneBW)
	}
	if p.files >= 0 {
		in.SetInt(KeyFiles, p.files)
	}
	if p.rounds >= 0 {
		in.SetInt(KeyRounds, p.rounds)
	}
	if p.cores >= 0 {
		in.SetInt(KeyCores, p.cores)
	}
	return in
}

// parseFinite returns s as a finite float that is not negative, or -1.
func parseFinite(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
		return -1
	}
	return v
}

// parseInt returns s as an integer that is not negative, or -1.
func parseInt(s string) int64 {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return -1
	}
	return v
}

// SetInt stores an integer value.
func (in Info) SetInt(key string, v int64) { in[key] = strconv.FormatInt(v, 10) }

// SetFloat stores a float value.
func (in Info) SetFloat(key string, v float64) { in[key] = strconv.FormatFloat(v, 'g', -1, 64) }

// Int returns the integer value for key, or def if absent or malformed.
func (in Info) Int(key string, def int64) int64 {
	s, ok := in[key]
	if !ok {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return def
	}
	return v
}

// Float returns the float value for key, or def if absent or malformed.
func (in Info) Float(key string, def float64) float64 {
	s, ok := in[key]
	if !ok {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return def
	}
	return v
}

// Keys returns the keys in sorted order (for deterministic formatting).
func (in Info) Keys() []string {
	ks := make([]string, 0, len(in))
	for k := range in {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// String renders the info deterministically.
func (in Info) String() string {
	s := "{"
	for i, k := range in.Keys() {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%s", k, in[k])
	}
	return s + "}"
}
