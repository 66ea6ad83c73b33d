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
