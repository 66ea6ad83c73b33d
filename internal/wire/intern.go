package wire

// internLimit bounds an Interner so a peer cycling through distinct names
// cannot grow a decoder without bound; past the limit lookups still hit but
// misses allocate without being retained.
const internLimit = 1024

// Interner maps the names a decoder reads (targets, app names, error codes)
// to stable strings, so a connection that keeps naming the same few decodes
// them without allocating. The zero value is ready; like the decoder that
// owns it, an Interner belongs to one goroutine. Both codecs, v1 JSON and
// internal/wirebin, keep one per reader.
type Interner struct{ m map[string]string }

// Intern returns b as a string, allocating only on first sight (a map
// lookup keyed by string(b) does not allocate on a hit).
func (in *Interner) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if in.m == nil {
		in.m = make(map[string]string)
	}
	if len(in.m) < internLimit {
		in.m[s] = s
	}
	return s
}
