package pfs

// PerServerBytes computes how many bytes of the extent [offset, offset+length)
// land on each of nservers servers under round-robin striping with the given
// stripe unit, starting at server (offset/stripe + firstServer) % nservers.
// It runs in O(nservers) regardless of extent size.
func PerServerBytes(offset, length, stripe int64, nservers int, firstServer int) []int64 {
	return PerServerBytesInto(make([]int64, nservers), offset, length, stripe, nservers, firstServer)
}

// PerServerBytesInto is PerServerBytes writing into caller-provided scratch,
// which must have length nservers; it returns the scratch. The transfer hot
// path uses it so striping a request allocates nothing.
func PerServerBytesInto(out []int64, offset, length, stripe int64, nservers int, firstServer int) []int64 {
	if len(out) != nservers {
		panic("pfs: PerServerBytesInto scratch length mismatch")
	}
	for i := range out {
		out[i] = 0
	}
	if length <= 0 {
		return out
	}
	if stripe <= 0 {
		panic("pfs: stripe unit must be positive")
	}
	// First (possibly partial) stripe unit.
	first := offset / stripe
	last := (offset + length - 1) / stripe
	units := last - first + 1

	srv := func(unit int64) int {
		return int((unit+int64(firstServer))%int64(nservers)+int64(nservers)) % nservers
	}

	if units == 1 {
		out[srv(first)] = length
		return out
	}

	// Head partial unit.
	head := stripe - offset%stripe
	out[srv(first)] += head
	// Tail partial unit.
	tail := (offset+length-1)%stripe + 1
	out[srv(last)] += tail
	// Full middle units: distribute round-robin.
	middle := units - 2
	if middle > 0 {
		per := middle / int64(nservers)
		rem := middle % int64(nservers)
		for s := 0; s < nservers; s++ {
			out[s] += per * stripe
		}
		// The remaining `rem` units go to consecutive servers starting
		// after the head unit's server.
		for i := int64(0); i < rem; i++ {
			out[srv(first+1+i)] += stripe
		}
	}
	return out
}
