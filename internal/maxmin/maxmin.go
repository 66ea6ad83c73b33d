// Package maxmin is the simulator's one rate allocator: weighted max-min
// fair sharing of capacity-limited links by flows that cross one or more of
// them, each flow optionally capped, computed by progressive filling. Every
// flow's rate grows in proportion to its weight until some link saturates or
// some flow reaches its cap; the flows crossing that link, or that one flow,
// freeze, and the capacity left keeps filling the others. The result is the
// unique allocation in which every flow is at its cap or crosses a saturated
// link on which no flow gets more per unit of weight.
//
// fabric rates its whole link graph here, without caps (a client NIC is a
// link); fluid rates a resource's jobs as one link they all cross, with each
// job's rate cap as its cap. A flow frozen by its cap gets the cap exactly.
//
// Fill works in the caller's Links and Flows and allocates nothing. It
// iterates links and flows in index order and freezes a saturated link's
// flows in the order the caller lists them, so its floating-point
// accumulation order — and therefore every rate — is a function of the input
// alone, bit for bit.
package maxmin

import "math"

// Link is one capacity-limited element of a Net.
type Link struct {
	Capacity float64 // ≥ 0
	Members  []int   // the flows crossing the link, in the order its saturation freezes them

	remaining float64 // capacity not yet handed out
	load      float64 // the weight of its unfrozen flows
	active    int     // how many of its flows are unfrozen
}

// Flow is one flow of a Net.
type Flow struct {
	Weight float64 // > 0
	Cap    float64 // rate cap, 0 for none
	Links  []int   // the links crossed
	Rate   float64 // Fill's output

	frozen bool
}

// Net is one allocation problem: links and flows are dense indexes into
// Links and Flows, which the caller owns and fills. A Net is not safe for
// concurrent use; its zero value is ready.
type Net struct {
	Links []Link
	Flows []Flow
}

// Fill sets every flow's Rate to its weighted max-min fair rate. A flow that
// is uncapped and crosses no link of finite capacity gets +Inf.
//
// One fill costs O(B·(F·L̄+L)) for B saturation rounds, F flows crossing L̄
// links each, and L links.
func (n *Net) Fill() {
	links, flows := n.Links, n.Flows
	for l := range links {
		k := &links[l]
		k.remaining, k.load, k.active = k.Capacity, 0, 0
	}
	capped := false // does any flow have a cap
	for f := range flows {
		fl := &flows[f]
		fl.frozen, fl.Rate = false, 0
		capped = capped || fl.Cap > 0
		for _, l := range fl.Links {
			links[l].active++
			links[l].load += fl.Weight
		}
	}
	unfrozen := len(flows)
	var one [1]int // the flow a cap freezes

	for unfrozen > 0 {
		// The link that saturates first: the one minimizing its remaining
		// capacity per unit of unfrozen weight; or, sooner still, the first
		// flow to reach its cap.
		level := math.Inf(1)
		tight, atCap := -1, -1
		for l := range links {
			k := &links[l]
			if k.active == 0 || k.load <= 0 {
				continue
			}
			if lv := k.remaining / k.load; lv < level {
				level = lv
				tight = l
			}
		}
		for f := 0; capped && f < len(flows); f++ {
			if fl := &flows[f]; fl.Cap > 0 && !fl.frozen {
				if lv := max((fl.Cap-fl.Rate)/fl.Weight, 0); lv < level {
					level = lv
					atCap = f
				}
			}
		}
		if atCap < 0 && (tight < 0 || math.IsInf(level, 1)) {
			// Nothing constrains the flows left: they are unbounded.
			for f := range flows {
				if !flows[f].frozen {
					flows[f].Rate = math.Inf(1)
				}
			}
			return
		}
		// Raise every unfrozen flow by level × weight; freeze the capped
		// flow at its cap, or the flows on the tight link.
		for f := range flows {
			fl := &flows[f]
			if fl.frozen {
				continue
			}
			inc := level * fl.Weight
			fl.Rate += inc
			for _, l := range fl.Links {
				k := &links[l]
				k.remaining -= inc
				if k.remaining < 0 {
					k.remaining = 0
				}
			}
		}
		freeze := one[:]
		if atCap >= 0 {
			flows[atCap].Rate = flows[atCap].Cap
			one[0] = atCap
		} else {
			freeze = links[tight].Members
		}
		for _, f := range freeze {
			fl := &flows[f]
			if fl.frozen {
				continue
			}
			fl.frozen = true
			unfrozen--
			for _, l := range fl.Links {
				links[l].active--
				links[l].load -= fl.Weight
			}
		}
	}
}
