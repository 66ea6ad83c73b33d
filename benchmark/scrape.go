package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// scrape is one parsed Prometheus text exposition: every sample keyed by
// its full series name, labels included (`calciomd_grants_total{target="t0"}`).
// The benchmark reads the daemon's counters the way an operator would — by
// rendering the registry it passed as Config.Metrics and parsing the text —
// so a BENCH number and a /metrics scrape cannot disagree.
type scrape map[string]float64

func parseScrape(text string) (scrape, error) {
	s := scrape{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values may contain spaces; the sample value never does.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("scrape: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, nil
}

func scrapeRegistry(reg *obs.Registry) (scrape, error) {
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		return nil, err
	}
	return parseScrape(b.String())
}

// sum adds a family's samples over every label set.
func (s scrape) sum(name string) float64 {
	total := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// sub returns s minus before, sample by sample (series absent from before
// count from zero): the activity between two scrapes of monotone series.
func (s scrape) sub(before scrape) scrape {
	d := make(scrape, len(s))
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// histQuantile estimates the q-quantile (0..1) of histogram family name,
// summed over every label set, by linear interpolation inside the bucket
// the rank falls in (what Prometheus' histogram_quantile does). A rank in
// the +Inf bucket returns the highest finite bound. 0 when empty.
func (s scrape) histQuantile(name string, q float64) float64 {
	byLE := map[float64]float64{}
	prefix := name + "_bucket{"
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		le := k[i+4:]
		le = le[:strings.IndexByte(le, '"')]
		bound := math.Inf(1)
		if le != "+Inf" {
			var err error
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		byLE[bound] += v
	}
	bounds := make([]float64, 0, len(byLE))
	for b := range byLE {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || byLE[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	rank := q * byLE[bounds[len(bounds)-1]]
	lo, below := 0.0, 0.0
	for _, b := range bounds {
		cum := byLE[b]
		if cum >= rank {
			if math.IsInf(b, 1) {
				return lo
			}
			if cum == below {
				return b
			}
			return lo + (b-lo)*(rank-below)/(cum-below)
		}
		lo, below = b, cum
	}
	return lo
}
