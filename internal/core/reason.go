package core

import "fmt"

// Reason is a policy's explanation for a decision, carried as a small value
// and rendered only when somebody prints it: a decision is taken per
// coordination message, its reason is read when a log is shown. Every policy
// of this package stores what its sentence is made of (an application name, a
// number, for the dynamic policy which of the package's metrics); a policy
// with a text of its own wraps it with TextReason. Four words, because every
// decision copies one into its log record. Reasons are comparable, but two
// that print alike need not be equal — compare String() where the wording is
// what matters.
type Reason struct {
	kind reasonKind
	m    uint8  // the dynamic kinds: the metric the cost v is in, an index into metricNames
	s    string // the text, or the application the sentence names
	v    float64
}

type reasonKind uint8

const (
	reasonText         reasonKind = iota // s verbatim
	reasonFirst                          // "<s> arrived first (t=<v>)"
	reasonLast                           // "<s> arrived last (t=<v>)"
	reasonHolding                        // "holder <s> rem=<v>s"
	reasonPriority                       // "priority <v>", v an int
	reasonLeastServed                    // "least served (<v>% done)"
	reasonDynSerialize                   // "dynamic: serialize after <s> (cost <v> by <metricNames[m]>)"
	reasonDynSJF                         // "dynamic: shortest job first (<s>) (cost <v> by <metricNames[m]>)"
	reasonDynInterrupt                   // "dynamic: interrupt for newcomer (cost <v> by <metricNames[m]>)"
	reasonDynInterfere                   // "dynamic: interference is cheap (cost <v> by <metricNames[m]>)"
)

// metricNames are this package's metrics, as a dynamic reason's m counts them.
var metricNames = [...]string{"cpu-seconds", "sum-io-time", "sum-interference", "makespan"}

// TextReason wraps an already-rendered explanation.
func TextReason(text string) Reason { return Reason{s: text} }

// dynamicReason is the reason of a dynamic decision of the given kind: lazy
// under the package's own metrics, rendered on the spot under a metric from
// elsewhere, whose name a Reason has no room for.
func dynamicReason(kind reasonKind, app string, cost float64, metric string) Reason {
	r := Reason{kind: kind, s: app, v: cost}
	for i, name := range metricNames {
		if name == metric {
			r.m = uint8(i)
			return r
		}
	}
	return TextReason(r.dynamicText(metric))
}

func (r Reason) dynamicText(metric string) string {
	what := [...]string{"serialize after " + r.s, "shortest job first (" + r.s + ")", "interrupt for newcomer", "interference is cheap"}
	return fmt.Sprintf("dynamic: %s (cost %.4g by %s)", what[r.kind-reasonDynSerialize], r.v, metric)
}

// String renders the explanation; %s and %v print it.
func (r Reason) String() string {
	switch r.kind {
	case reasonFirst:
		return fmt.Sprintf("%s arrived first (t=%.3f)", r.s, r.v)
	case reasonLast:
		return fmt.Sprintf("%s arrived last (t=%.3f)", r.s, r.v)
	case reasonHolding:
		return fmt.Sprintf("holder %s rem=%.2fs", r.s, r.v)
	case reasonPriority:
		return fmt.Sprintf("priority %d", int(r.v))
	case reasonLeastServed:
		return fmt.Sprintf("least served (%.0f%% done)", r.v)
	case reasonDynSerialize, reasonDynSJF, reasonDynInterrupt, reasonDynInterfere:
		return r.dynamicText(metricNames[r.m])
	}
	return r.s
}
