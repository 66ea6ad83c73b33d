package core

import "fmt"

// Reason is a policy's explanation for a decision, carried as a small value
// and rendered only when somebody prints it: a decision is taken per
// coordination message, its reason is read when a log is shown. Every policy
// of this package stores what its sentence is made of (an application name, a
// number, for the dynamic policy its metric's name); a policy with a text of
// its own wraps it with TextReason. Reasons are comparable, but two that
// print alike need not be equal — compare String() where the wording is what
// matters.
type Reason struct {
	kind reasonKind
	s    string // the text, or the application the sentence names
	v    float64
	m    string // the dynamic kinds: the metric the cost v is in
}

type reasonKind uint8

const (
	reasonText         reasonKind = iota // s verbatim
	reasonFirst                          // "<s> arrived first (t=<v>)"
	reasonLast                           // "<s> arrived last (t=<v>)"
	reasonHolding                        // "holder <s> rem=<v>s"
	reasonPriority                       // "priority <v>", v an int
	reasonLeastServed                    // "least served (<v>% done)"
	reasonDynSerialize                   // "dynamic: serialize after <s> (cost <v> by <m>)"
	reasonDynSJF                         // "dynamic: shortest job first (<s>) (cost <v> by <m>)"
	reasonDynInterrupt                   // "dynamic: interrupt for newcomer (cost <v> by <m>)"
	reasonDynInterfere                   // "dynamic: interference is cheap (cost <v> by <m>)"
)

// TextReason wraps an already-rendered explanation.
func TextReason(text string) Reason { return Reason{s: text} }

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
	case reasonDynSerialize:
		return fmt.Sprintf("dynamic: serialize after %s (cost %.4g by %s)", r.s, r.v, r.m)
	case reasonDynSJF:
		return fmt.Sprintf("dynamic: shortest job first (%s) (cost %.4g by %s)", r.s, r.v, r.m)
	case reasonDynInterrupt:
		return fmt.Sprintf("dynamic: interrupt for newcomer (cost %.4g by %s)", r.v, r.m)
	case reasonDynInterfere:
		return fmt.Sprintf("dynamic: interference is cheap (cost %.4g by %s)", r.v, r.m)
	}
	return r.s
}
