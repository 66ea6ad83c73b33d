package core

import "fmt"

// Reason is a policy's explanation for a decision, carried as a small value
// and rendered only when somebody prints it: a decision is taken per
// coordination message, its reason is read when a log is shown. The built-in
// serializing policies store what their sentence is made of (an application
// name and one number); every other policy wraps a text it already has with
// TextReason. Reasons are comparable, but two that print alike need not be
// equal — compare String() where the wording is what matters.
type Reason struct {
	kind reasonKind
	s    string // the text, or the application the sentence names
	v    float64
}

type reasonKind uint8

const (
	reasonText    reasonKind = iota // s verbatim
	reasonFirst                     // "<s> arrived first (t=<v>)"
	reasonLast                      // "<s> arrived last (t=<v>)"
	reasonHolding                   // "holder <s> rem=<v>s"
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
	}
	return r.s
}
