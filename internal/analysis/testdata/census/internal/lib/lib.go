// Package lib declares one export of each kind the census audits; only
// Unused has no caller.
package lib

import "io"

// Limit is read by the command.
const Limit = 3

// Default is read by the command.
var Default = Box[int]{v: Limit}

// Used is called by the command.
func Used() int { return Limit }

// Unused has no caller: the census must name it.
func Unused() int { return 0 }

// Thing is re-exported by the root package; Grow is library API.
type Thing struct{ n int }

func (t *Thing) Grow() { t.n++ }

// Box is generic; Get is called on an instance.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

// Sink is only ever used as an io.Writer; Write is reached through it.
type Sink struct{ n int }

func (s *Sink) Write(p []byte) (int, error) { s.n += len(p); return len(p), nil }

func (s *Sink) String() string { return "sink" }

// Writer hands out a Sink as an io.Writer.
func Writer() io.Writer { return &Sink{} }
