// Package shape declares what the gate must keep quiet about.
package shape

// Shape is used: NewSquare returns one.
type Shape interface{ Area() int }

type square struct{ side int }

// Area is reached only through Shape.
func (s square) Area() int { return s.side * s.side }

// NewSquare is called by cmd/tool.
func NewSquare(side int) Shape { return square{side} }

// Panel is aliased by repro.go.
type Panel struct{}

// Width has no caller in the module; the facade keeps it.
func (Panel) Width() int { return 0 }

// Oracle has no caller outside tests; it is allowlisted.
func Oracle() int { return 1 }
