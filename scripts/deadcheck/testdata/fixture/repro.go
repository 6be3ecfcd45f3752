// Package fixture is a facade over its internal/ packages.
package fixture

import "fixture/internal/shape"

// Panel is facade API: its methods are live without an in-module
// caller.
type Panel = shape.Panel
