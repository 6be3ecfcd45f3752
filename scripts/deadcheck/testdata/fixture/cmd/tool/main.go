// Command tool is the fixture's one program.
package main

import (
	"fixture/internal/flag"
	"fixture/internal/shape"
)

func main() { println(shape.NewSquare(2).Area(), flag.On()) }
