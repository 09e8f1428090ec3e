package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Fprintln(lib.Writer(), lib.Used(), lib.Default.Get())
}
