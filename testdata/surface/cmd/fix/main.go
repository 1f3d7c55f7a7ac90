// Command fix runs package b.
package main

import (
	"fmt"

	"fixture/internal/b"
)

func main() { fmt.Println(b.Run()) }
