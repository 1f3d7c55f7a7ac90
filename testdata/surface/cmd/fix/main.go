// Command fix runs package b.
package main

import (
	"fmt"

	"fixture/internal/a"
	"fixture/internal/b"
)

func init() { _ = a.UsedByInit() }

func main() { fmt.Println(b.Run()) }
