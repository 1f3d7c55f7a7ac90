// Command ext uses package a from another module.
package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() { fmt.Println(a.UsedByExt()) }
