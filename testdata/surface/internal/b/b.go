// Package b uses package a the ways the scan must count.
package b

import (
	"fmt"

	"fixture/internal/a"
)

type impl struct{}

// Do implements a.Backend.
func (impl) Do() int { return 1 }

// Run uses a.
func Run() string {
	return fmt.Sprint(a.UsedByB(), a.New().Named(), a.MakeReport(), a.Use(impl{}), a.Check(), a.Dial())
}
