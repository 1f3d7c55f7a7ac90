// Package fixture is the module's root package, the library facade whose
// exported declarations are roots of the reachability scan.
package fixture

import "fixture/internal/a"

// Facade is the library's entry point.
func Facade() int { return a.ViaFacade() }
