// Package fixture is the root of the census fixture module: it re-exports
// lib.Thing, so Thing's methods are library API and need no caller.
package fixture

import "fixture/internal/lib"

type Thing = lib.Thing
