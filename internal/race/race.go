//go:build race

// Package race reports whether the build carries the race detector, as the
// standard library's internal/race does. Tests use it for the one thing the
// detector changes on purpose: sync.Pool drops a share of what it is handed,
// so "allocates nothing once the pools are warm" bounds do not hold.
package race

// Enabled is true in a -race build.
const Enabled = true
