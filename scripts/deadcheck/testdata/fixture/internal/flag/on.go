//go:build race

// Package flag is a build-tagged pair: exactly one file declares
// Enabled in any build.
package flag

// Enabled is true under -race.
const Enabled = true
