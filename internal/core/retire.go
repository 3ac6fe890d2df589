//go:build !race

package core

// retire marks a buffer that enters a spare stack; see retire_race.go.
func retire([]byte) {}
