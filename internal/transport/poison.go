//go:build !race

package transport

// poison marks a payload whose ownership the transport took and did not hand
// to a receiver; see poison_race.go.
func poison([]byte) {}
