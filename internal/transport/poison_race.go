//go:build race

package transport

// poison marks a payload whose ownership the transport took and did not hand
// to a receiver. Under the race detector it is overwritten on the spot, so a
// sender that reads what it gave to SendOwned sees 0xDB, not its bytes, even
// on a transport (TCP) where no receiver goroutine touches the slice.
func poison(payload []byte) {
	for i := range payload {
		payload[i] = 0xDB
	}
}
