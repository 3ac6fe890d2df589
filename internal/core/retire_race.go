//go:build race

package core

// retire marks a buffer that enters a spare stack. Under the race detector it
// is overwritten on the spot, so every test in the race gate proves that no
// reader still depends on a displaced segment or cache and that no round
// depends on what its host blobs held before.
func retire(seg []byte) {
	for i := range seg {
		seg[i] = 0xDB
	}
}
