package transport_test

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"

	"eccheck/internal/bufpool"
	"eccheck/internal/chaos"
	"eccheck/internal/obs"
	"eccheck/internal/obs/flight"
	"eccheck/internal/transport"
)

// TestTransportConformance holds both transports, bare and under each
// wrapper the system stacks on them, to the four properties the checkpoint
// protocol leans on:
//
//	borrow  the sender overwrites its buffer the moment Send returns and the
//	        receiver still gets the original bytes
//	owned   a pooled buffer given to SendOwned arrives intact, and on the
//	        memory transport it is the very slice the receiver gets — every
//	        wrapper forwards the hand-over — while the link still charges
//	        its latency
//	fifo    frames of one (from, tag) stream arrive whole and in order while
//	        1 MiB and 16-byte frames on several tags from concurrent senders
//	        share every connection to one destination
//	counts  the transport_* send and receive counters read exactly what was
//	        sent, owned sends included, and a flight recorder holds one send
//	        event per send and one recv event per receive with those bytes
func TestTransportConformance(t *testing.T) {
	transports := []struct {
		name string
		open func(int) (transport.Network, error)
	}{
		{"memory", transport.NewMemory},
		{"tcp", transport.NewTCPLoopback},
	}
	const latency = 20 * time.Microsecond
	// Every layer but "bare" sits under the observer, so the counters are
	// held to the sends whatever is stacked beneath it: "metrics" is the
	// system's default stack, "flight" adds the recorder, "link" is the
	// latency-only chaos plan the scale-out sweep shapes its link with, and
	// "chaos" adds seeded jitter.
	layers := []struct {
		name   string
		plan   *chaos.Plan
		record bool
	}{
		{"bare", nil, false},
		{"metrics", nil, false},
		{"flight", nil, true},
		{"link", &chaos.Plan{Latency: latency}, false},
		{"chaos", &chaos.Plan{Seed: 1, Latency: latency, Jitter: 100 * time.Microsecond}, false},
	}
	const size, dest = 3, 2
	for _, tr := range transports {
		for _, layer := range layers {
			t.Run(tr.name+"/"+layer.name, func(t *testing.T) {
				n, err := tr.open(size)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = n.Close() }()
				var (
					reg  *obs.Registry
					rec  *flight.Recorder
					cost time.Duration // the least time a send takes
				)
				if layer.plan != nil {
					if n, err = chaos.Wrap(n, *layer.plan); err != nil {
						t.Fatal(err)
					}
					cost = layer.plan.Latency
				}
				if layer.record {
					rec = flight.New(1024)
				}
				if layer.name != "bare" {
					reg = obs.NewRegistry()
					n = transport.Observe(n, reg, rec)
				}
				eps := make([]transport.Endpoint, size)
				for i := range eps {
					if eps[i], err = n.Endpoint(i); err != nil {
						t.Fatal(err)
					}
				}
				ctx := transport.WithOpTimeout(context.Background(), 20*time.Second)
				sent := make([]traffic, size) // by sender, all to dest
				t.Run("borrow", func(t *testing.T) { sent[0].add(borrow(t, ctx, eps[0], eps[dest])) })
				t.Run("owned", func(t *testing.T) {
					sent[0].add(owned(t, ctx, eps[0], eps[dest], tr.name == "memory", cost))
				})
				t.Run("fifo", func(t *testing.T) {
					for from, tr := range fifo(t, ctx, eps[:dest], eps[dest]) {
						sent[from].add(tr)
					}
				})
				if reg == nil {
					return
				}
				snap := reg.Snapshot()
				counted := func(name, bytesName string, node, peer int) traffic {
					labels := []obs.Label{obs.L("node", strconv.Itoa(node)), obs.L("peer", strconv.Itoa(peer))}
					msgs, _ := snap.Counter(name, labels...)
					vol, _ := snap.Counter(bytesName, labels...)
					return traffic{msgs, vol}
				}
				for from, want := range sent[:dest] {
					if got := counted("transport_sends_total", "transport_send_bytes_total", from, dest); got != want {
						t.Errorf("send counters of %d -> %d read %+v, the test sent %+v", from, dest, got, want)
					}
					if got := counted("transport_recvs_total", "transport_recv_bytes_total", dest, from); got != want {
						t.Errorf("recv counters of %d <- %d read %+v, the test sent %+v", dest, from, got, want)
					}
				}
				if rec == nil {
					return
				}
				events := map[flight.EventType][]traffic{flight.EvSend: make([]traffic, size), flight.EvRecv: make([]traffic, size)}
				for _, ev := range rec.Snapshot() {
					by, ok := events[ev.Type]
					if !ok {
						continue
					}
					if ev.Err != "" {
						t.Errorf("%s event %d -> %d %q failed: %s", ev.Type, ev.Node, ev.Peer, ev.Tag, ev.Err)
					}
					from := ev.Node
					if ev.Type == flight.EvRecv {
						from = ev.Peer
					}
					by[from].add(traffic{1, ev.Bytes})
				}
				for ty, by := range events {
					for from, want := range sent {
						if got := by[from]; got != want {
							t.Errorf("%s events from %d read %+v, the test sent %+v", ty, from, got, want)
						}
					}
				}
			})
		}
	}
}

// traffic is what one sender put on the network.
type traffic struct{ sends, bytes int64 }

func (t *traffic) add(o traffic) { t.sends += o.sends; t.bytes += o.bytes }

// borrow sends a small and a large payload, scribbles over each the moment
// Send returns, and only then receives them.
func borrow(t *testing.T, ctx context.Context, src, dst transport.Endpoint) (sent traffic) {
	for _, n := range []int{16, 4 << 20} {
		payload := bytes.Repeat([]byte{0xA5}, n)
		if err := src.Send(ctx, dst.Rank(), "borrow", payload); err != nil {
			t.Fatal(err)
		}
		for i := range payload {
			payload[i] = 0x5A
		}
		sent.add(traffic{1, int64(n)})
		got, err := dst.Recv(ctx, src.Rank(), "borrow")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n || bytes.Count(got, []byte{0xA5}) != n {
			t.Fatalf("%d-byte payload: the receiver saw the sender's buffer after Send returned (%d bytes, %d intact)",
				n, len(got), bytes.Count(got, []byte{0xA5}))
		}
		bufpool.Put(got)
	}
	return sent
}

// owned hands a small and a large pooled payload to SendOwned and receives
// them: the bytes arrive intact, handedOver says the receiver must get the
// sender's slice itself, and cost is the least time a send may take.
// The sender touches nothing but the slice's address after the hand-over; the
// receiver puts the payload back.
func owned(t *testing.T, ctx context.Context, src, dst transport.Endpoint, handedOver bool, cost time.Duration) (sent traffic) {
	for _, n := range []int{16, 4 << 20} {
		payload := bufpool.Get(n)
		for i := range payload {
			payload[i] = 0xC3
		}
		base := unsafe.SliceData(payload)
		start := time.Now()
		if err := transport.SendOwned(ctx, src, dst.Rank(), "owned", payload); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took < cost {
			t.Errorf("%d-byte owned send took %v, under the link's %v", n, took, cost)
		}
		sent.add(traffic{1, int64(n)})
		got, err := dst.Recv(ctx, src.Rank(), "owned")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n || bytes.Count(got, []byte{0xC3}) != n {
			t.Fatalf("%d-byte owned payload arrived as %d bytes, %d intact", n, len(got), bytes.Count(got, []byte{0xC3}))
		}
		if handedOver && unsafe.SliceData(got) != base {
			t.Errorf("%d-byte owned payload was copied on its way: a layer does not forward SendOwned", n)
		}
		bufpool.Put(got)
	}
	return sent
}

// fifo runs one goroutine per (sender, tag), each sending alternating 1 MiB
// and 16-byte frames from one buffer it refills after every Send, so the
// goroutines of one sender contend for its connection to dst. A receiver per
// stream checks the length, the order and every byte of every frame.
func fifo(t *testing.T, ctx context.Context, srcs []transport.Endpoint, dst transport.Endpoint) []traffic {
	const tags, frames = 3, 8
	frameLen := func(seq int) int {
		if seq%2 == 0 {
			return 1 << 20
		}
		return 16
	}
	fill := func(from, tag, seq int) byte { return byte(1 + from*tags*frames + tag*frames + seq) }
	sent := make([]traffic, len(srcs))
	var wg sync.WaitGroup
	for from, src := range srcs {
		for tag := 0; tag < tags; tag++ {
			name := fmt.Sprintf("fifo/%d", tag)
			for seq := 0; seq < frames; seq++ {
				sent[from].add(traffic{1, int64(frameLen(seq))})
			}
			wg.Add(2)
			go func() {
				defer wg.Done()
				buf := make([]byte, 1<<20)
				for seq := 0; seq < frames; seq++ {
					payload := buf[:frameLen(seq)]
					for i := range payload {
						payload[i] = fill(from, tag, seq)
					}
					if err := src.Send(ctx, dst.Rank(), name, payload); err != nil {
						t.Errorf("send %d of stream (%d, %s): %v", seq, from, name, err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for seq := 0; seq < frames; seq++ {
					got, err := dst.Recv(ctx, from, name)
					if err != nil {
						t.Errorf("recv %d of stream (%d, %s): %v", seq, from, name, err)
						return
					}
					if want := fill(from, tag, seq); len(got) != frameLen(seq) || bytes.Count(got, []byte{want}) != len(got) {
						t.Errorf("frame %d of stream (%d, %s): %d bytes, %d of them 0x%02x; want %d",
							seq, from, name, len(got), bytes.Count(got, []byte{want}), want, frameLen(seq))
						return
					}
					bufpool.Put(got)
				}
			}()
		}
	}
	wg.Wait()
	return sent
}
