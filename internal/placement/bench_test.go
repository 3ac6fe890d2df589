package placement

import (
	"fmt"
	"testing"

	"eccheck/internal/parallel"
)

func BenchmarkPlanCompilation(b *testing.B) {
	for _, tc := range []struct{ nodes, gpus, k, m int }{
		{4, 4, 2, 2},
		{16, 8, 8, 8},
		{64, 8, 32, 32},
	} {
		b.Run(fmt.Sprintf("n%d_g%d", tc.nodes, tc.gpus), func(b *testing.B) {
			topo, err := parallel.NewTopology(tc.nodes, tc.gpus, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(topo, tc.k, tc.m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCommVolumeAccounting(b *testing.B) {
	topo, err := parallel.NewTopology(32, 8, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(topo, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := p.CommVolume()
		if v.Total() != p.M*p.Topo.World() {
			b.Fatal("closed form violated")
		}
	}
}
