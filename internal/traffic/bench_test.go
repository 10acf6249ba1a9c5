package traffic

import (
	"fmt"
	"testing"
)

// BenchmarkTrafficGenerator measures the event-heap merge across a
// large UE population — the hot path of every traffic-driven serving
// phase.
func BenchmarkTrafficGenerator(b *testing.B) {
	for _, ues := range []int{100, 1000} {
		for _, model := range []Model{ModelPoisson, ModelOnOff, ModelWeb} {
			b.Run(fmt.Sprintf("%s/ues=%d", model, ues), func(b *testing.B) {
				spec := Spec{Model: model, RateBps: 1e6}
				if err := spec.Normalize(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sources := make([]Source, ues)
					for ue := range sources {
						sources[ue] = NewSource(spec, ue, 42, 1.0)
					}
					g := NewGenerator(sources)
					n := 0
					for {
						if _, ok := g.Pop(1.0); !ok {
							break
						}
						n++
					}
					if n == 0 {
						b.Fatal("no arrivals")
					}
				}
			})
		}
	}
}

// BenchmarkTrafficCollector measures KPI accounting throughput.
func BenchmarkTrafficCollector(b *testing.B) {
	ids := make([]int, 100)
	for i := range ids {
		ids[i] = i
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewCollector(ModelPoisson, ids)
		for p := 0; p < 10000; p++ {
			ue := p % len(ids)
			c.Offered(ue, 1200)
			c.Delivered(ue, 1200, float64(p%50)*1e-3)
		}
		if rep := c.Report(10, nil, nil); rep.Summary.DeliveredBytes == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkNewSources builds one serving phase's per-UE arrival
// processes at the serve-10k scale: 10,000 UEs on its 100 kb/s on-off
// spec over a 1 s phase. Each source seeds its own stream and draws
// its first idle and burst periods.
func BenchmarkNewSources(b *testing.B) {
	spec := Spec{Model: ModelOnOff, RateBps: 1e5}
	if err := spec.Normalize(); err != nil {
		b.Fatal(err)
	}
	ids := make([]int, 10000)
	for i := range ids {
		ids[i] = i + 1
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if srcs := NewSources(spec, ids, uint64(i), 1); len(srcs) != len(ids) {
			b.Fatalf("%d sources for %d UEs", len(srcs), len(ids))
		}
	}
}
