package traffic

// Generator merges per-UE sources into one time-ordered packet stream
// via the (time, sequence) event heap: each source keeps exactly one
// pending event in the heap; popping it re-arms the source with its
// next arrival. The merge is a pure function of the sources, so the
// stream is byte-reproducible for a given (spec, seed, UE set).
type Generator struct {
	q       EventQueue[arrival]
	sources []Source
}

// arrival is one packet arrival: which source (UE index) and its size.
type arrival struct {
	src  int
	size int
}

// Arrival is one merged packet arrival handed to the serving loop.
type Arrival struct {
	// UE is the index into the source slice the generator was built
	// with (the world's UE index, not the UE ID).
	UE int
	// T is the arrival time in seconds since the serving phase began.
	T float64
	// Bytes is the IP packet size.
	Bytes int
}

// NewGenerator builds a merged stream over the given sources. Nil
// sources (full-buffer UEs) are skipped.
func NewGenerator(sources []Source) *Generator {
	g := &Generator{sources: sources}
	for i, s := range sources {
		if s == nil {
			continue
		}
		if t, size, ok := s.Next(); ok {
			g.q.Push(t, arrival{src: i, size: size})
		}
	}
	return g
}

// Pop returns the next arrival strictly before limit, re-arming its
// source; ok=false when no source has an arrival before limit.
func (g *Generator) Pop(limit float64) (Arrival, bool) {
	ev, ok := g.q.Peek()
	if !ok || ev.T >= limit {
		return Arrival{}, false
	}
	g.q.Pop()
	if t, size, ok := g.sources[ev.Payload.src].Next(); ok {
		g.q.Push(t, arrival{src: ev.Payload.src, size: size})
	}
	return Arrival{UE: ev.Payload.src, T: ev.T, Bytes: ev.Payload.size}, true
}
