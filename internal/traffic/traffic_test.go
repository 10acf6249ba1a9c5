package traffic

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func normalized(t *testing.T, s Spec) Spec {
	t.Helper()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecNormalizeDefaults(t *testing.T) {
	s := normalized(t, Spec{Model: ModelCBR})
	if s.RateBps != 2e6 || s.PacketBytes != 1200 {
		t.Fatalf("defaults wrong: %+v", s)
	}
	empty := normalized(t, Spec{})
	if empty.Model != ModelFullBuffer {
		t.Fatalf("empty model should default to full-buffer, got %q", empty.Model)
	}
}

func TestSpecNormalizeRejectsBadValues(t *testing.T) {
	for _, bad := range []Spec{
		{Model: "warp-drive"},
		{Model: ModelCBR, RateBps: -1},
		{Model: ModelCBR, PacketBytes: 4},
		{Model: ModelWeb, ParetoAlpha: 0.9},
		{Model: ModelOnOff, BurstS: -2},
	} {
		s := bad
		if err := s.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted", bad)
		}
	}
}

// NaN and ±Inf pass every sign and range check, so each float of the
// spec, of a cohort, of its diurnal periods and of its flash crowd is
// checked for finiteness by name.
func TestSpecNormalizeRejectsNonFinite(t *testing.T) {
	base := func() Spec {
		return Spec{Model: ModelPoisson, Cohorts: []Cohort{{
			Name: "a", Share: 1,
			Diurnal: []Period{{Seconds: 5, Mult: 1}},
			Flash:   &Flash{AtS: 1, Peak: 2},
		}}}
	}
	if s := base(); s.Normalize() != nil {
		t.Fatalf("base spec rejected: %v", s.Normalize())
	}
	for _, f := range []struct {
		name string
		set  func(s *Spec, v float64)
	}{
		{"rate_bps", func(s *Spec, v float64) { s.RateBps = v }},
		{"burst_s", func(s *Spec, v float64) { s.BurstS = v }},
		{"idle_s", func(s *Spec, v float64) { s.IdleS = v }},
		{"flow_kb", func(s *Spec, v float64) { s.FlowKB = v }},
		{"pareto_alpha", func(s *Spec, v float64) { s.ParetoAlpha = v }},
		{"pacing_bps", func(s *Spec, v float64) { s.PacingBps = v }},
		{"shape", func(s *Spec, v float64) { s.Shape = v }},
		{`cohort "a" share`, func(s *Spec, v float64) { s.Cohorts[0].Share = v }},
		{`cohort "a" rate_bps`, func(s *Spec, v float64) { s.Cohorts[0].RateBps = v }},
		{`cohort "a" shape`, func(s *Spec, v float64) { s.Cohorts[0].Shape = v }},
		{`cohort "a" burst_s`, func(s *Spec, v float64) { s.Cohorts[0].BurstS = v }},
		{`cohort "a" idle_s`, func(s *Spec, v float64) { s.Cohorts[0].IdleS = v }},
		{`cohort "a" flow_kb`, func(s *Spec, v float64) { s.Cohorts[0].FlowKB = v }},
		{`cohort "a" diurnal period 0 seconds`, func(s *Spec, v float64) { s.Cohorts[0].Diurnal[0].Seconds = v }},
		{`cohort "a" diurnal period 0 mult`, func(s *Spec, v float64) { s.Cohorts[0].Diurnal[0].Mult = v }},
		{`cohort "a" flash at_s`, func(s *Spec, v float64) { s.Cohorts[0].Flash.AtS = v }},
		{`cohort "a" flash peak`, func(s *Spec, v float64) { s.Cohorts[0].Flash.Peak = v }},
		{`cohort "a" flash ramp_s`, func(s *Spec, v float64) { s.Cohorts[0].Flash.RampS = v }},
		{`cohort "a" flash hold_s`, func(s *Spec, v float64) { s.Cohorts[0].Flash.HoldS = v }},
		{`cohort "a" flash decay_s`, func(s *Spec, v float64) { s.Cohorts[0].Flash.DecayS = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := base()
			f.set(&s, v)
			if err := s.Normalize(); err == nil || !strings.Contains(err.Error(), f.name+" must be finite") {
				t.Errorf("%s = %g: err = %v, want it named as non-finite", f.name, v, err)
			}
		}
	}
}

func TestEventQueueOrdersByTimeThenSeq(t *testing.T) {
	var q EventQueue[int]
	q.Push(3.0, 30)
	q.Push(1.0, 10)
	q.Push(2.0, 20)
	q.Push(1.0, 11) // same time: must pop after the earlier push
	var got []int
	for {
		ev, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, ev.Payload)
	}
	want := []int{10, 11, 20, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}

func TestEventQueueMonotonicClamp(t *testing.T) {
	var q EventQueue[int]
	q.Push(5.0, 1)
	q.Pop()
	q.Push(1.0, 2) // in the past: clamped to 5.0
	ev, _ := q.Peek()
	if ev.T != 5.0 {
		t.Fatalf("past event not clamped: t=%g", ev.T)
	}
}

func TestEventQueueRandomizedHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q EventQueue[int]
	for i := 0; i < 1000; i++ {
		q.Push(rng.Float64()*100, i)
	}
	last := -1.0
	for {
		ev, ok := q.Pop()
		if !ok {
			break
		}
		if ev.T < last {
			t.Fatalf("pop went backwards: %g after %g", ev.T, last)
		}
		last = ev.T
	}
}

// drain collects every arrival a source produces.
func drain(src Source) (ts []float64, bytes int) {
	for {
		t, size, ok := src.Next()
		if !ok {
			return ts, bytes
		}
		ts = append(ts, t)
		bytes += size
	}
}

func TestSourcesDeterministicAndRateAccurate(t *testing.T) {
	const horizon = 30.0
	for _, model := range []Model{ModelCBR, ModelPoisson, ModelOnOff, ModelWeb} {
		spec := normalized(t, Spec{Model: model, RateBps: 1e6})
		t1, b1 := drain(NewSource(spec, 3, 99, horizon))
		t2, b2 := drain(NewSource(spec, 3, 99, horizon))
		if !reflect.DeepEqual(t1, t2) || b1 != b2 {
			t.Fatalf("%s: same seed produced different streams", model)
		}
		t3, _ := drain(NewSource(spec, 4, 99, horizon))
		if reflect.DeepEqual(t1, t3) {
			t.Errorf("%s: different UEs share a stream", model)
		}
		// Long-run mean within 30% of the nominal rate (web is the
		// loosest: Pareto flow sizes converge slowly).
		got := float64(b1) * 8 / horizon
		if math.Abs(got-spec.RateBps) > 0.3*spec.RateBps {
			t.Errorf("%s: offered %0.f bps, want ~%0.f", model, got, spec.RateBps)
		}
		// Arrivals are in order and inside the horizon.
		last := 0.0
		for _, ti := range t1 {
			if ti < last || ti >= horizon {
				t.Fatalf("%s: arrival %g out of order or past horizon", model, ti)
			}
			last = ti
		}
	}
}

func TestOnOffIsBurstier(t *testing.T) {
	const horizon = 60.0
	cbr := normalized(t, Spec{Model: ModelCBR, RateBps: 1e6})
	onoff := normalized(t, Spec{Model: ModelOnOff, RateBps: 1e6})
	cv := func(ts []float64) float64 {
		var iats []float64
		for i := 1; i < len(ts); i++ {
			iats = append(iats, ts[i]-ts[i-1])
		}
		var sum float64
		for _, x := range iats {
			sum += x
		}
		mean := sum / float64(len(iats))
		var vv float64
		for _, x := range iats {
			vv += (x - mean) * (x - mean)
		}
		return math.Sqrt(vv/float64(len(iats))) / mean
	}
	tc, _ := drain(NewSource(cbr, 0, 7, horizon))
	to, _ := drain(NewSource(onoff, 0, 7, horizon))
	if cv(to) < 2*cv(tc) {
		t.Errorf("onoff CV %.2f not clearly burstier than cbr CV %.2f", cv(to), cv(tc))
	}
}

func TestWebFlowsAreHeavyTailed(t *testing.T) {
	spec := normalized(t, Spec{Model: ModelWeb, RateBps: 4e6})
	ts, _ := drain(NewSource(spec, 1, 11, 120))
	if len(ts) == 0 {
		t.Fatal("web source produced nothing")
	}
	// Back-to-back paced packets inside flows → many gaps exactly at
	// the pacing interval.
	gap := float64(spec.PacketBytes*8) / spec.PacingBps
	paced := 0
	for i := 1; i < len(ts); i++ {
		if math.Abs((ts[i]-ts[i-1])-gap) < 1e-12 {
			paced++
		}
	}
	if paced == 0 {
		t.Error("no in-flow pacing gaps observed")
	}
}

func TestGeneratorMergesInOrder(t *testing.T) {
	spec := normalized(t, Spec{Model: ModelPoisson, RateBps: 5e5})
	var sources []Source
	for ue := 0; ue < 5; ue++ {
		sources = append(sources, NewSource(spec, ue, 123, 10))
	}
	g := NewGenerator(sources)
	last := 0.0
	n := 0
	for {
		a, ok := g.Pop(math.Inf(1))
		if !ok {
			break
		}
		if a.T < last {
			t.Fatalf("merge out of order: %g after %g", a.T, last)
		}
		last = a.T
		n++
	}
	if n == 0 {
		t.Fatal("generator produced nothing")
	}
	// Pop with a limit never returns arrivals at/after the limit.
	g2 := NewGenerator([]Source{NewSource(spec, 0, 123, 10)})
	if a, ok := g2.Pop(0); ok {
		t.Fatalf("Pop(0) returned arrival at %g", a.T)
	}
}

func TestCollectorReportAndPercentiles(t *testing.T) {
	c := NewCollector(ModelCBR, []int{0, 1})
	c.Offered(0, 100)
	c.Offered(0, 100)
	c.Offered(1, 100)
	c.Delivered(0, 100, 0.010)
	c.Delivered(0, 100, 0.020)
	c.Dropped(1, 100)
	rep := c.Report(2, []int{0, 0}, []int{2, 1})

	k0 := rep.KPIs[0]
	if k0.DeliveredPackets != 2 || k0.ThroughputBps != 800 {
		t.Fatalf("UE0 row wrong: %+v", k0)
	}
	if math.Abs(k0.MeanDelayS-0.015) > 1e-12 || k0.MaxDelayS != 0.020 {
		t.Fatalf("UE0 delay wrong: %+v", k0)
	}
	if k0.P95DelayS < 0.020 || k0.P95DelayS > 0.030 {
		t.Fatalf("UE0 p95 %g not in bucket above 20ms", k0.P95DelayS)
	}
	k1 := rep.KPIs[1]
	if k1.LossFrac != 1 || k1.DroppedBytes != 100 {
		t.Fatalf("UE1 loss wrong: %+v", k1)
	}
	if rep.Summary.OfferedBytes != 300 || rep.Summary.DeliveredBytes != 200 {
		t.Fatalf("summary wrong: %+v", rep.Summary)
	}
	if math.Abs(rep.Summary.LossFrac-1.0/3) > 1e-12 {
		t.Fatalf("summary loss %g", rep.Summary.LossFrac)
	}
}

func TestCollectorFullBuffer(t *testing.T) {
	c := NewCollector(ModelFullBuffer, []int{7})
	c.FullBufferServed(0, 8000) // 1000 bytes
	rep := c.Report(1, nil, nil)
	k := rep.KPIs[0]
	if k.DeliveredBytes != 1000 || k.ThroughputBps != 8000 {
		t.Fatalf("full-buffer row wrong: %+v", k)
	}
	if k.MeanDelayS != 0 || k.LossFrac != 0 {
		t.Fatalf("full-buffer must report no delay/loss: %+v", k)
	}
}

func TestDelayBucketsMonotone(t *testing.T) {
	for i := 1; i < len(DelayBuckets); i++ {
		if DelayBuckets[i] <= DelayBuckets[i-1] {
			t.Fatalf("bucket %d not increasing", i)
		}
	}
	if DelayBuckets[0] > 1e-4+1e-15 || DelayBuckets[len(DelayBuckets)-1] < 59 {
		t.Fatalf("bucket range wrong: [%g, %g]", DelayBuckets[0], DelayBuckets[len(DelayBuckets)-1])
	}
}
