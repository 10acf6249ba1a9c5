package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/enb"
	"repro/internal/fault"
	"repro/internal/interference"
	"repro/internal/terrain"
	"repro/internal/traffic"
	"repro/internal/ue"
)

// conservationSpecs are the workloads the conservation property is
// driven with: the bursty, Poisson and heavy-tailed single-class
// models, and one two-cohort spec with a diurnal and a flash envelope.
var conservationSpecs = []traffic.Spec{
	{Model: traffic.ModelOnOff},
	{Model: traffic.ModelPoisson},
	{Model: traffic.ModelWeb},
	{Model: traffic.ModelPoisson, Cohorts: []traffic.Cohort{
		{Name: "video", Share: 1, Model: traffic.ModelWeb, Diurnal: []traffic.Period{{Seconds: 0.5, Mult: 2}, {Seconds: 0.5, Mult: 0.5}}},
		{Name: "voice", Share: 2, Model: traffic.ModelCBR, PacketBytes: 200, Flash: &traffic.Flash{AtS: 0.5, Peak: 4, RampS: 0.3, HoldS: 0.5}},
	}},
}

// backlogOf reads each UE's bearer backlog, in packets and bytes, from
// wherever its context currently lives, after checking the fleet's
// context slots.
func backlogOf(t *testing.T, m *MultiCell) (pkts, bytes []int) {
	t.Helper()
	checkContexts(t, m)
	pkts, bytes = make([]int, len(m.UEs)), make([]int, len(m.UEs))
	for i := range m.UEs {
		ctx, ok := m.Cells[m.Serving[i]].Context(m.imsis[i])
		if !ok {
			t.Fatalf("UE %d has no context on its serving cell %d", m.UEs[i].ID, m.Serving[i])
		}
		b := ctx.Bearer()
		pkts[i], bytes[i] = b.QueuedPackets(), b.QueuedBytes()
	}
	return pkts, bytes
}

// checkContexts asserts that the context the fleet holds for each UE i
// is the one its serving cell holds under the UE's IMSI, and that it
// carries index i.
func checkContexts(t *testing.T, m *MultiCell) {
	t.Helper()
	for i, imsi := range m.imsis {
		ctx, ok := m.Cells[m.Serving[i]].Context(imsi)
		if !ok || m.ctxs[i] != ctx {
			t.Fatalf("UE %d: the fleet holds context %p, its serving cell %d holds %p", m.UEs[i].ID, m.ctxs[i], m.Serving[i], ctx)
		}
		if ctx.UE != i {
			t.Fatalf("UE %d: context carries index %d, want %d", m.UEs[i].ID, ctx.UE, i)
		}
	}
}

// checkConservation asserts one phase's accounting, per UE, in packets
// and in bytes: what was offered plus what was queued before the phase
// is delivered, dropped (tail-drops and injected losses) or still
// queued after it. Duplicates count as offered. The summary must equal
// the per-UE sums.
func checkConservation(t *testing.T, name string, rep *traffic.Report, beforeP, beforeB, afterP, afterB []int) {
	t.Helper()
	var sum traffic.Summary
	for i, k := range rep.KPIs {
		if k.OfferedPackets+uint64(beforeP[i]) != k.DeliveredPackets+k.DroppedPackets+uint64(afterP[i]) {
			t.Errorf("%s UE %d packets: offered %d + backlog before %d != delivered %d + dropped %d + backlog after %d",
				name, k.UE, k.OfferedPackets, beforeP[i], k.DeliveredPackets, k.DroppedPackets, afterP[i])
		}
		if k.OfferedBytes+uint64(beforeB[i]) != k.DeliveredBytes+k.DroppedBytes+uint64(afterB[i]) {
			t.Errorf("%s UE %d bytes: offered %d + backlog before %d != delivered %d + dropped %d + backlog after %d",
				name, k.UE, k.OfferedBytes, beforeB[i], k.DeliveredBytes, k.DroppedBytes, afterB[i])
		}
		if k.BacklogPackets != afterP[i] {
			t.Errorf("%s UE %d reports backlog %d, its bearer holds %d", name, k.UE, k.BacklogPackets, afterP[i])
		}
		if k.FaultDroppedPackets > k.DroppedPackets || k.FaultDroppedBytes > k.DroppedBytes {
			t.Errorf("%s UE %d: fault drops exceed total drops", name, k.UE)
		}
		sum.OfferedBytes += k.OfferedBytes
		sum.DeliveredBytes += k.DeliveredBytes
		sum.DroppedBytes += k.DroppedBytes
		sum.BacklogPackets += k.BacklogPackets
		sum.FaultDroppedBytes += k.FaultDroppedBytes
		sum.DuplicatedBytes += k.DuplicatedBytes
		sum.StarvedTTIs += k.StarvedTTIs
	}
	got := rep.Summary
	if got.OfferedBytes != sum.OfferedBytes || got.DeliveredBytes != sum.DeliveredBytes ||
		got.DroppedBytes != sum.DroppedBytes || got.BacklogPackets != sum.BacklogPackets ||
		got.FaultDroppedBytes != sum.FaultDroppedBytes || got.DuplicatedBytes != sum.DuplicatedBytes ||
		got.StarvedTTIs != sum.StarvedTTIs {
		t.Errorf("%s summary %+v disagrees with the per-UE sums %+v", name, got, sum)
	}
}

// TestByteConservationPerUEPerPhase drives random small fleets — one
// to three co-channel cells, static or mobile UEs, each workload, loss,
// duplication and churn faults, TTI stride 1 and 10 — through two
// serving phases, restoring a checkpoint into a fresh fleet between
// them, and checks that no phase creates or loses a packet or a byte
// for any UE, across handovers and the restore alike.
func TestByteConservationPerUEPerPhase(t *testing.T) {
	const phaseS = 2
	trial, handovers := 0, uint64(0)
	for cells := 1; cells <= 3; cells++ {
		for _, mobile := range []bool{false, true} {
			for _, stride := range []int{1, 10} {
				trial++
				rng := rand.New(rand.NewSource(int64(1800 + trial)))
				seed := uint64(rng.Int63n(1 << 20))
				spec := conservationSpecs[trial%len(conservationSpecs)]
				spec.Cohorts = append([]traffic.Cohort(nil), spec.Cohorts...)
				// Light to overloaded per-UE rates, so some runs drain
				// their queues and some tail-drop.
				spec.RateBps = []float64{3e5, 3e6, 2e7}[rng.Intn(3)]
				faults := &fault.Schedule{UEChurnRate: 0.5 * rng.Float64(), UEChurnOutS: 0.4}
				if rng.Intn(4) != 0 {
					faults.GTPULossRate, faults.GTPULossBurstS = 0.3*rng.Float64(), 0.05
				}
				if rng.Intn(4) != 0 {
					faults.GTPUDupRate = 0.3 * rng.Float64()
				}
				nUE := 6 + rng.Intn(7)
				name := fmt.Sprintf("cells=%d mobile=%v stride=%d model=%s cohorts=%d rate=%g loss=%.2f dup=%.2f churn=%.2f",
					cells, mobile, stride, spec.Model, len(spec.Cohorts), spec.RateBps,
					faults.GTPULossRate, faults.GTPUDupRate, faults.UEChurnRate)
				t.Run(fmt.Sprint(trial), func(t *testing.T) {
					if err := faults.Normalize(); err != nil {
						t.Fatal(err)
					}
					build := func() *MultiCell {
						surf := terrain.ByName("FLAT", seed)
						area := surf.Bounds().Inset(10)
						ues := ue.PlaceRandomOpen(nUE, area, surf.IsOpen, 5, rand.New(rand.NewSource(int64(seed))))
						if mobile {
							for _, u := range ues {
								u.Mobility = ue.NewRandomWaypoint(area, 25, 0)
							}
						}
						ho := enb.HandoverConfig{HysteresisDB: 1, TTTs: 0.05, LoadBiasDB: 0.1, InterruptS: 0.03, PingPongWindowS: 1}
						cfg := Config{Terrain: surf, Seed: seed, FastRanging: true, Faults: faults}
						m, err := NewMultiCell(cfg, cells, interference.PlanCochannel, ho, ues, 1)
						if err != nil {
							t.Fatal(err)
						}
						m.Mobile = mobile
						return m
					}
					m := build()
					for phase := 0; phase < 2; phase++ {
						if phase == 1 {
							snap := m.Snapshot()
							m = build()
							if err := m.Restore(snap); err != nil {
								t.Fatal(err)
							}
						}
						beforeP, beforeB := backlogOf(t, m)
						hoBefore := m.HO.Stats().Successes
						rep, err := m.ServeTraffic(phaseS, stride, spec)
						if err != nil {
							t.Fatal(err)
						}
						afterP, afterB := backlogOf(t, m)
						checkConservation(t, fmt.Sprintf("%s phase %d", name, phase), rep, beforeP, beforeB, afterP, afterB)
						ho := m.HO.Stats().Successes - hoBefore
						handovers += ho
						t.Logf("%s phase %d: %d handovers, offered %d B, delivered %d B, dropped %d B (%d B by faults), backlog %d pkts",
							name, phase, ho, rep.Summary.OfferedBytes, rep.Summary.DeliveredBytes,
							rep.Summary.DroppedBytes, rep.Summary.FaultDroppedBytes, rep.Summary.BacklogPackets)
					}
				})
			}
		}
	}
	if handovers == 0 {
		t.Error("no trial handed a UE over, so conservation across handovers went unchecked")
	}
}
