package traffic

import "math"

// DelayBuckets are the queueing-delay histogram upper bounds in
// seconds: 40 geometric buckets from 0.1 ms to 60 s. They are shared
// by the per-UE percentile estimator and the /metrics histogram so the
// two views of the same serving phase agree.
var DelayBuckets = func() []float64 {
	const n = 40
	lo, hi := 1e-4, 60.0
	r := math.Pow(hi/lo, 1/float64(n-1))
	out := make([]float64, n)
	v := lo
	for i := range out {
		out[i] = v
		v *= r
	}
	return out
}()

// UEKPI is one UE's serving-phase outcome at MAC-PDU granularity —
// the per-UE/per-bearer throughput, delay and loss row the LENA-style
// requirements call the minimum meaningful simulator output.
type UEKPI struct {
	UE int `json:"ue"`
	// Cell is the UE's serving cell at the end of the phase and
	// Handovers the number of handovers it completed during it; both
	// stay zero (and off the wire) outside multi-cell runs.
	Cell      int    `json:"cell,omitempty"`
	Handovers uint64 `json:"handovers,omitempty"`

	OfferedPackets   uint64 `json:"offered_packets"`
	OfferedBytes     uint64 `json:"offered_bytes"`
	DeliveredPackets uint64 `json:"delivered_packets"`
	DeliveredBytes   uint64 `json:"delivered_bytes"`
	// Dropped counts bearer tail-drops (queue overflow); Backlog is
	// what was still queued when the serving phase ended (neither
	// delivered nor lost).
	DroppedPackets uint64 `json:"dropped_packets"`
	DroppedBytes   uint64 `json:"dropped_bytes"`
	BacklogPackets int    `json:"backlog_packets"`
	PeakQueue      int    `json:"peak_queue"`

	// ThroughputBps is delivered goodput over the serving interval.
	ThroughputBps float64 `json:"throughput_bps"`
	// Delay statistics are enqueue→delivery queueing delays of the
	// delivered packets. P95 is the upper bound of the histogram
	// bucket containing the 95th percentile (DelayBuckets spacing).
	MeanDelayS float64 `json:"mean_delay_s"`
	P95DelayS  float64 `json:"p95_delay_s"`
	MaxDelayS  float64 `json:"max_delay_s"`
	// LossFrac is dropped / offered packets.
	LossFrac float64 `json:"loss_frac"`

	// Fault-injection splits (zero, and absent from the wire form,
	// without an active fault schedule). FaultDropped packets are also
	// counted in Dropped — LossFrac stays the total loss the UE saw —
	// and Duplicated packets are also counted in Offered. StarvedTTIs
	// counts scheduler TTIs the UE spent undecodable with data queued
	// (the eNodeB-side view of a churn/loss window).
	FaultDroppedPackets uint64 `json:"fault_dropped_packets,omitempty"`
	FaultDroppedBytes   uint64 `json:"fault_dropped_bytes,omitempty"`
	DuplicatedPackets   uint64 `json:"duplicated_packets,omitempty"`
	DuplicatedBytes     uint64 `json:"duplicated_bytes,omitempty"`
	StarvedTTIs         uint64 `json:"starved_ttis,omitempty"`
}

// Summary aggregates a serving phase across UEs.
type Summary struct {
	Model   Model   `json:"model"`
	Seconds float64 `json:"seconds"`
	UEs     int     `json:"ues"`

	OfferedBytes   uint64 `json:"offered_bytes"`
	DeliveredBytes uint64 `json:"delivered_bytes"`
	DroppedBytes   uint64 `json:"dropped_bytes"`
	BacklogPackets int    `json:"backlog_packets"`

	OfferedBps   float64 `json:"offered_bps"`
	DeliveredBps float64 `json:"delivered_bps"`
	// MeanDelayS is the delivered-packet-weighted mean; P95DelayS
	// comes from the merged delay histogram.
	MeanDelayS float64 `json:"mean_delay_s"`
	P95DelayS  float64 `json:"p95_delay_s"`
	LossFrac   float64 `json:"loss_frac"`

	// JainFairness is Jain's fairness index over the per-UE delivered
	// throughputs: (Σx)²/(n·Σx²), 1 for a perfectly even split, 1/n
	// when one UE takes everything. Zero (and absent) when nothing was
	// delivered.
	JainFairness float64 `json:"jain_fairness,omitempty"`

	// Fault-injection aggregates (absent without an active schedule).
	FaultDroppedBytes uint64 `json:"fault_dropped_bytes,omitempty"`
	DuplicatedBytes   uint64 `json:"duplicated_bytes,omitempty"`
	StarvedTTIs       uint64 `json:"starved_ttis,omitempty"`
}

// JainIndex is Jain's fairness index (Σx)²/(n·Σx²) over non-negative
// values; it returns 0 for an empty or all-zero input: how evenly the
// scheduler's PRBs turn into delivered bytes, per cell and fleet-wide.
func JainIndex(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 || len(xs) == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Report is a finished serving phase: per-UE rows plus the aggregate.
type Report struct {
	KPIs    []UEKPI `json:"kpis"`
	Summary Summary `json:"summary"`
}

// ueAcc accumulates one UE's counters during the serving phase.
type ueAcc struct {
	offeredPkts, offeredBytes     uint64
	deliveredPkts, deliveredBytes uint64
	droppedPkts, droppedBytes     uint64
	faultPkts, faultBytes         uint64
	dupPkts, dupBytes             uint64
	starvedTTIs                   uint64
	delaySum, delayMax            float64
	delayHist                     []uint32
	delayInf                      uint32
	// fbBits holds the exact full-buffer grant (fractional bits), so
	// that model's throughput matches the scheduler's accounting to the
	// last bit rather than truncating to whole bytes.
	fbBits float64
}

// Collector gathers serving-phase events into KPI rows. It is not
// concurrency-safe: the serving loop is single-threaded per world,
// which is exactly what keeps the output byte-identical.
type Collector struct {
	model Model
	ueIDs []int
	acc   []ueAcc
}

// NewCollector prepares per-UE accumulators; ueIDs are the world's UE
// identifiers in index order.
func NewCollector(model Model, ueIDs []int) *Collector {
	c := &Collector{model: model, ueIDs: ueIDs, acc: make([]ueAcc, len(ueIDs))}
	for i := range c.acc {
		c.acc[i].delayHist = make([]uint32, len(DelayBuckets))
	}
	return c
}

// Offered records one generated packet for UE index i.
func (c *Collector) Offered(i, bytes int) {
	c.acc[i].offeredPkts++
	c.acc[i].offeredBytes += uint64(bytes)
}

// Dropped records one bearer tail-drop for UE index i.
func (c *Collector) Dropped(i, bytes int) {
	c.acc[i].droppedPkts++
	c.acc[i].droppedBytes += uint64(bytes)
}

// FaultDropped records one packet lost to an injected fault (GTP-U
// loss window or churn outage) for UE index i. The packet counts as
// dropped — loss is loss to the UE, whatever caused it — with the
// fault split kept separately.
func (c *Collector) FaultDropped(i, bytes int) {
	c.Dropped(i, bytes)
	c.acc[i].faultPkts++
	c.acc[i].faultBytes += uint64(bytes)
}

// Duplicated records one injected duplicate of a packet for UE index
// i (the duplicate copy itself is also Offered and delivered or
// dropped like any other packet).
func (c *Collector) Duplicated(i, bytes int) {
	c.acc[i].dupPkts++
	c.acc[i].dupBytes += uint64(bytes)
}

// Starved records n scheduler TTIs UE index i spent with queued data
// but an undecodable channel.
func (c *Collector) Starved(i int, n uint64) {
	c.acc[i].starvedTTIs += n
}

// Delivered records one delivered packet and its queueing delay.
func (c *Collector) Delivered(i, bytes int, delayS float64) {
	a := &c.acc[i]
	a.deliveredPkts++
	a.deliveredBytes += uint64(bytes)
	a.delaySum += delayS
	if delayS > a.delayMax {
		a.delayMax = delayS
	}
	if bi := bucketFor(delayS); bi >= 0 {
		a.delayHist[bi]++
	} else {
		a.delayInf++
	}
}

// bucketFor returns the DelayBuckets index containing v, or -1 for the
// overflow bucket.
func bucketFor(v float64) int {
	for i, b := range DelayBuckets {
		if v <= b {
			return i
		}
	}
	return -1
}

// FullBufferServed credits bits delivered to UE index i under the
// full-buffer model (no packets, no delay: the grant is the goodput).
func (c *Collector) FullBufferServed(i int, bits float64) {
	bytes := uint64(bits / 8)
	c.acc[i].offeredBytes += bytes
	c.acc[i].deliveredBytes += bytes
	c.acc[i].fbBits += bits
}

// percentile returns the upper bound of the histogram bucket holding
// quantile q, falling back to maxDelay for the overflow bucket.
func percentile(hist []uint32, inf uint32, maxDelay float64, q float64) float64 {
	var total uint64
	for _, n := range hist {
		total += uint64(n)
	}
	total += uint64(inf)
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, n := range hist {
		cum += uint64(n)
		if cum >= target {
			return DelayBuckets[i]
		}
	}
	return maxDelay
}

// Report freezes the collector into per-UE rows and the aggregate.
// backlog and peak give each UE's end-of-phase queue depth and peak
// queue depth (nil for models without queues).
func (c *Collector) Report(seconds float64, backlog, peak []int) *Report {
	rep := &Report{KPIs: make([]UEKPI, len(c.acc))}
	sum := &rep.Summary
	sum.Model = c.model
	sum.Seconds = seconds
	sum.UEs = len(c.acc)

	merged := make([]uint32, len(DelayBuckets))
	var mergedInf uint32
	var delaySum, delayMax float64
	var offeredPkts, droppedPkts, deliveredPkts uint64

	for i := range c.acc {
		a := &c.acc[i]
		k := UEKPI{
			UE:               c.ueIDs[i],
			OfferedPackets:   a.offeredPkts,
			OfferedBytes:     a.offeredBytes,
			DeliveredPackets: a.deliveredPkts,
			DeliveredBytes:   a.deliveredBytes,
			DroppedPackets:   a.droppedPkts,
			DroppedBytes:     a.droppedBytes,
			MaxDelayS:        a.delayMax,

			FaultDroppedPackets: a.faultPkts,
			FaultDroppedBytes:   a.faultBytes,
			DuplicatedPackets:   a.dupPkts,
			DuplicatedBytes:     a.dupBytes,
			StarvedTTIs:         a.starvedTTIs,
		}
		if backlog != nil {
			k.BacklogPackets = backlog[i]
		}
		if peak != nil {
			k.PeakQueue = peak[i]
		}
		if seconds > 0 {
			k.ThroughputBps = float64(a.deliveredBytes) * 8 / seconds
			if a.fbBits > 0 {
				k.ThroughputBps = a.fbBits / seconds
			}
		}
		if a.deliveredPkts > 0 {
			k.MeanDelayS = a.delaySum / float64(a.deliveredPkts)
			k.P95DelayS = percentile(a.delayHist, a.delayInf, a.delayMax, 0.95)
		}
		if a.offeredPkts > 0 {
			k.LossFrac = float64(a.droppedPkts) / float64(a.offeredPkts)
		}
		rep.KPIs[i] = k

		sum.OfferedBytes += a.offeredBytes
		sum.DeliveredBytes += a.deliveredBytes
		sum.DroppedBytes += a.droppedBytes
		sum.BacklogPackets += k.BacklogPackets
		sum.FaultDroppedBytes += a.faultBytes
		sum.DuplicatedBytes += a.dupBytes
		sum.StarvedTTIs += a.starvedTTIs
		offeredPkts += a.offeredPkts
		droppedPkts += a.droppedPkts
		deliveredPkts += a.deliveredPkts
		delaySum += a.delaySum
		if a.delayMax > delayMax {
			delayMax = a.delayMax
		}
		for bi, n := range a.delayHist {
			merged[bi] += n
		}
		mergedInf += a.delayInf
	}

	if seconds > 0 {
		sum.OfferedBps = float64(sum.OfferedBytes) * 8 / seconds
		sum.DeliveredBps = float64(sum.DeliveredBytes) * 8 / seconds
	}
	if deliveredPkts > 0 {
		sum.MeanDelayS = delaySum / float64(deliveredPkts)
		sum.P95DelayS = percentile(merged, mergedInf, delayMax, 0.95)
	}
	if offeredPkts > 0 {
		sum.LossFrac = float64(droppedPkts) / float64(offeredPkts)
	}
	tputs := make([]float64, len(rep.KPIs))
	for i := range rep.KPIs {
		tputs[i] = rep.KPIs[i].ThroughputBps
	}
	sum.JainFairness = JainIndex(tputs)
	return rep
}
