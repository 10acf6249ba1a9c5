// Package radio implements the RF propagation substrate: link budgets,
// terrain-aware ray-traced pathloss with correlated shadowing, and
// ground-truth radio-environment-map generation.
//
// The paper's scale-up study models "the channel between a UAV (in 3D
// space) and a UE on the ground using terrain-aware ray-tracing" with
// per-ray obstruction from LiDAR terrain (§5.1, Fig 25). This package
// is that model, plus the link-budget arithmetic of the testbed
// hardware (USRP B210 + 18 dB PA/LNA + 5 dBi antenna, §4.1).
package radio

import "math"

// SpeedOfLight in metres per second.
const SpeedOfLight = 299792458.0

// LinkBudget captures the radio parameters that convert pathloss into
// SNR. The defaults (DefaultBudget) model the paper's payload.
type LinkBudget struct {
	// FreqHz is the carrier frequency.
	FreqHz float64
	// TxPowerDBm is the transmit power at the PA output.
	TxPowerDBm float64
	// TxAntennaGainDB and RxAntennaGainDB are antenna gains.
	TxAntennaGainDB float64
	RxAntennaGainDB float64
	// NoiseFigureDB is the receiver noise figure.
	NoiseFigureDB float64
	// BandwidthHz is the occupied bandwidth (10 MHz LTE in the paper).
	BandwidthHz float64
}

// DefaultBudget models the SkyRAN payload: LTE band-7 downlink
// (2.6 GHz), USRP B210 with the 18 dB PA chain (minus duplexer, cable
// and backoff losses), 5 dBi antenna and a 10 MHz carrier. The power
// figure is calibrated against the paper's observed behaviour: "a
// real-world operating range of over 300 m ... even when the UE is in
// a NLOS situation" (§4.1) pins the NLOS cell edge near 300 m, which a
// hotter budget would contradict by saturating CQI 15 across the whole
// operating area (Fig 1 shows strong positional throughput variation).
func DefaultBudget() LinkBudget {
	return LinkBudget{
		FreqHz:          2.6e9,
		TxPowerDBm:      10,
		TxAntennaGainDB: 5,
		RxAntennaGainDB: 0,
		NoiseFigureDB:   9,
		BandwidthHz:     10e6,
	}
}

// NoiseFloorDBm returns thermal noise power plus noise figure over the
// budget's bandwidth: -174 dBm/Hz + 10·log10(BW) + NF.
func (b LinkBudget) NoiseFloorDBm() float64 {
	return -174 + 10*math.Log10(b.BandwidthHz) + b.NoiseFigureDB
}

// RxPowerDBm is the received power in dBm over a link with the given
// pathloss in dB.
func (b LinkBudget) RxPowerDBm(plDB float64) float64 {
	return b.TxPowerDBm + b.TxAntennaGainDB + b.RxAntennaGainDB - plDB
}

// SNRFromPathloss converts a pathloss in dB to a link SNR in dB.
func (b LinkBudget) SNRFromPathloss(plDB float64) float64 {
	return b.RxPowerDBm(plDB) - b.NoiseFloorDBm()
}

// PathlossFromSNR is the inverse of SNRFromPathloss.
func (b LinkBudget) PathlossFromSNR(snrDB float64) float64 {
	return b.TxPowerDBm + b.TxAntennaGainDB + b.RxAntennaGainDB - b.NoiseFloorDBm() - snrDB
}

// FSPL returns free-space pathloss in dB for distance d metres at
// frequency f Hz: 20·log10(d) + 20·log10(f) − 147.55. Distances below
// one metre are clamped to avoid negative pathloss in degenerate
// geometry.
func FSPL(d, f float64) float64 {
	if d < 1 {
		d = 1
	}
	return 20*math.Log10(d) + 20*math.Log10(f) - 147.55
}

// DBmToMilliwatt converts dBm to mW.
func DBmToMilliwatt(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MilliwattToDBm converts mW to dBm.
func MilliwattToDBm(mw float64) float64 { return 10 * math.Log10(mw) }
