package fio

import "numaio/internal/units"

// LatencyStats approximates fio's completion-latency (clat) report for one
// instance. The model is first-order but mechanistic:
//
//   - a block's base completion time is its propagation delay along the
//     route plus its transmission time at the instance's achieved rate
//     (which already reflects fair sharing);
//   - the spread comes from round-robin interleaving with the other
//     instances at the shared bottleneck: with k concurrent instances a
//     block occasionally waits behind up to k-1 foreign blocks, so the
//     upper percentiles widen as 1 - 1/k.
type LatencyStats struct {
	Mean units.Duration
	P50  units.Duration
	P90  units.Duration
	P99  units.Duration
}

// blockLatency computes the statistics for one instance.
func blockLatency(pathLat units.Duration, blockSize units.Size, rate units.Bandwidth, competitors int) LatencyStats {
	if rate <= 0 || blockSize <= 0 {
		return LatencyStats{}
	}
	if competitors < 1 {
		competitors = 1
	}
	service := units.Duration(blockSize.Bits() / float64(rate))
	base := pathLat + service
	spread := 1 - 1/float64(competitors)
	return LatencyStats{
		Mean: units.Duration(float64(base) * (1 + 0.10*spread)),
		P50:  base,
		P90:  units.Duration(float64(base) * (1 + 0.25*spread)),
		P99:  units.Duration(float64(base) * (1 + 0.50*spread)),
	}
}
