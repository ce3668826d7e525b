package gpusim

// EstimateTime converts recorded Stats into an estimated kernel
// execution time on the device, in seconds: the Total of the cost
// model's termwise decomposition (EstimateBreakdown). elemBytes selects
// the arithmetic throughput: 4 uses the single-precision rate, 8 the
// double-precision rate.
func (d *Device) EstimateTime(s *Stats, elemBytes int) float64 {
	return d.EstimateBreakdown(s, elemBytes).Total
}
