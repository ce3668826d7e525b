package gpusim

import (
	"fmt"
	"sync"
)

// Link models one interconnect link as the usual latency + bandwidth
// first-order cost: moving b bytes takes Latency + b/Bandwidth seconds.
// Bandwidth is bytes per second, Latency seconds per transfer.
type Link struct {
	Bandwidth float64
	Latency   float64
}

// TransferTime returns the modeled seconds to move bytes over the link.
// A zero-byte transfer is free — no message, no latency.
func (l Link) TransferTime(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.Latency + float64(bytes)/l.Bandwidth
}

// validate reports configuration errors.
func (l Link) validate(name string) error {
	if l.Bandwidth <= 0 {
		return fmt.Errorf("gpusim: %s link: Bandwidth must be positive", name)
	}
	if l.Latency < 0 {
		return fmt.Errorf("gpusim: %s link: negative Latency", name)
	}
	return nil
}

// Interconnect describes how the devices of a Topology talk to the
// host: Host is the per-device host link (PCIe-like). A distributed
// solve moves data only between the host and a device, so the host
// link is the only link class modeled.
type Interconnect struct {
	Name string
	Host Link
}

// Validate reports configuration errors.
func (ic Interconnect) Validate() error {
	return ic.Host.validate("host")
}

// PCIe2 returns the Fermi-era interconnect matching the paper's test
// rig: PCIe 2.0 x16 host links (8 GB/s theoretical, ~6 GB/s
// sustained).
func PCIe2() Interconnect {
	return Interconnect{
		Name: "pcie2-x16",
		Host: Link{Bandwidth: 6e9, Latency: 10e-6},
	}
}

// NVLinkMesh returns a modern interconnect's host links: PCIe 3.0 x16
// (~12 GB/s sustained). Only the host link is modeled; the mesh's
// peer links carry no traffic a distributed solve moves.
func NVLinkMesh() Interconnect {
	return Interconnect{
		Name: "nvlink-mesh",
		Host: Link{Bandwidth: 12e9, Latency: 5e-6},
	}
}

// CommStats aggregates the host-link traffic charged into it: transfer
// counts, bytes and modeled seconds, plus how many deliveries a
// corrupting link (see LinkInjector) damaged. Seconds are per-link busy
// time, not wall time — transfers on distinct devices' links overlap.
type CommStats struct {
	Transfers        int64
	HostBytes        int64
	HostSeconds      float64
	CorruptTransfers int64
}

// TotalBytes returns the bytes moved.
func (c CommStats) TotalBytes() int64 { return c.HostBytes }

// Add folds d into the stats.
func (c *CommStats) Add(d CommStats) {
	c.Transfers += d.Transfers
	c.HostBytes += d.HostBytes
	c.HostSeconds += d.HostSeconds
	c.CorruptTransfers += d.CorruptTransfers
}

// Topology is a set of simulated devices joined by an interconnect.
// Kernel execution stays a per-Device concern (including per-device
// fault injection through Device.Faults); the topology adds the part a
// single device cannot model — what moving data between the host and
// a failure domain costs, and what a gray interconnect does to the
// data in flight (Links). All methods are safe for concurrent use.
type Topology struct {
	ic   Interconnect
	devs []*Device

	// Links, when non-nil, injects silent corruption into every
	// transfer (see LinkInjector). Attach before solving, never while a
	// transfer is in flight.
	Links *LinkInjector

	// mu guards seq, which counts transfers per fault site (op, from,
	// to), the deterministic coordinate link-fault draws are keyed on.
	mu  sync.Mutex
	seq map[linkSite]int
}

type linkSite struct {
	op       LinkOp
	from, to int
}

// NewTopology builds a topology over the given devices. The device
// values are used as-is (not cloned), so callers may attach per-device
// injectors before or after construction.
func NewTopology(ic Interconnect, devs ...*Device) (*Topology, error) {
	if err := ic.Validate(); err != nil {
		return nil, err
	}
	if len(devs) == 0 {
		return nil, fmt.Errorf("gpusim: topology needs at least one device")
	}
	for i, d := range devs {
		if d == nil {
			return nil, fmt.Errorf("gpusim: topology device %d is nil", i)
		}
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("gpusim: topology device %d: %w", i, err)
		}
	}
	return &Topology{ic: ic, devs: devs, seq: make(map[linkSite]int)}, nil
}

// UniformTopology builds an n-device topology of independent copies of
// proto. Each copy starts with no fault injector, so per-device faults
// can be scheduled without affecting siblings.
func UniformTopology(n int, ic Interconnect, proto *Device) (*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gpusim: topology needs at least one device, got %d", n)
	}
	if proto == nil {
		proto = GTX480()
	}
	devs := make([]*Device, n)
	for i := range devs {
		d := *proto
		d.Faults = nil
		d.Name = fmt.Sprintf("%s#%d", proto.Name, i)
		devs[i] = &d
	}
	return NewTopology(ic, devs...)
}

// NumDevices returns the device count.
func (t *Topology) NumDevices() int { return len(t.devs) }

// Device returns device i.
func (t *Topology) Device(i int) *Device { return t.devs[i] }

// Interconnect returns the topology's interconnect description.
func (t *Topology) Interconnect() Interconnect { return t.ic }

// Transfer charges one host-link transfer of bytes (an upload, from
// -1, or a download, to -1) into acc and returns its modeled seconds
// and whether the link-fault injector (Links), when one is attached,
// corrupted the payload. A corrupted transfer costs the same time as a
// clean one; only the caller's end-to-end check can notice it. acc
// belongs to the caller and is not synchronized, so one goroutine at a
// time may charge it, which also keeps its float sums in a
// reproducible order.
func (t *Topology) Transfer(acc *CommStats, op LinkOp, from, to int, bytes int64) (seconds float64, corrupt bool) {
	if bytes <= 0 {
		return 0, false
	}

	// One fault decision per transfer, keyed on the site's own
	// deterministic sequence counter.
	site := linkSite{op, from, to}
	t.mu.Lock()
	n := t.seq[site]
	t.seq[site] = n + 1
	t.mu.Unlock()
	corrupt = t.Links.At(op, from, to, n)

	seconds = t.ic.Host.TransferTime(bytes)
	acc.Transfers++
	acc.HostBytes += bytes
	acc.HostSeconds += seconds
	if corrupt {
		acc.CorruptTransfers++
	}
	return seconds, corrupt
}

// SlabTiming is the modeled cost of one slab's pass on a device: the
// coefficient upload, the on-device elimination, and the result
// download, in seconds.
type SlabTiming struct {
	Upload, Compute, Download float64
}

// Total sums the slab's modeled phases.
func (s SlabTiming) Total() float64 { return s.Upload + s.Compute + s.Download }

// PipelinedMakespan models executing the slabs of one device in order,
// serially (each slab's upload → compute → download completes before
// the next begins) and pipelined (upload DMA, compute, and download
// DMA engines run concurrently on a full-duplex link, so slab i+1's
// upload overlaps slab i's compute — the halo/interior overlap of the
// Pipelined-TDMA multi-GPU design). Within each engine, work executes
// FIFO in slab order.
func PipelinedMakespan(slabs []SlabTiming) (serial, pipelined float64) {
	var upFree, compFree, downFree float64
	for _, s := range slabs {
		serial += s.Upload + s.Compute + s.Download

		upFree += s.Upload
		compFree = max(compFree, upFree) + s.Compute
		downFree = max(downFree, compFree) + s.Download
		if downFree > pipelined {
			pipelined = downFree
		}
		if compFree > pipelined {
			pipelined = compFree
		}
	}
	return serial, pipelined
}
