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

// Interconnect describes how the devices of a Topology talk to the host
// and to each other. Host is the per-device host link (PCIe-like);
// Peer, when non-nil, is a direct device-to-device link (NVLink-like).
// Without a peer link, device-to-device copies stage through host
// memory and pay the host link twice.
type Interconnect struct {
	Name string
	Host Link
	Peer *Link
}

// Validate reports configuration errors.
func (ic Interconnect) Validate() error {
	if err := ic.Host.validate("host"); err != nil {
		return err
	}
	if ic.Peer != nil {
		if err := ic.Peer.validate("peer"); err != nil {
			return err
		}
	}
	return nil
}

// PCIe2 returns the Fermi-era interconnect matching the paper's test
// rig: PCIe 2.0 x16 (8 GB/s theoretical, ~6 GB/s sustained) with no
// peer-to-peer path, so device-to-device traffic stages through the
// host.
func PCIe2() Interconnect {
	return Interconnect{
		Name: "pcie2-x16",
		Host: Link{Bandwidth: 6e9, Latency: 10e-6},
	}
}

// NVLinkMesh returns a modern interconnect: PCIe 3.0 x16 host links
// (~12 GB/s sustained) plus an all-to-all NVLink-class peer mesh
// (~45 GB/s per direction, 2µs latency).
func NVLinkMesh() Interconnect {
	return Interconnect{
		Name: "nvlink-mesh",
		Host: Link{Bandwidth: 12e9, Latency: 5e-6},
		Peer: &Link{Bandwidth: 45e9, Latency: 2e-6},
	}
}

// CommStats aggregates the interconnect traffic a Topology has charged:
// transfer counts, bytes, and modeled seconds, split by host-link and
// peer-link traffic, plus the link-fault activity charged into the
// traffic. Seconds are per-link busy time, not wall time — transfers on
// distinct devices' links overlap.
type CommStats struct {
	Transfers     int64
	HaloExchanges int64
	HostBytes     int64
	PeerBytes     int64
	HostSeconds   float64
	PeerSeconds   float64

	// Link-fault accounting (see LinkInjector). LinkFaults counts
	// injected faults of any kind; DroppedTransfers the lost attempts of
	// drop faults; CorruptTransfers the silently corrupted deliveries;
	// FaultSeconds the extra modeled link-busy time the faults charged
	// (retried drops plus delay inflation) — already included in
	// HostSeconds/PeerSeconds.
	LinkFaults       int64
	DroppedTransfers int64
	CorruptTransfers int64
	FaultSeconds     float64
}

// TotalBytes sums traffic over both link classes.
func (c CommStats) TotalBytes() int64 { return c.HostBytes + c.PeerBytes }

// TotalSeconds sums modeled link-busy seconds over both link classes.
func (c CommStats) TotalSeconds() float64 { return c.HostSeconds + c.PeerSeconds }

// Sub returns c minus prev. It is only meaningful between two snapshots
// with no concurrent traffic in between: a solve that shares the
// topology with other in-flight solves must pass its own accumulator
// to Transfer instead — snapshot subtraction cross-charges
// concurrent solves' traffic.
func (c CommStats) Sub(prev CommStats) CommStats {
	return CommStats{
		Transfers:        c.Transfers - prev.Transfers,
		HaloExchanges:    c.HaloExchanges - prev.HaloExchanges,
		HostBytes:        c.HostBytes - prev.HostBytes,
		PeerBytes:        c.PeerBytes - prev.PeerBytes,
		HostSeconds:      c.HostSeconds - prev.HostSeconds,
		PeerSeconds:      c.PeerSeconds - prev.PeerSeconds,
		LinkFaults:       c.LinkFaults - prev.LinkFaults,
		DroppedTransfers: c.DroppedTransfers - prev.DroppedTransfers,
		CorruptTransfers: c.CorruptTransfers - prev.CorruptTransfers,
		FaultSeconds:     c.FaultSeconds - prev.FaultSeconds,
	}
}

// Add folds d into the stats.
func (c *CommStats) Add(d CommStats) {
	c.Transfers += d.Transfers
	c.HaloExchanges += d.HaloExchanges
	c.HostBytes += d.HostBytes
	c.PeerBytes += d.PeerBytes
	c.HostSeconds += d.HostSeconds
	c.PeerSeconds += d.PeerSeconds
	c.LinkFaults += d.LinkFaults
	c.DroppedTransfers += d.DroppedTransfers
	c.CorruptTransfers += d.CorruptTransfers
	c.FaultSeconds += d.FaultSeconds
}

// Topology is a set of simulated devices joined by an interconnect.
// Kernel execution stays a per-Device concern (including per-device
// fault injection through Device.Faults); the topology adds the part a
// single device cannot model — what moving data between failure
// domains costs, and what a gray interconnect does to the data in
// flight (Links). Every transfer method returns the modeled seconds of
// the move and records it into the topology's CommStats. All methods
// are safe for concurrent use.
type Topology struct {
	ic   Interconnect
	devs []*Device

	// Links, when non-nil, injects gray interconnect faults into every
	// transfer (see LinkInjector). Attach before solving, never while a
	// transfer is in flight.
	Links *LinkInjector

	mu   sync.Mutex
	comm CommStats
	// seq counts transfers per fault site (op, from, to), the
	// deterministic coordinate link-fault draws are keyed on.
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

// HostToDevice charges an upload of bytes to device dev and returns
// the modeled seconds it takes.
func (t *Topology) HostToDevice(dev int, bytes int64) float64 {
	return t.Transfer(nil, OpHostToDevice, -1, dev, bytes).Seconds
}

// DeviceToHost charges a download of bytes from device dev and returns
// the modeled seconds it takes.
func (t *Topology) DeviceToHost(dev int, bytes int64) float64 {
	return t.Transfer(nil, OpDeviceToHost, dev, -1, bytes).Seconds
}

// PeerCopy charges a device-to-device copy. Over a peer link it is one
// transfer; without one it stages through the host and pays the host
// link in both directions.
func (t *Topology) PeerCopy(from, to int, bytes int64) float64 {
	return t.Transfer(nil, OpPeerCopy, from, to, bytes).Seconds
}

// HaloExchange charges the neighbor exchange between adjacent slabs:
// both devices send bytes to each other simultaneously. Links are
// full-duplex, so the exchange takes one direction's time, but both
// directions' bytes are recorded.
func (t *Topology) HaloExchange(left, right int, bytes int64) float64 {
	return t.Transfer(nil, OpHaloExchange, left, right, bytes).Seconds
}

// Transfer charges one interconnect operation, running it through the
// link-fault injector (Links) when one is attached, and returns the
// full report: total modeled seconds (drop retries and delay inflation
// included) plus whether the payload arrived corrupted. A non-nil acc
// receives an exact copy of everything charged, attributing the
// traffic to its owner even when concurrent solves share the topology;
// acc is not synchronized, so one goroutine at a time may charge it,
// which also keeps its float sums in a reproducible order. Endpoint -1
// means the host.
func (t *Topology) Transfer(acc *CommStats, op LinkOp, from, to int, bytes int64) TransferReport {
	if bytes <= 0 {
		return TransferReport{}
	}

	// One fault decision per transfer, keyed on the site's own
	// deterministic sequence counter.
	var kind LinkFaultKind
	var faulted bool
	t.mu.Lock()
	if t.seq == nil {
		t.seq = make(map[linkSite]int)
	}
	site := linkSite{op, from, to}
	n := t.seq[site]
	t.seq[site] = n + 1
	t.mu.Unlock()
	kind, faulted = t.Links.At(op, from, to, n)

	// Fault-free cost of the operation.
	var d CommStats
	var oneWay float64
	peer := t.ic.Peer != nil
	switch op {
	case OpHostToDevice, OpDeviceToHost:
		oneWay = t.ic.Host.TransferTime(bytes)
		d.Transfers, d.HostBytes, d.HostSeconds = 1, bytes, oneWay
	case OpPeerCopy, OpHaloExchange:
		if peer {
			oneWay = t.ic.Peer.TransferTime(bytes)
			d.Transfers, d.PeerBytes, d.PeerSeconds = 1, bytes, oneWay
		} else {
			// Host-staged: D2H on the source, then H2D on the destination.
			oneWay = 2 * t.ic.Host.TransferTime(bytes)
			d.Transfers, d.HostBytes, d.HostSeconds = 2, 2*bytes, oneWay
		}
		if op == OpHaloExchange {
			// Record the reverse direction's bytes without its
			// (overlapped, full-duplex) time.
			d.HaloExchanges = 1
			if peer {
				d.PeerBytes += bytes
			} else {
				d.HostBytes += 2 * bytes
			}
		}
	}

	rep := TransferReport{Seconds: oneWay}
	if faulted {
		d.LinkFaults = 1
		switch kind {
		case LinkCorrupt:
			d.CorruptTransfers = 1
			rep.Corrupt = true
		case LinkDrop:
			drops := t.Links.dropRetries()
			extra := float64(drops) * oneWay
			d.DroppedTransfers = int64(drops)
			d.FaultSeconds = extra
			rep.Drops = drops
			rep.Seconds += extra
		case LinkDelay:
			extra := (t.Links.delayFactor() - 1) * oneWay
			d.FaultSeconds = extra
			rep.Delayed = true
			rep.Seconds += extra
		}
		// The extra busy time lands on the link class that carried it.
		if d.HostSeconds > 0 {
			d.HostSeconds += d.FaultSeconds
		} else {
			d.PeerSeconds += d.FaultSeconds
		}
	}

	t.mu.Lock()
	t.comm.Add(d)
	t.mu.Unlock()
	if acc != nil {
		acc.Add(d)
	}
	return rep
}

// Comm returns a snapshot of the accumulated communication statistics.
func (t *Topology) Comm() CommStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.comm
}

// ResetComm clears the accumulated communication statistics and the
// per-site fault sequence counters, so a fresh run redraws the same
// fault sites.
func (t *Topology) ResetComm() {
	t.mu.Lock()
	t.comm = CommStats{}
	t.seq = make(map[linkSite]int)
	t.mu.Unlock()
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
