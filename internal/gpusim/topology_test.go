package gpusim

import (
	"math"
	"testing"
)

func TestLinkTransferTime(t *testing.T) {
	l := Link{Bandwidth: 1e9, Latency: 1e-6}
	if got := l.TransferTime(0); got != 0 {
		t.Errorf("zero-byte transfer costs %v, want 0", got)
	}
	want := 1e-6 + 1e6/1e9
	if got := l.TransferTime(1e6); math.Abs(got-want) > 1e-12 {
		t.Errorf("TransferTime(1MB) = %v, want %v", got, want)
	}
}

// TestTopologyCharging proves uploads and downloads cost the same on
// the symmetric host link and are charged exactly into the caller's
// CommStats.
func TestTopologyCharging(t *testing.T) {
	pcie, err := UniformTopology(2, PCIe2(), GTX480())
	if err != nil {
		t.Fatal(err)
	}
	var c CommStats
	h2d, _ := pcie.Transfer(&c, OpHostToDevice, -1, 0, 1000)
	d2h, _ := pcie.Transfer(&c, OpDeviceToHost, 1, -1, 1000)
	if h2d != d2h || h2d != pcie.Interconnect().Host.TransferTime(1000) {
		t.Errorf("symmetric host link: H2D %v, D2H %v, want %v", h2d, d2h, pcie.Interconnect().Host.TransferTime(1000))
	}
	if want := (CommStats{Transfers: 2, HostBytes: 2000, HostSeconds: h2d + d2h}); c != want {
		t.Errorf("charged %+v, want %+v", c, want)
	}
	if secs, bad := pcie.Transfer(&c, OpHostToDevice, -1, 0, 0); secs != 0 || bad || c.Transfers != 2 {
		t.Errorf("empty transfer reported (%v, %v) and charged %+v, want nothing", secs, bad, c)
	}
}

// TestUniformTopologyIsolation proves the per-device copies are
// independent failure domains: an injector attached to one device does
// not leak to its siblings or to the prototype.
func TestUniformTopologyIsolation(t *testing.T) {
	proto := GTX480()
	topo, err := UniformTopology(3, PCIe2(), proto)
	if err != nil {
		t.Fatal(err)
	}
	topo.Device(1).Faults = &Injector{Schedule: []ScheduledFault{{Kind: FaultAbort, Repeat: 1 << 30}}}
	if proto.Faults != nil {
		t.Error("prototype device mutated by per-device injector")
	}
	for _, i := range []int{0, 2} {
		if topo.Device(i).Faults != nil {
			t.Errorf("device %d inherited sibling's injector", i)
		}
	}
	if topo.Device(0).Name == topo.Device(1).Name {
		t.Errorf("device names not unique: %q", topo.Device(0).Name)
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := UniformTopology(0, PCIe2(), nil); err == nil {
		t.Error("zero-device topology accepted")
	}
	if _, err := NewTopology(Interconnect{Host: Link{Bandwidth: -1}}, GTX480()); err == nil {
		t.Error("negative-bandwidth interconnect accepted")
	}
	if _, err := NewTopology(PCIe2()); err == nil {
		t.Error("empty device list accepted")
	}
	if _, err := NewTopology(PCIe2(), nil); err == nil {
		t.Error("nil device accepted")
	}
}

// TestPipelinedMakespan checks the two-engine overlap model: with
// uploads overlapping compute, total time beats the serial sum and is
// bounded below by each engine's own busy time.
func TestPipelinedMakespan(t *testing.T) {
	slabs := []SlabTiming{
		{Upload: 2, Compute: 3, Download: 1},
		{Upload: 2, Compute: 3, Download: 1},
		{Upload: 2, Compute: 3, Download: 1},
	}
	serial, pipelined := PipelinedMakespan(slabs)
	if want := 18.0; math.Abs(serial-want) > 1e-12 {
		t.Errorf("serial = %v, want %v", serial, want)
	}
	if pipelined >= serial {
		t.Errorf("pipelined %v not better than serial %v", pipelined, serial)
	}
	var comm, comp float64
	for _, s := range slabs {
		comm += s.Upload + s.Download
		comp += s.Compute
	}
	if pipelined < comm || pipelined < comp {
		t.Errorf("pipelined %v below engine busy-time floor (comm %v, comp %v)", pipelined, comm, comp)
	}
	if s, p := PipelinedMakespan(nil); s != 0 || p != 0 {
		t.Errorf("empty makespan = %v/%v, want 0/0", s, p)
	}
}
