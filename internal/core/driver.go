package core

import (
	"context"
	"fmt"
	"math"

	"gputrid/internal/gpusim"
	"gputrid/internal/num"
)

// driver runs a recorded kernel: a pipeline's launches (tiled PCR then
// strided p-Thomas, or the k = 0 p-Thomas) or a distributed
// back-substitution. Every run is one sequence (run): take the Stats
// from the memo, or make a sampled recording, on first use; under the
// audit, re-record every block and keep the simulated outputs; run the
// host twins, whose shards ask the injector first (fault); compare
// under the audit. The owner supplies the launches, with their class
// keys, says where each block writes and which planes the audit
// compares; each run supplies the twins.
type driver[T num.Real] struct {
	dev      *gpusim.Device
	exec     *gpusim.Executor // the recording lane
	key      recordKey
	launches []launch // the owner's, in launch order
	owner    owner[T]

	// kern holds the per-launch Stats the first run recorded or took
	// from the memo, total their aggregate.
	recorded bool
	kern     [2]gpusim.Stats
	total    gpusim.Stats

	sim []T // the simulated outputs an audited run compares
}

// An owner holds the state a driver's launches and twins read and
// write: a Pipeline or a backsubKernel.
type owner[T num.Real] interface {
	// blockRows is where block blk of launch slot writes the output
	// plane: [lo, hi) of every stride-long run of it.
	blockRows(slot, blk int) (lo, hi, stride int)
	// bindRecording readies the planes a recording reads and the twins
	// do not (on), and releases them after it (off).
	bindRecording(on bool)
	// outputs is the planes the audit compares. It is read only after
	// the audit's recording, which binds them.
	outputs() [][]T
}

// auditTwin, set only by the package's tests, audits every run of the
// driver: the simulated kernels re-record first, every block of them,
// a panic reports Stats that differ from the sampled ones the run
// published — the record-once and sampling claims — and matchOutputs
// panics on any output bit the twins write differently or leave
// unwritten.
var auditTwin bool

// launch is one kernel launch: its name, which keys the fault injector
// and the report, its geometry, the per-block body the recording lane
// runs, and the class key a sampled recording groups its blocks by
// (sample.go).
type launch struct {
	name      string
	tpb, grid int
	kern      gpusim.Kernel
	class     classOf
}

// newDriver builds the driver of o's launches on dev. key holds the
// geometry fields of the memo key; the driver adds dev's recording
// fields and the first launch.
func newDriver[T num.Real](dev *gpusim.Device, key recordKey, o owner[T], launches []launch) driver[T] {
	key.warpSize, key.txBytes = dev.WarpSize, dev.TransactionBytes
	key.sharedPerSM, key.maxThreads = dev.SharedMemPerSM, dev.MaxThreadsPerBlock
	key.kernel, key.tpb, key.grid = launches[0].name, launches[0].tpb, launches[0].grid
	return driver[T]{dev: dev, exec: gpusim.NewExecutor(dev), key: key, launches: launches, owner: o}
}

// run is the one sequence behind every recorded kernel. Its first run
// obtains the launches' Stats — from the process-wide memo, or by a
// sampled recording (recordOnce) — and publishes them in kern and
// total. Recording only measures: every run, a recording one included,
// then runs twins, whose outputs are the answer; twins reports whether
// it degraded a shard. Under auditTwin every run first re-records every
// block, panics if the Stats differ from the published ones, keeps the
// simulated outputs (the owner's outputs) and fills them with the
// unwritten mark; after twins, matchOutputs compares bit for bit. A
// run that ends in an error or a degraded shard is not compared, since
// its outputs are not the answer.
func (d *driver[T]) run(ctx context.Context, twins func() (degraded bool, err error)) error {
	if !d.recorded {
		st, err := recordOnce(ctx, d.key, func(st *[2]gpusim.Stats) error {
			return d.record(ctx, st[:len(d.launches)], false)
		})
		if err != nil {
			return err
		}
		d.kern, d.recorded = st, true
		for i := range d.launches {
			d.total.Add(&d.kern[i])
		}
	}
	var outs [][]T
	if auditTwin {
		var st [2]gpusim.Stats
		if err := d.record(ctx, st[:len(d.launches)], true); err != nil {
			return err
		}
		if st != d.kern {
			panic(fmt.Sprintf("core: re-recording changed the Stats:\n%+v\nrecorded %+v", st, d.kern))
		}
		d.sim, outs = d.sim[:0], d.owner.outputs()
		for _, o := range outs {
			d.sim = append(d.sim, o...)
			fill(o, unwritten[T]())
		}
	}
	degraded, err := twins()
	if auditTwin {
		matchOutputs(d.sim, outs, err == nil && !degraded)
	}
	return err
}

// record runs the launches' simulated blocks on the recording lane,
// with no injector, accumulating launch i's events into st[i]: one
// representative block per class of the launch's class key, scaled by
// the class's block count (sample.go), or, when full, every block —
// the identity classing the audit re-records through.
func (d *driver[T]) record(ctx context.Context, st []gpusim.Stats, full bool) error {
	d.owner.bindRecording(true)
	defer d.owner.bindRecording(false)
	for i := range st {
		if err := recordLaunch(ctx, d.exec, &st[i], &d.launches[i], full); err != nil {
			return err
		}
	}
	return nil
}

// fault asks the injector, in launch order, about each launch's blocks
// a shard of the twins stands in for at attempt — [first, first+count)
// as shard reports it for the launch slot, or the whole grid when
// shard is nil — through gpusim.FaultSite.First. On a fault it writes
// NaN over the faulted block's rows of out and returns the slot and
// the exact *LaunchError the simulated launch would have returned; the
// shard then computes nothing.
func (d *driver[T]) fault(attempt int, out []T, shard func(slot int) (first, count int)) (int, *gpusim.LaunchError) {
	for slot := range d.launches {
		l := &d.launches[slot]
		first, count := 0, l.grid
		if shard != nil {
			first, count = shard(slot)
		}
		site := gpusim.FaultSite{Inj: d.dev.Faults, Kernel: l.name, Attempt: attempt}
		if le := site.First(first, count); le != nil {
			for lo, hi, stride := d.owner.blockRows(slot, le.Block); lo < len(out); lo, hi = lo+stride, hi+stride {
				fill(out[lo:hi], T(math.NaN()))
			}
			return slot, le
		}
	}
	return 0, nil
}

// fill overwrites x with v. A faulted attempt fills its block's rows
// with NaN, the loudest mark it can leave: a recovery layer that skips
// the re-run cannot pass a bitwise check by luck.
func fill[T num.Real](x []T, v T) {
	for i := range x {
		x[i] = v
	}
}

// unwritten is the mark the audit fills the twins' outputs with: a
// signalling NaN with a payload of its own. No arithmetic returns a
// signalling NaN, and a fault's NaN is a quiet one, so an output that
// still holds the mark after the twins ran was never written.
func unwritten[T num.Real]() T {
	if num.SizeOf[T]() == 4 {
		return T(math.Float32frombits(0x7fa00bad))
	}
	return T(math.Float64frombits(0x7ff4000000000bad))
}

// matchOutputs ends an audited run over the simulated outputs sim.
// When compare, it panics on the first output the twins left unwritten
// or wrote in a bit other than the simulated one. A NaN matches any
// NaN: IEEE 754 lets an operation on two NaNs return either one, and
// the compiler orders a commutative product's operands as register
// allocation suits each inlined copy of pcr.Combine, so the kernel and
// its twin can return the same NaN with opposite signs (a singular
// system does). Every other bit, the sign of zero included, must match.
// A run that is not compared gets the simulated value back wherever
// the mark remains, so it leaves what the full recording wrote there.
func matchOutputs[T num.Real](sim []T, outs [][]T, compare bool) {
	mark := num.Bits(unwritten[T]())
	for plane, o := range outs {
		for i, v := range o {
			switch b := num.Bits(v); {
			case b == mark && !compare:
				o[i] = sim[i]
			case !compare:
			case b == mark:
				panic(fmt.Sprintf("core: host twin left output %d (of %d) index %d unwritten", plane, len(outs), i))
			case b != num.Bits(sim[i]) && !(v != v && sim[i] != sim[i]):
				panic(fmt.Sprintf("core: host twin diverges from the simulated kernels: output %d (of %d) index %d: twin %#x, simulated %#x",
					plane, len(outs), i, b, num.Bits(sim[i])))
			}
		}
		sim = sim[len(o):]
	}
}
