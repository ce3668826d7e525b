package main

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// selfCPU returns this process's user+system CPU time, from rusage.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets a process's peak resident set (VmHWM) back to its
// current resident set, so peakRSSMB then reads the peak since the reset.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM", pid)
}

// runtimeSnap is this process's cumulative Go runtime and CPU counters.
type runtimeSnap struct {
	gcCycles, allocBytes, allocObjects uint64
	gcCPU                              time.Duration // runtime estimate
	cpu                                time.Duration // rusage user+system
}

var runtimeKeys = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return runtimeSnap{
		gcCycles:     s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		allocObjects: s[2].Value.Uint64(),
		gcCPU:        time.Duration(s[3].Value.Float64() * 1e9),
		cpu:          selfCPU(),
	}
}

// setRuntime records the runtime-layer metrics between two snapshots
// taken around ops operations of this process.
func (o *outcome) setRuntime(before, after runtimeSnap, ops int) {
	n := float64(max(ops, 1))
	o.set("runtime.gc_cpu_share", ratio(float64(after.gcCPU-before.gcCPU), float64(after.cpu-before.cpu)))
	o.set("runtime.gc_cycles_per_op", float64(after.gcCycles-before.gcCycles)/n)
	o.set("runtime.alloc_mb_per_op", float64(after.allocBytes-before.allocBytes)/1e6/n)
	o.set("allocs_per_op", float64(after.allocObjects-before.allocObjects)/n)
}

// gcEvent is one line of a child's GODEBUG=gctrace=1 output.
type gcEvent struct {
	at                  time.Time // when the line arrived
	cpuMS               float64   // GC CPU of the cycle, all phases
	heapStart, heapLive float64   // MB when the cycle began, and live after it
}

// gcLine matches the gctrace format, e.g.
// "gc 7 @0.512s 1%: 0.01+1.2+0.02 ms clock, 0.03+0.4/1.1/0+0.05 ms cpu, 4->4->1 MB, ...".
var gcLine = regexp.MustCompile(`^gc \d+ @[\d.]+s \d+%: [\d.+]+ ms clock, ([\d.+/]+) ms cpu, (\d+)->(\d+)->(\d+) MB`)

func parseGCLine(line string, at time.Time) (gcEvent, bool) {
	m := gcLine.FindStringSubmatch(line)
	if m == nil {
		return gcEvent{}, false
	}
	ev := gcEvent{at: at}
	for _, part := range strings.FieldsFunc(m[1], func(r rune) bool { return r == '+' || r == '/' }) {
		v, _ := strconv.ParseFloat(part, 64)
		ev.cpuMS += v
	}
	ev.heapStart, _ = strconv.ParseFloat(m[2], 64)
	ev.heapLive, _ = strconv.ParseFloat(m[4], 64)
	return ev, true
}

// gcLog collects a child's GC events as its stderr streams in.
type gcLog struct {
	mu     sync.Mutex
	events []gcEvent
}

func (g *gcLog) add(ev gcEvent) {
	g.mu.Lock()
	g.events = append(g.events, ev)
	g.mu.Unlock()
}

// window sums the GC cycles in [from, to): their count, their CPU, and
// the heap allocated, estimated as each cycle's starting heap minus the
// live heap the previous cycle left (1 MB resolution).
func (g *gcLog) window(from, to time.Time) (cycles int, cpu time.Duration, allocMB float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, ev := range g.events {
		if ev.at.Before(from) || !ev.at.Before(to) {
			continue
		}
		cycles++
		cpu += time.Duration(ev.cpuMS * 1e6)
		if i > 0 {
			allocMB += max(ev.heapStart-g.events[i-1].heapLive, 0)
		}
	}
	return cycles, cpu, allocMB
}
