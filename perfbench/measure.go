package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opFunc runs op i of a workload's sequence and returns the latency the
// workload attributes to it (output checks excluded) and a non-nil error
// when the op failed or its output was wrong.
type opFunc func(i int) (time.Duration, error)

// phase is one measured phase of a workload.
type phase struct {
	ops, failed int
	lats        []time.Duration
	ends        []time.Duration // completion offset of each op, in lats order
	elapsed     time.Duration
	allocBytes  uint64
	cpu         time.Duration
	gcFrac      float64
	heapPeak    uint64
	firstErr    error
}

// loop drives op with clients closed-loop callers. A workload whose
// cycle (the op mix it repeats) is long runs whole cycles until seconds
// have passed, so every run measures the same mix; a short cycle runs
// until seconds have passed. maxOps > 0 ends the phase after that many
// ops, whatever the mix.
type loop struct {
	clients     int
	cycle       int
	wholeCycles bool
	seconds     float64
	maxOps      int
	full        func() bool // if set and true, the phase ends before the next op
}

func (l loop) run(op opFunc) phase {
	budget := time.Duration(l.seconds * float64(time.Second))
	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		p       phase
	)
	rt := startRuntime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1) - 1)
				if l.maxOps > 0 && i >= l.maxOps {
					stopped.Store(true)
					return
				}
				if (!l.wholeCycles && time.Since(start) >= budget) || (l.full != nil && l.full()) {
					stopped.Store(true)
					return
				}
				lat, err := op(i)
				end := time.Since(start)
				mu.Lock()
				p.ops++
				p.lats = append(p.lats, lat)
				p.ends = append(p.ends, end)
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
				}
				mu.Unlock()
				if l.wholeCycles && (i+1)%l.cycle == 0 && time.Since(start) >= budget {
					stopped.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	rt.finish(&p)
	return p
}

// summary is the end-to-end view of a phase: throughput, median and
// p90 latency, and the fewest samples any of them rests on.
type summary struct {
	opsPerSec, p50, p90 float64
	samples             int
}

// summarize reports a phase as the median over k windows of equal
// length (by op completion time) of each window's throughput, p50 and
// p90, so a burst of host noise that spoils one window does not move
// the run's figures; k = 1 reports the phase as a whole.
func (p phase) summarize(k int) summary {
	width := p.elapsed / time.Duration(k)
	var tput, p50s, p90s []float64
	samples := len(p.lats)
	for w := 0; w < k; w++ {
		lo, hi := width*time.Duration(w), width*time.Duration(w+1)
		if w == k-1 {
			hi = p.elapsed + 1
		}
		var lats []time.Duration
		for i, e := range p.ends {
			if e >= lo && e < hi {
				lats = append(lats, p.lats[i])
			}
		}
		tput = append(tput, float64(len(lats))/(hi-lo).Seconds())
		p50s = append(p50s, ms(quantile(lats, 0.5)))
		p90s = append(p90s, ms(quantile(lats, 0.9)))
		samples = min(samples, len(lats))
	}
	if k == 1 {
		tput[0] = float64(p.ops) / p.elapsed.Seconds()
	}
	return summary{opsPerSec: median(tput), p50: median(p50s), p90: median(p90s), samples: samples}
}

func (p phase) meanLat() time.Duration {
	if len(p.lats) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range p.lats {
		sum += d
	}
	return sum / time.Duration(len(p.lats))
}

// quantile is the linearly interpolated q-quantile of ds (q in [0,1]).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

// beyond counts the samples strictly above the q-quantile's rank: the
// samples a quantile estimate rests on in its tail.
func beyond(n int, q float64) int { return n - 1 - int(math.Floor(q*float64(n-1))) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Process-wide runtime counters read around a phase.
const (
	mAllocs  = "/gc/heap/allocs:bytes"
	mGCCPU   = "/cpu/classes/gc/total:cpu-seconds"
	mAllCPU  = "/cpu/classes/total:cpu-seconds"
	mHeapObj = "/memory/classes/heap/objects:bytes"
)

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func metricValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// allocated returns the bytes the process has allocated so far. Unlike
// the runtime/metrics counter, which the allocator advances a whole span
// at a time, MemStats.TotalAlloc is exact to the byte, at the price of
// stopping the world: fine for the benchmark's own timed calls, too dear
// for every op of an untraced phase.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeWindow samples allocation, CPU, GC CPU and peak heap over a
// phase. A sampler goroutine polls the live heap every 10 ms.
type runtimeWindow struct {
	start      []metrics.Sample
	cpu0       time.Duration
	peak       atomic.Uint64
	stop, done chan struct{}
}

func startRuntime() *runtimeWindow {
	runtime.GC()
	w := &runtimeWindow{
		start: readMetrics(mAllocs, mGCCPU, mAllCPU),
		cpu0:  cpuTime(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if h := uint64(metricValue(readMetrics(mHeapObj)[0])); h > w.peak.Load() {
				w.peak.Store(h)
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *runtimeWindow) finish(p *phase) {
	close(w.stop)
	<-w.done
	end := readMetrics(mAllocs, mGCCPU, mAllCPU)
	p.allocBytes = uint64(metricValue(end[0]) - metricValue(w.start[0]))
	if all := metricValue(end[2]) - metricValue(w.start[2]); all > 0 {
		p.gcFrac = (metricValue(end[1]) - metricValue(w.start[1])) / all
	}
	p.cpu = cpuTime() - w.cpu0
	p.heapPeak = w.peak.Load()
}

// layerTimer accumulates the benchmark's own timed calls into one layer.
type layerTimer struct {
	mu    sync.Mutex
	n     int
	total time.Duration
	bytes uint64 // allocation, summed over the calls measured with it
	nb    int    // calls measured with allocation
}

func (t *layerTimer) add(d time.Duration, bytes uint64, withAlloc bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	t.total += d
	if withAlloc {
		t.bytes += bytes
		t.nb++
	}
}

func (t *layerTimer) meanMS() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == 0 {
		return 0
	}
	return ms(t.total) / float64(t.n)
}

func (t *layerTimer) meanKB() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nb == 0 {
		return 0
	}
	return float64(t.bytes) / 1024 / float64(t.nb)
}

// layers is the set of per-layer timers of one traced run, by name.
type layers struct {
	mu sync.Mutex
	m  map[string]*layerTimer
}

func (l *layers) get(name string) *layerTimer {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = map[string]*layerTimer{}
	}
	t := l.m[name]
	if t == nil {
		t = &layerTimer{}
		l.m[name] = t
	}
	return t
}

// timed runs f as one call into the named layer. With alloc set it also
// charges the process's allocation during f to the layer, which is only
// meaningful when nothing else runs concurrently. A nil *layers runs f
// untimed.
func (l *layers) timed(name string, alloc bool, f func()) {
	if l == nil {
		f()
		return
	}
	var a0 uint64
	if alloc {
		a0 = allocated()
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	var a uint64
	if alloc {
		a = allocated() - a0
	}
	l.get(name).add(d, a, alloc)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
