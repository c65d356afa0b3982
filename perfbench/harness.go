package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/operator"
)

const (
	// numKeys and numClasses shape every workload's input: keys are drawn
	// uniformly from numKeys and each classifier maps key → key%numClasses.
	numKeys    = 1000
	numClasses = 16
	// quiet ends a round whose finals stopped arriving before all did.
	quiet = 2 * time.Second
	// setupReps is how many times a round builds its system to time
	// set-up; all but the last build are torn down again.
	setupReps = 10
)

// keyStream draws the workload's keys from its seed alone.
func keyStream(seed uint64, workload string) func() uint64 {
	var salt uint64
	for _, c := range workload {
		salt = salt*131 + uint64(c)
	}
	r := rand.New(rand.NewPCG(seed, salt))
	return func() uint64 { return r.Uint64N(numKeys) }
}

// clock is the run's time base: ns since the run began, monotonic.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// genLog records, per source event in emission order, when it was due,
// the timestamp the engine gave it (outputs inherit it, so it identifies
// the source event at the sink), and its class.
type genLog struct {
	due     []int64
	ts      []int64
	classes []uint64
	late    []int64 // open loop only: how late the generator emitted
}

func (g *genLog) add(due, ts int64, key uint64) {
	g.due = append(g.due, due)
	g.ts = append(g.ts, ts)
	g.classes = append(g.classes, key%numClasses)
}

// index resolves an engine timestamp to its source event (-1: none).
// Timestamps are strictly increasing in emission order.
func (g *genLog) index(ts int64) int {
	i := sort.Search(len(g.ts), func(i int) bool { return g.ts[i] >= ts })
	if i < len(g.ts) && g.ts[i] == ts {
		return i
	}
	return -1
}

// arrival is a raw subscriber callback, resolved to a source event after
// the run (the callback can run before the emitting call returns).
type arrival struct {
	ts, at       int64
	id           uint64
	class, count uint64
	final        bool
}

// sink is the subscriber at the end of a workload's graph.
type sink struct {
	clk       clock
	mu        sync.Mutex
	arrivals  []arrival
	finals    atomic.Int64
	lastFinal atomic.Int64
	// onFinal, when set, runs after every final arrival (closed loop).
	onFinal func()
}

func newSink(clk clock, capacity int) *sink {
	return &sink{clk: clk, arrivals: make([]arrival, 0, capacity)}
}

func (s *sink) fn(ev event.Event, final bool) {
	class, count := operator.DecodePair(ev.Payload)
	a := arrival{
		ts: ev.Timestamp, at: s.clk.now(),
		id:    uint64(ev.ID.Source)<<48 ^ uint64(ev.ID.Seq),
		class: class, count: count, final: final,
	}
	s.mu.Lock()
	s.arrivals = append(s.arrivals, a)
	s.mu.Unlock()
	if final {
		s.finals.Add(1)
		s.lastFinal.Store(a.at)
		if s.onFinal != nil {
			s.onFinal()
		}
	}
}

// await returns once attempted finals have arrived, or once none has
// arrived for the quiet period. Engine.Drain is not used: its idle check
// can return early.
func (s *sink) await(attempted int) {
	for s.finals.Load() < int64(attempted) {
		last := s.lastFinal.Load()
		if s.clk.now()-last > int64(quiet) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// verdict resolves the arrivals against the generator's log and checks
// them against the key-derived reference.
func (s *sink) verdict(g *genLog) (Verdict, []bool) {
	s.mu.Lock()
	arr := make([]Arrival, len(s.arrivals))
	for i, a := range s.arrivals {
		arr[i] = Arrival{Event: g.index(a.ts), ID: a.id, Class: a.class, Count: a.count, Final: a.final, At: a.at}
	}
	s.mu.Unlock()
	return Check(Expectations(g.classes), arr)
}

// openLoop emits one event every period until the round's end, each at
// its due time whether or not the system kept up; a late generator emits
// at once and records how late it was. emit returns the event's engine
// timestamp.
func openLoop(r *roundCtx, period time.Duration, emit func(i int, due int64, key uint64) (int64, error)) error {
	start := r.clk.now()
	for i := 0; ; i++ {
		due := start + int64(i)*int64(period)
		if due-start >= int64(r.length) {
			return nil
		}
		if d := due - r.clk.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		r.gen.late = append(r.gen.late, r.clk.now()-due)
		key := r.keys()
		ts, err := emit(i, due, key)
		if err != nil {
			return fmt.Errorf("emit: %w", err)
		}
		r.gen.add(due, ts, key)
	}
}

// heapProbe reads the live heap after full collections, above a
// baseline taken before the system is built. Full collections make the
// readings exact: the runtime's own live-heap figure between collections
// also counts objects allocated while a collection was marking.
type heapProbe struct{ base, peak uint64 }

func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapProbe() *heapProbe { return &heapProbe{base: liveHeap()} }

// read takes one reading; runs read at the end of the load and again
// once the last final has arrived, with the system still up.
func (h *heapProbe) read() {
	if v := liveHeap(); v > h.peak {
		h.peak = v
	}
}

// mb returns the highest reading above the baseline, in MB.
func (h *heapProbe) mb() float64 {
	if h.peak < h.base {
		return 0
	}
	return float64(h.peak-h.base) / 1e6
}

// pressure holds samples of Engine.Pressure: the data-lane mailbox depth
// and the outputs parked behind exhausted credit gates, each summed over
// every node of every engine.
type pressure struct{ depth, queued []float64 }

// sample polls the engines every 5 ms until the returned stop is called.
func (p *pressure) sample(engs []*core.Engine) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			var depth, queued int
			for _, e := range engs {
				for _, np := range e.Pressure() {
					depth += np.DataDepth
					queued += np.CreditQueued
				}
			}
			p.depth = append(p.depth, float64(depth))
			p.queued = append(p.queued, float64(queued))
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// quantile returns the q-quantile of xs (nearest rank), 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
