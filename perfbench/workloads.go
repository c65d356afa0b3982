package main

import (
	"fmt"
	"time"

	"streammine/internal/checkpoint"
	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/transport"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	length   time.Duration
	// nospec runs spec_chain without speculation (reference only).
	nospec bool
}

// workload is one kind of load on one kind of system. A run splits its
// length into rounds; each round builds a fresh system, drives it, waits
// for the last final and checks the sink. Run metrics are medians over
// the rounds, so one disturbed round does not move them, and state the
// program accumulates (its in-memory decision-log mirror is never
// pruned) does not grow with the run's length.
type workload struct {
	// arrivals is the most sink callbacks one second of load can cause,
	// which sizes the sink's record up front.
	arrivals int
	build    func(cfg config, l *layers, sk *sink) (*system, error)
	drive    func(r *roundCtx) error
}

const rounds = 5

var workloads = map[string]workload{
	"spec_chain":      {arrivals: 2 * chainRate, build: buildChain, drive: driveChain},
	"bridge_saturate": {arrivals: 150_000, build: buildBridge, drive: driveBridge},
	"crash_replay":    {arrivals: crashRate, build: buildCrash, drive: driveCrash},
}

// system is a running system under test: its engines (in graph order),
// their classifier stages, the source handle, and what to close.
type system struct {
	engs   []*core.Engine
	stages [][]graph.NodeID // per engine
	src    *core.SourceHandle
	pools  []*storage.Pool
	srv    *transport.Server
	bridge *core.ReliableBridge
}

func (s *system) close() {
	if s.bridge != nil {
		s.bridge.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	for _, e := range s.engs {
		e.Stop()
	}
	for _, p := range s.pools {
		p.Close()
	}
}

// start builds an engine over g on its own storage pool and adds it to
// the system.
func (s *system) start(l *layers, g *graph.Graph, stages []graph.NodeID, disk storage.Disk, seed uint64) (*core.Engine, error) {
	pool := storage.NewPool([]storage.Disk{l.disk(disk)})
	s.pools = append(s.pools, pool)
	eng, err := core.New(g, core.Options{Pool: pool, Seed: seed, CheckpointStore: l.store(checkpoint.NewMemStore())})
	if err != nil {
		return nil, err
	}
	s.engs = append(s.engs, eng)
	s.stages = append(s.stages, stages)
	return eng, nil
}

// roundCtx is what a workload's drive function works with in one round.
type roundCtx struct {
	cfg     config
	l       *layers
	sys     *system
	sk      *sink
	gen     *genLog
	clk     clock
	length  time.Duration
	keys    func() uint64
	crashes []crashRec
}

// emit runs one call into SourceHandle, timed when the run is traced.
func (r *roundCtx) emit(items int64, f func()) {
	if r.l == nil {
		f()
		return
	}
	r.l.timed(&r.l.emit, spanEmit, uint64(len(r.gen.due)+1), items, 0, f)
}

// classifier returns a stateful single-worker classifier stage.
func classifier(l *layers, name string, speculative bool) graph.Node {
	return graph.Node{
		Name:        name,
		Op:          l.op(&operator.Classifier{Classes: numClasses}),
		Traits:      operator.ClassifierTraits(numClasses),
		Speculative: speculative,
		Workers:     1,
	}
}

// singleEngine builds src → stages → sink as one engine.
func singleEngine(l *layers, sk *sink, disk storage.Disk, stages []graph.Node) (*system, error) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	prev := src
	var ids []graph.NodeID
	for _, n := range stages {
		id := g.AddNode(n)
		g.Connect(prev, 0, id, 0)
		prev = id
		ids = append(ids, id)
	}
	sys := &system{}
	eng, err := sys.start(l, g, ids, disk, 1)
	if err == nil {
		err = eng.Subscribe(prev, 0, sk.fn)
	}
	if err == nil {
		err = eng.Start()
	}
	if err == nil {
		sys.src, err = eng.Source(src)
	}
	if err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// spec_chain: source → 4 speculative stateful classifiers sharing one
// simulated 5 ms disk through the group-commit pool, open loop at a fixed
// rate. With speculation a final output should wait for about one stable
// write, not four.
const (
	chainDepth = 4
	chainRate  = 1000
)

func buildChain(cfg config, l *layers, sk *sink) (*system, error) {
	var stages []graph.Node
	for d := 0; d < chainDepth; d++ {
		stages = append(stages, classifier(l, fmt.Sprintf("stage%d", d), !cfg.nospec))
	}
	return singleEngine(l, sk, storage.NewSimDisk(5*time.Millisecond, 0), stages)
}

func driveChain(r *roundCtx) error {
	wall0 := time.Now().UnixNano() - r.clk.now()
	payload := operator.EncodeValue(0)
	return openLoop(r, time.Second/chainRate, func(i int, due int64, key uint64) (ts int64, err error) {
		ts = wall0 + due // the event's timestamp is its due time
		r.emit(1, func() { _, err = r.sys.src.EmitAt(ts, key, payload) })
		return ts, err
	})
}

// bridge_saturate: engine A (source, batch 8 → speculative classifier)
// sends over a loopback-TCP ReliableBridge to engine B (classifier →
// subscriber), both on zero-latency disks, under a closed loop that
// keeps a fixed window of un-finalized events outstanding. Throughput is
// set by the CPU layers: STM, dispatcher/committer, credits, transport.
//
// B's classifier is non-speculative, so the subscriber only ever
// receives finals: a speculative sink stage loses finals now and then
// (README.md, "Known faults"), which a run cannot count as a failure that
// repeats exactly.
const (
	bridgeWindow = 2048
	bridgeBatch  = 8
	bridgeCredit = 512
)

func buildBridge(cfg config, l *layers, sk *sink) (*system, error) {
	fl := &flow.Limits{MailboxCap: 2048, CreditWindow: bridgeCredit, BatchSize: bridgeBatch}
	sys := &system{}
	fail := func(err error) (*system, error) {
		sys.close()
		return nil, err
	}
	gA := graph.New()
	src := gA.AddNode(graph.Node{Name: "src", Flow: fl})
	na := classifier(l, "clsA", true)
	na.Flow = fl
	clsA := gA.AddNode(na)
	gA.Connect(src, 0, clsA, 0)
	gB := graph.New()
	nb := classifier(l, "clsB", false)
	nb.Flow, nb.RemoteInputs = fl, []int{0}
	clsB := gB.AddNode(nb)

	engA, err := sys.start(l, gA, []graph.NodeID{clsA}, storage.NewSimDisk(0, 0), 1)
	if err != nil {
		return fail(err)
	}
	engB, err := sys.start(l, gB, []graph.NodeID{clsB}, storage.NewSimDisk(0, 0), 2)
	if err != nil {
		return fail(err)
	}
	if err := engB.Subscribe(clsB, 0, sk.fn); err != nil {
		return fail(err)
	}
	if err := engB.Start(); err != nil {
		return fail(err)
	}
	h, err := engB.BridgeIn(clsB, 0)
	if err != nil {
		return fail(err)
	}
	if sys.srv, err = transport.ListenConn("127.0.0.1:0", l.handler(h)); err != nil {
		return fail(err)
	}
	if err := engA.Start(); err != nil {
		return fail(err)
	}
	if sys.src, err = engA.Source(src); err != nil {
		return fail(err)
	}
	sys.bridge, err = engA.BridgeOutReliableOpts(clsA, 0, sys.srv.Addr(),
		core.BridgeOptions{CreditWindow: bridgeCredit, Batch: bridgeBatch})
	if err != nil {
		return fail(err)
	}
	return sys, nil
}

func driveBridge(r *roundCtx) error {
	tokens := make(chan struct{}, bridgeWindow) // one per event that may be outstanding
	for i := 0; i < bridgeWindow; i++ {
		tokens <- struct{}{}
	}
	r.sk.onFinal = func() {
		select {
		case tokens <- struct{}{}:
		default:
		}
	}
	end := r.clk.now() + int64(r.length)
	stall := time.NewTimer(time.Hour)
	defer stall.Stop()
	// acquire takes one token, giving up at the end of the round.
	acquire := func() bool {
		select {
		case <-tokens:
			return true
		default:
		}
		wait := time.Duration(end - r.clk.now())
		if wait <= 0 {
			return false
		}
		if !stall.Stop() {
			select {
			case <-stall.C:
			default:
			}
		}
		stall.Reset(wait)
		select {
		case <-tokens:
			return true
		case <-stall.C:
			return false
		}
	}
	payload := operator.EncodeValue(0)
	items := make([]core.BatchItem, bridgeBatch)
	for r.clk.now() < end {
		for i := range items {
			if !acquire() {
				return nil
			}
			items[i] = core.BatchItem{Key: r.keys(), Payload: payload}
		}
		due := r.clk.now()
		var evs []event.Event
		var err error
		r.emit(bridgeBatch, func() { evs, err = r.sys.src.EmitBatch(items) })
		if err != nil {
			return fmt.Errorf("emit batch: %w", err)
		}
		for i, ev := range evs {
			r.gen.add(due, ev.Timestamp, items[i].Key)
		}
	}
	return nil
}

// crash_replay: source → speculative stateful classifier (checkpoint every
// ckptEvery events) → classifier, open loop on a zero-latency disk. Once
// per crashEvery events the first stage crashes and recovers at a fixed
// offset past a checkpoint, so every recovery restores a checkpoint,
// scans the decision log and replays the same number of logged events.
//
// The last stage is non-speculative for the reason given at
// bridge_saturate: the subscriber then only receives finals.
const (
	crashRate   = 2000
	ckptEvery   = 1000
	crashEvery  = 4000
	crashOffset = 1500 // 500 events past the checkpoint at 1000
)

func buildCrash(cfg config, l *layers, sk *sink) (*system, error) {
	first := classifier(l, "stage0", true)
	first.CheckpointEvery = ckptEvery
	return singleEngine(l, sk, storage.NewSimDisk(0, 0), []graph.Node{first, classifier(l, "stage1", false)})
}

// crashRec is one crash and recovery of the first stage.
type crashRec struct {
	at           int64 // round clock at the Crash call
	recoverNs    int64 // Engine.Recover call
	logRecords   int64
	replayEvents int64
	replayNs     int64
}

func driveCrash(r *roundCtx) error {
	eng, stage := r.sys.engs[0], r.sys.stages[0][0]
	// The fault injector runs beside the generator so that the load keeps
	// its schedule while the first stage is down.
	crashAt := make(chan struct{}, 1)
	var faultErr error
	faultDone := make(chan struct{})
	go func() {
		defer close(faultDone)
		for range crashAt {
			rec := crashRec{at: r.clk.now()}
			if err := eng.Crash(stage); err != nil {
				faultErr = err
				return
			}
			t0 := time.Now()
			if err := r.l.recoverCall(func() error { return eng.Recover(stage) }); err != nil {
				faultErr = err
				return
			}
			rec.recoverNs = int64(time.Since(t0))
			for deadline := time.Now().Add(quiet); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if st := eng.RecoveryStats(); st.ReplayDone {
					rec.logRecords = st.LogRecords
					rec.replayEvents = st.ReplayEvents
					rec.replayNs = st.ReplayEndNs - st.ReplayStartNs
					break
				}
			}
			r.crashes = append(r.crashes, rec)
		}
	}()
	payload := operator.EncodeValue(0)
	err := openLoop(r, time.Second/crashRate, func(i int, due int64, key uint64) (ts int64, err error) {
		r.emit(1, func() {
			var ev event.Event
			ev, err = r.sys.src.Emit(key, payload)
			ts = ev.Timestamp
		})
		if (i+1)%crashEvery == crashOffset {
			select {
			case crashAt <- struct{}{}:
			default: // the previous recovery is still running
			}
		}
		return ts, err
	})
	close(crashAt)
	<-faultDone
	if err != nil {
		return err
	}
	if faultErr != nil {
		return fmt.Errorf("crash/recover: %w", faultErr)
	}
	return nil
}
