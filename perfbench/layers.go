package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"streammine/internal/checkpoint"
	"streammine/internal/event"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/transport"
)

// Span names. A span's layer is the part of its name before the dot.
const (
	spanEmit = iota
	spanProcess
	spanInit
	spanWrite
	spanSave
	spanLatest
	spanHandle
	spanRecover
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core.emit", "operator.process", "operator.init", "storage.write",
	"checkpoint.save", "checkpoint.latest", "transport.handle", "recovery.recover",
}

var spanLayer = [numSpanNames]string{
	"core", "operator", "operator", "storage",
	"checkpoint", "checkpoint", "transport", "recovery",
}

// tracedLayers are the layers whose self time a traced run reports.
var tracedLayers = []string{"core", "operator", "storage", "checkpoint", "transport", "recovery"}

// span is one timed call into a layer. Times are ns since the tracer's
// epoch; parent is the 1-based index of the enclosing span (0: none).
type span struct {
	name       uint8
	parent     int32
	event      uint64
	start, end int64
}

// spanCap bounds the spans kept for the trace file (about 10 MB). Self
// time is summed as spans end, so it covers every span, kept or not.
const spanCap = 1 << 18

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	total int
	// self is each layer's self time: a span's duration minus the part
	// its child spans cover.
	self map[string]int64
	// open is the id of the Engine.Recover span in progress: the calls
	// recovery makes on the same goroutine (checkpoint load, operator
	// re-init) are its children.
	open atomic.Int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14), self: make(map[string]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record adds a finished span and returns its id (0 when not kept).
func (t *tracer) record(name uint8, parent int32, ev uint64, start, end int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	t.self[spanLayer[name]] += end - start
	if parent > 0 {
		t.self[spanLayer[t.spans[parent-1].name]] -= end - start
	}
	if len(t.spans) >= spanCap {
		return 0
	}
	t.spans = append(t.spans, span{name: name, parent: parent, event: ev, start: start, end: end})
	return int32(len(t.spans))
}

// begin opens a span that may get children; end closes it. Open spans
// are always kept, so their children can name them.
func (t *tracer) begin(name uint8) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: t.now()})
	return int32(len(t.spans))
}

func (t *tracer) end(id int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.end = t.now()
	t.total++
	t.self[spanLayer[s.name]] += s.end - s.start
}

// selfTime returns each layer's self time so far.
func (t *tracer) selfTime() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make(map[string]time.Duration, len(t.self))
	for layer, ns := range t.self {
		self[layer] = time.Duration(ns)
	}
	return self
}

// write stores the spans as gzipped JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	t.mu.Lock()
	for i, s := range t.spans {
		if err = enc.Encode(struct {
			ID     int    `json:"id"`
			Parent int32  `json:"parent"`
			Name   string `json:"name"`
			Event  uint64 `json:"event"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i + 1, s.parent, spanNames[s.name], s.event, s.start, s.end}); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return nil
}

// calls counts the calls crossing one layer boundary.
type calls struct {
	n, ns, items, bytes atomic.Int64
}

func (c *calls) add(ns, items, bytes int64) {
	c.n.Add(1)
	c.ns.Add(ns)
	c.items.Add(items)
	c.bytes.Add(bytes)
}

// layers instruments the program from outside, by wrapping the public
// interfaces it calls through. Each wrapper counts and times its calls
// and records a span per call.
type layers struct {
	tr      *tracer
	emit    calls        // SourceHandle.Emit/EmitAt/EmitBatch; items = events
	process calls        // operator.Operator.Process
	write   calls        // storage.Disk.Write; bytes = payload
	save    calls        // checkpoint.Store.Save; bytes = encoded snapshot
	frames  calls        // transport handler; items = data events
	data    atomic.Int64 // transport frames carrying events
}

func newLayers() *layers { return &layers{tr: newTracer()} }

// timed runs f as one call of c and records its span.
func (l *layers) timed(c *calls, name uint8, ev uint64, items, bytes int64, f func()) {
	start := l.tr.now()
	f()
	end := l.tr.now()
	c.add(end-start, items, bytes)
	l.tr.record(name, 0, ev, start, end)
}

func (l *layers) disk(d storage.Disk) storage.Disk {
	if l == nil {
		return d
	}
	return &tracedDisk{inner: d, l: l}
}

func (l *layers) op(o operator.Operator) operator.Operator {
	if l == nil {
		return o
	}
	return &tracedOp{inner: o, l: l}
}

func (l *layers) store(s checkpoint.Store) checkpoint.Store {
	if l == nil {
		return s
	}
	return &tracedStore{inner: s, l: l}
}

func (l *layers) handler(h transport.ConnHandler) transport.ConnHandler {
	if l == nil {
		return h
	}
	return func(c transport.Conn, m transport.Message) {
		var items int64
		ev := m.Event.Trace
		switch m.Type {
		case transport.MsgEvent:
			items = 1
		case transport.MsgEventBatch:
			items = int64(len(m.Events))
			if items > 0 {
				ev = m.Events[0].Trace
			}
		}
		if items > 0 {
			l.data.Add(1)
		}
		l.timed(&l.frames, spanHandle, ev, items, 0, func() { h(c, m) })
	}
}

// recoverCall times Engine.Recover; the calls it makes on its own
// goroutine become child spans.
func (l *layers) recoverCall(f func() error) error {
	if l == nil {
		return f()
	}
	id := l.tr.begin(spanRecover)
	l.tr.open.Store(id)
	err := f()
	l.tr.open.Store(0)
	l.tr.end(id)
	return err
}

type tracedDisk struct {
	inner storage.Disk
	l     *layers
}

func (d *tracedDisk) Write(p []byte) (err error) {
	d.l.timed(&d.l.write, spanWrite, 0, 0, int64(len(p)), func() { err = d.inner.Write(p) })
	return err
}

func (d *tracedDisk) Close() error { return d.inner.Close() }

type tracedOp struct {
	inner operator.Operator
	l     *layers
}

func (o *tracedOp) Init(ctx operator.InitContext) error {
	start := o.l.tr.now()
	err := o.inner.Init(ctx)
	o.l.tr.record(spanInit, o.l.tr.open.Load(), 0, start, o.l.tr.now())
	return err
}

func (o *tracedOp) Process(ctx operator.Context, e event.Event) (err error) {
	o.l.timed(&o.l.process, spanProcess, e.Trace, 1, 0, func() { err = o.inner.Process(ctx, e) })
	return err
}

func (o *tracedOp) Terminate() error { return o.inner.Terminate() }

type tracedStore struct {
	inner checkpoint.Store
	l     *layers
}

func (s *tracedStore) Save(snap *checkpoint.Snapshot) (err error) {
	size := int64(len(checkpoint.Encode(snap)))
	s.l.timed(&s.l.save, spanSave, 0, 1, size, func() { err = s.inner.Save(snap) })
	return err
}

func (s *tracedStore) Latest(op uint32) (*checkpoint.Snapshot, error) {
	start := s.l.tr.now()
	snap, err := s.inner.Latest(op)
	s.l.tr.record(spanLatest, s.l.tr.open.Load(), 0, start, s.l.tr.now())
	return snap, err
}
