package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// span is one host-time interval recorded from this program's own
// files, around a call into the simulator. Spans of one pass share a
// trace id (the id of their root).
type span struct {
	name       string
	id, parent int // parent 0 = root
	start, end time.Duration
}

// spans is the in-memory span log of a traced run; it is written out
// once, at exit. A nil *spans records nothing, so untraced passes run
// the same code.
type spans struct {
	epoch time.Time
	log   []span
}

func newSpans() *spans { return &spans{epoch: now()} }

// begin opens a span and returns its id (ids start at 1).
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	s.log = append(s.log, span{name: name, id: len(s.log) + 1, parent: parent, start: now().Sub(s.epoch)})
	return len(s.log)
}

func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.log[id-1].end = now().Sub(s.epoch)
}

// dur returns a span's duration.
func (sp span) dur() time.Duration { return sp.end - sp.start }

// root walks up to the span's pass.
func (s *spans) root(id int) int {
	for s.log[id-1].parent != 0 {
		id = s.log[id-1].parent
	}
	return id
}

// selfTime is a span's duration minus the part its children cover.
func (s *spans) selfTime(id int) time.Duration {
	d := s.log[id-1].dur()
	for _, c := range s.log {
		if c.parent == id {
			d -= c.dur()
		}
	}
	return d
}

// byName returns the durations of every span called name, in record
// order.
func (s *spans) byName(name string) []float64 {
	var out []float64
	for _, sp := range s.log {
		if sp.name == name {
			out = append(out, sp.dur().Seconds())
		}
	}
	return out
}

// chromeTrace renders the log as Chrome trace-event JSON: one complete
// event per span, sorted by start so timestamps never regress, with the
// span, parent and trace ids in args.
func (s *spans) chromeTrace(process string) []byte {
	order := make([]int, len(s.log))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s.log[order[a]].start < s.log[order[b]].start })
	us := func(d time.Duration) string { return fmt.Sprintf("%d.%03d", d/time.Microsecond, d%time.Microsecond) }
	name, _ := json.Marshal(process)
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"+
		`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":%s}}`, name)
	for _, i := range order {
		sp := s.log[i]
		n, _ := json.Marshal(sp.name)
		fmt.Fprintf(&b, ",\n"+`{"name":%s,"cat":"host","ph":"X","pid":1,"tid":1,"ts":%s,"dur":%s,"args":{"span":%d,"parent":%d,"trace":%d}}`,
			n, us(sp.start), us(sp.dur()), sp.id, sp.parent, s.root(sp.id))
	}
	b.WriteString("\n]}\n")
	return b.Bytes()
}
