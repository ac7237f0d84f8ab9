package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one timed interval: an op (root) or a call into a layer (its
// child). Times are ns on the run's monotonic clock.
type span struct {
	start, end int64
	parent     int32 // index of the parent span, -1 for a root
	op         int32 // index of the op in its stream
	name       uint16
}

// recorder keeps spans in memory for the traced run and writes them out at
// exit. It is used from one goroutine.
type recorder struct {
	names []string
	ids   map[string]uint16
	spans []span
}

func newRecorder() *recorder {
	return &recorder{ids: map[string]uint16{}, spans: make([]span, 0, 1<<16)}
}

func (r *recorder) intern(name string) uint16 {
	id, ok := r.ids[name]
	if !ok {
		id = uint16(len(r.names))
		r.names = append(r.names, name)
		r.ids[name] = id
	}
	return id
}

// begin opens a root span and returns its index for its children.
func (r *recorder) begin(name uint16, op int32, start int64) int32 {
	r.spans = append(r.spans, span{start: start, parent: -1, op: op, name: name})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32, end int64) { r.spans[i].end = end }

func (r *recorder) add(name uint16, start, end int64, parent, op int32) {
	r.spans = append(r.spans, span{start: start, end: end, parent: parent, op: op, name: name})
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of one op run one after another, so their durations add.
func (r *recorder) selfTimes() []int64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// spanStats is the per-name aggregate the summary file reports.
type spanStats struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

func (r *recorder) stats() []spanStats {
	self := r.selfTimes()
	agg := make([]spanStats, len(r.names))
	for i, s := range r.spans {
		a := &agg[s.name]
		a.Count++
		a.TotalNs += s.end - s.start
		a.SelfNs += self[i]
	}
	for i := range agg {
		agg[i].Name = r.names[i]
	}
	sort.Slice(agg, func(i, j int) bool { return agg[i].Name < agg[j].Name })
	return agg
}

// write stores every span as gzipped CSV (name,start_ns,end_ns,self_ns,
// parent,op) at prefix+".spans.csv.gz" and the run metadata with per-name
// aggregates at prefix+".summary.json".
func (r *recorder) write(prefix string, meta map[string]any) error {
	f, err := os.Create(prefix + ".spans.csv.gz")
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	self := r.selfTimes()
	fmt.Fprintln(bw, "name,start_ns,end_ns,self_ns,parent,op")
	for i, s := range r.spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%d\n", r.names[s.name], s.start, s.end, self[i], s.parent, s.op)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sum, err := json.MarshalIndent(map[string]any{"meta": meta, "spans": r.stats()}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(prefix+".summary.json", sum, 0o644)
}
