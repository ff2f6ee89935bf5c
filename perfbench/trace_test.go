package main

import (
	"testing"
	"time"

	"deep/internal/obs"
)

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func TestSelfTimes(t *testing.T) {
	nested := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 60, parent: 0},
		{name: "b", start: 70, end: 90, parent: 0},
		{name: "a1", start: 20, end: 30, parent: 1},
	}
	self := selfTimes(nested)
	if want := []int64{30, 40, 20, 10}; !equal(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if s := sum(self); s != 100 {
		t.Errorf("nested self times sum to %d, want the root's 100", s)
	}

	// Overlapping siblings are covered once, so the sum exceeds the root by
	// the overlap: the check that self times add up catches it.
	overlap := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 60, parent: 0},
		{name: "b", start: 50, end: 90, parent: 0},
	}
	if s := sum(selfTimes(overlap)); s != 110 {
		t.Errorf("overlapping siblings sum to %d, want 110", s)
	}

	// A child escaping its parent is clipped for the parent's self time but
	// keeps its own duration.
	escape := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 80, end: 120, parent: 0},
	}
	self = selfTimes(escape)
	if self[0] != 80 || self[1] != 40 || sum(self) != 120 {
		t.Errorf("escaping child: self times %v, want [80 40]", self)
	}
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSpanTreeAccountsForClientSpan(t *testing.T) {
	item := func(queue, work time.Duration) itemTrace {
		var it itemTrace
		it.stages[obs.StageQueue] = queue
		it.stages[obs.StageFingerprint] = work
		it.stages[obs.StageSim] = work
		return it
	}
	for _, c := range []struct {
		name  string
		fleet fleetSpan
		admit int64 // expected admission self time
	}{
		{"single", fleetSpan{start: 300, admitted: 310, end: 400, items: []itemTrace{item(20, 10)}}, 10},
		// The worker finished before the admission call returned: the
		// admission span stops where the stage chain starts.
		{"overlap", fleetSpan{start: 300, admitted: 390, end: 400, items: []itemTrace{item(20, 10)}}, 60},
		// A batch: the first item's queue wait, then every item's work.
		{"batch", fleetSpan{start: 300, admitted: 305, end: 500, items: []itemTrace{item(10, 10), item(30, 20), item(50, 30)}}, 5},
		{"refused", fleetSpan{start: 300, admitted: 302, end: 302, refused: true}, 2},
	} {
		f := c.fleet
		call := callTrace{
			clientSpan: clientSpan{id: 1, send: 0, end: 1000},
			handler:    &handlerSpan{id: 1, start: 100, end: 900},
			fleet:      &f,
		}
		spans := call.spanTree()
		self := selfTimes(spans)
		if s := sum(self); s != 1000 {
			t.Errorf("%s: self times %v sum to %d, want the client span 1000", c.name, self, s)
		}
		if self[layerClient] != 200 || self[layerFleetd] != 800-(f.end-f.start) {
			t.Errorf("%s: net self %d, fleetd self %d", c.name, self[layerClient], self[layerFleetd])
		}
		if self[layerAdmit] != c.admit {
			t.Errorf("%s: admission self %d, want %d", c.name, self[layerAdmit], c.admit)
		}
		for i, s := range spans[1:] {
			p := spans[s.parent]
			if s.start < p.start || s.end > p.end {
				t.Errorf("%s: span %d %s [%d,%d] escapes %s [%d,%d]", c.name, i+1, s.name, s.start, s.end, p.name, p.start, p.end)
			}
		}
	}
}
