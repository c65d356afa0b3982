package main

import "sort"

// Expect is what the sink must finally hold for one source event,
// derived from the generated keys alone: every stage is a classifier
// that counts per class, so the event's final output is (class, rank),
// where rank is the event's 1-based position among the events of its
// class in emission order.
type Expect struct {
	Class uint64
	Count uint64
}

// Arrival is one subscriber callback at the sink.
type Arrival struct {
	Event int    // source event index; -1 when the output matches no source event
	ID    uint64 // sink output identity (event.ID folded to 64 bits)
	Class uint64 // decoded payload
	Count uint64
	Final bool
	At    int64 // arrival, ns on the run's clock
}

// Verdict is the result of checking one run's sink output.
type Verdict struct {
	Failed      int // source events that failed any check below
	Missing     int // no final arrived
	Conflicting int // finals with different content or identity
	Wrong       int // final content no failure-free run could produce
	Reordered   int // valid count, but not the event's rank in emission order
	Spurious    int // arrivals that map to no source event
	// BadClasses lists the classes whose final counts are not exactly
	// {1..N_c}.
	BadClasses []uint64
	// Unexplained counts the bad classes that hold no failed event.
	Unexplained int
	// FirstSeen and FirstFinal hold, per source event, the arrival time
	// of its first delivery and of its first final delivery (-1: none).
	FirstSeen  []int64
	FirstFinal []int64
}

// Correct reports whether everything that did not fail checked out: no
// output appeared that no source event explains, and the per-class check
// agrees with the per-event one (every class whose counts are wrong holds
// a failed event, by its key's class or by the class its final reported).
func (v *Verdict) Correct() bool { return v.Spurious == 0 && v.Unexplained == 0 }

// Expectations derives the reference output for a class stream.
func Expectations(classes []uint64) []Expect {
	exp := make([]Expect, len(classes))
	seen := make(map[uint64]uint64)
	for i, c := range classes {
		seen[c]++
		exp[i] = Expect{Class: c, Count: seen[c]}
	}
	return exp
}

// Check compares the sink arrivals against the reference. An event fails
// when its final is missing, when two of its finals differ in content or
// identity, or when its final is wrong: a class other than its key's, or a
// count that is outside 1..N_c or that another final of the class also
// carries. The per-class check is computed separately: the multiset of
// final counts of class c must be exactly {1..N_c}.
//
// A final whose count is valid but differs from the event's rank in
// emission order does not fail: it is counted in Reordered. Each class
// then still counted every event exactly once, but not in the order the
// events were emitted on their single input.
func Check(exp []Expect, arr []Arrival) (Verdict, []bool) {
	n := len(exp)
	v := Verdict{FirstSeen: make([]int64, n), FirstFinal: make([]int64, n)}
	for i := range v.FirstSeen {
		v.FirstSeen[i], v.FirstFinal[i] = -1, -1
	}
	final := make([]int, n) // index+1 into arr of the first final
	conflict := make([]bool, n)
	for k, a := range arr {
		if a.Event < 0 || a.Event >= n {
			v.Spurious++
			continue
		}
		i := a.Event
		if v.FirstSeen[i] < 0 || a.At < v.FirstSeen[i] {
			v.FirstSeen[i] = a.At
		}
		if !a.Final {
			continue
		}
		if final[i] == 0 {
			final[i] = k + 1
			v.FirstFinal[i] = a.At
			continue
		}
		f := arr[final[i]-1]
		if f.ID != a.ID || f.Class != a.Class || f.Count != a.Count {
			conflict[i] = true
		}
		if a.At < v.FirstFinal[i] {
			v.FirstFinal[i] = a.At
		}
	}

	failed := make([]bool, n)
	total := make(map[uint64]uint64)
	for _, e := range exp {
		total[e.Class]++
	}
	// uses[c][k] counts the finals of class c carrying count k.
	uses := make(map[uint64]map[uint64]int)
	for i := range exp {
		if final[i] == 0 || conflict[i] {
			continue
		}
		f := arr[final[i]-1]
		if uses[f.Class] == nil {
			uses[f.Class] = make(map[uint64]int)
		}
		uses[f.Class][f.Count]++
	}
	for i, e := range exp {
		switch {
		case final[i] == 0:
			v.Missing++
			failed[i] = true
			continue
		case conflict[i]:
			v.Conflicting++
			failed[i] = true
			continue
		}
		f := arr[final[i]-1]
		switch {
		case f.Class != e.Class || f.Count == 0 || f.Count > total[e.Class] || uses[f.Class][f.Count] > 1:
			v.Wrong++
			failed[i] = true
		case f.Count != e.Count:
			v.Reordered++
		}
	}
	for _, f := range failed {
		if f {
			v.Failed++
		}
	}
	for c, want := range total {
		if !isRange(uses[c], want) {
			v.BadClasses = append(v.BadClasses, c)
		}
	}
	for c := range uses {
		if _, ok := total[c]; !ok {
			v.BadClasses = append(v.BadClasses, c)
		}
	}
	touched := make(map[uint64]bool)
	for i, e := range exp {
		if failed[i] {
			touched[e.Class] = true
			if final[i] != 0 {
				touched[arr[final[i]-1].Class] = true
			}
		}
	}
	for _, c := range v.BadClasses {
		if !touched[c] {
			v.Unexplained++
		}
	}
	sort.Slice(v.BadClasses, func(i, j int) bool { return v.BadClasses[i] < v.BadClasses[j] })
	return v, failed
}

// isRange reports whether the counts in uses are exactly 1..n, each once.
func isRange(uses map[uint64]int, n uint64) bool {
	if uint64(len(uses)) != n {
		return false
	}
	for k, u := range uses {
		if k == 0 || k > n || u != 1 {
			return false
		}
	}
	return true
}
