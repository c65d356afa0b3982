package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// clean returns the reference for a short class stream and a sink output
// that matches it: a speculative delivery, then a final, per event.
func clean() ([]Expect, []Arrival) {
	exp := Expectations([]uint64{0, 1, 0, 2, 1, 0, 2, 2})
	var arr []Arrival
	for i, e := range exp {
		arr = append(arr,
			Arrival{Event: i, ID: uint64(100 + i), Class: e.Class, Count: e.Count, At: int64(10 * i)},
			Arrival{Event: i, ID: uint64(100 + i), Class: e.Class, Count: e.Count, Final: true, At: int64(10*i + 5)})
	}
	return exp, arr
}

func TestExpectationsRankPerClass(t *testing.T) {
	got := Expectations([]uint64{3, 1, 3, 3, 1})
	want := []Expect{{3, 1}, {1, 1}, {3, 2}, {3, 3}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Expectations = %v, want %v", got, want)
	}
}

func TestCheckPassesCleanOutput(t *testing.T) {
	exp, arr := clean()
	// A repeated final with the same content is allowed.
	arr = append(arr, arr[1])
	v, _ := Check(exp, arr)
	if v.Failed != 0 || v.Reordered != 0 || len(v.BadClasses) != 0 || !v.Correct() {
		t.Fatalf("clean output flagged: %+v", v)
	}
	if v.FirstSeen[3] != 30 || v.FirstFinal[3] != 35 {
		t.Fatalf("first seen/final of event 3 = %d/%d, want 30/35", v.FirstSeen[3], v.FirstFinal[3])
	}
}

func TestCheckFlagsDroppedFinal(t *testing.T) {
	exp, arr := clean()
	arr = append(arr[:7], arr[8:]...) // event 3 keeps only its speculative delivery
	v, failed := Check(exp, arr)
	if v.Failed != 1 || v.Missing != 1 || !failed[3] {
		t.Fatalf("dropped final not flagged: %+v", v)
	}
	if !reflect.DeepEqual(v.BadClasses, []uint64{2}) {
		t.Fatalf("bad classes = %v, want [2]", v.BadClasses)
	}
	if !v.Correct() {
		t.Fatal("a class with a failed event should not make the run incorrect")
	}
}

func TestCheckFlagsDoubleCountedClass(t *testing.T) {
	exp, arr := clean()
	// Class 0 (events 0, 2, 5) is counted twice from event 2 on: 1, 3, 4.
	for k := range arr {
		if i := arr[k].Event; i == 2 || i == 5 {
			arr[k].Count++
		}
	}
	v, failed := Check(exp, arr)
	if v.Failed != 1 || v.Wrong != 1 || !failed[5] {
		t.Fatalf("double-counted class not flagged: %+v", v)
	}
	if !reflect.DeepEqual(v.BadClasses, []uint64{0}) {
		t.Fatalf("bad classes = %v, want [0]", v.BadClasses)
	}

	// A lost update instead: events 2 and 5 both read count 1 → 2.
	exp, arr = clean()
	for k := range arr {
		if arr[k].Event == 5 {
			arr[k].Count = 2
		}
	}
	v, failed = Check(exp, arr)
	if v.Wrong != 2 || !failed[2] || !failed[5] || !reflect.DeepEqual(v.BadClasses, []uint64{0}) {
		t.Fatalf("duplicate count not flagged: %+v", v)
	}
}

func TestCheckFlagsFinalThatChangesContent(t *testing.T) {
	exp, arr := clean()
	changed := arr[9] // event 4's final
	changed.Count++
	changed.At += 100
	arr = append(arr, changed)
	v, failed := Check(exp, arr)
	if v.Failed != 1 || v.Conflicting != 1 || !failed[4] {
		t.Fatalf("changed final not flagged: %+v", v)
	}
	if !v.Correct() {
		t.Fatal("the conflicting event is failed; the run stays correct")
	}

	// A second final under another identity is a conflict too.
	exp, arr = clean()
	other := arr[9]
	other.ID++
	v, _ = Check(exp, append(arr, other))
	if v.Conflicting != 1 {
		t.Fatalf("final with another identity not flagged: %+v", v)
	}
}

func TestCheckCountsReorderApart(t *testing.T) {
	exp, arr := clean()
	// Events 3 and 6 (class 2, ranks 1 and 2) swap counts: each class
	// still counts every event once, but not in emission order.
	for k := range arr {
		switch arr[k].Event {
		case 3:
			arr[k].Count = 2
		case 6:
			arr[k].Count = 1
		}
	}
	v, _ := Check(exp, arr)
	if v.Failed != 0 || v.Reordered != 2 || len(v.BadClasses) != 0 || !v.Correct() {
		t.Fatalf("reorder misjudged: %+v", v)
	}
}

func TestCheckSpuriousOutputIsIncorrect(t *testing.T) {
	exp, arr := clean()
	arr = append(arr, Arrival{Event: -1, Class: 0, Count: 9, Final: true})
	v, _ := Check(exp, arr)
	if v.Spurious != 1 || v.Correct() {
		t.Fatalf("spurious output not flagged: %+v", v)
	}
}

func TestCheckFlagsFinalOfAnotherClass(t *testing.T) {
	exp, arr := clean()
	// Event 1 (class 1) reports class 2, count 4: class 2 then holds
	// counts 1..4 for three events and class 1 misses a count.
	for k := range arr {
		if arr[k].Event == 1 {
			arr[k].Class, arr[k].Count = 2, 4
		}
	}
	v, failed := Check(exp, arr)
	if v.Failed != 1 || !failed[1] || !reflect.DeepEqual(v.BadClasses, []uint64{1, 2}) {
		t.Fatalf("final of another class not flagged: %+v", v)
	}
	if !v.Correct() {
		t.Fatal("both bad classes hold the failed event; the run stays correct")
	}
}

// TestBenchmarkJSONListsReportedMetrics keeps BENCHMARK.json and the
// metrics the command prints in step.
func TestBenchmarkJSONListsReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command prints %d", len(c.listed), len(c.defs))
		}
		for i, m := range c.listed {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the command prints %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}
}
