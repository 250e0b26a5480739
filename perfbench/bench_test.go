package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// declared is the part of BENCHMARK.json the benchmark must agree with.
type declared struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarations pins BENCHMARK.json to the benchmark's own tables:
// the same workloads with the same reasons, the same metrics with the
// same units and directions, a full prediction for every per-layer
// metric, and names drawn from [A-Za-z0-9_.-].
func TestDeclarations(t *testing.T) {
	d := loadDeclared(t)
	var got, want []string
	for _, w := range d.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads\n%q\nwant\n%q", got, want)
	}
	check := func(kind string, got []string, ms []metric) {
		var want []string
		for _, m := range ms {
			want = append(want, m.name+" "+m.unit+" "+m.better)
		}
		if !slices.Equal(got, want) {
			t.Errorf("BENCHMARK.json %s\n%q\nwant\n%q", kind, got, want)
		}
	}
	got = nil
	for _, m := range d.EndToEnd {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", got, endToEnd)
	got = nil
	for _, m := range d.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	check("per_layer", got, perLayer)
	for _, m := range perLayer {
		if m.moves == "" || m.most == "" || m.least == "" {
			t.Errorf("%s: prediction incomplete (moves %q, most %q, least %q)", m.name, m.moves, m.most, m.least)
		}
	}

	seen := map[string]bool{}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) || seen[m.name] {
				t.Errorf("metric name %q is malformed or repeated", m.name)
			}
			seen[m.name] = true
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
	}
}

// TestRunsAgree runs every workload briefly untraced and traced. Each
// run must pass its own output checks and emit exactly the declared
// metrics of its mode; the two runs must agree on every input's
// merged-log digest and pool counts, and the traced run must have
// observed its backends' pool counters.
func TestRunsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var inputs [2][]inputFact
			for i, traced := range []bool{false, true} {
				res, f, err := run(options{workload: w.name, seed: 3, seconds: 1, trace: traced, dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed > 0 {
					t.Fatalf("traced=%v: %d of %d campaigns failed: %q", traced, res.Failed, res.Attempted, f.Errors)
				}
				want := endToEnd
				if traced {
					want = perLayer
					if f.PoolChecked == 0 {
						t.Errorf("traced run observed no pool counters")
					}
				}
				var names []string
				for _, m := range want {
					names = append(names, m.name)
				}
				var emitted []string
				for name := range res.Metrics {
					emitted = append(emitted, name)
				}
				slices.Sort(names)
				slices.Sort(emitted)
				if !slices.Equal(emitted, names) {
					t.Errorf("traced=%v emitted %q, want %q", traced, emitted, names)
				}
				inputs[i] = f.Inputs
			}
			if !slices.Equal(inputs[0], inputs[1]) || len(inputs[0]) == 0 {
				t.Errorf("untraced and traced runs disagree on inputs:\n%+v\n%+v", inputs[0], inputs[1])
			}
		})
	}
}

// TestFrameCounter feeds length-prefixed frames across arbitrary read
// boundaries.
func TestFrameCounter(t *testing.T) {
	var stream []byte
	for _, n := range []int{0, 3, 70000, 1} {
		stream = append(stream, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		stream = append(stream, make([]byte, n)...)
	}
	for _, chunk := range []int{1, 3, 4, 5, 4096, len(stream)} {
		var fc frameCounter
		var frames int64
		for p := stream; len(p) > 0; {
			k := min(chunk, len(p))
			frames += fc.feed(p[:k])
			p = p[k:]
		}
		if frames != 4 {
			t.Errorf("chunk %d: counted %d frames, want 4", chunk, frames)
		}
	}
}

// TestUnion checks the self-time arithmetic on overlapping children.
func TestUnion(t *testing.T) {
	ivs := [][2]int64{{5, 10}, {0, 3}, {8, 12}, {2, 4}, {20, 21}}
	if got := unionNs(ivs); got != 4+7+1 {
		t.Errorf("union = %d, want 12", got)
	}
	if got := unionNs(nil); got != 0 {
		t.Errorf("empty union = %d", got)
	}
}
