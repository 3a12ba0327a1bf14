package event

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewCopiesAttrs(t *testing.T) {
	attrs := Attrs{"x": Int(1)}
	e := New("A", 10, attrs)
	attrs["x"] = Int(99)
	if v, _ := e.Attr("x"); !v.Equal(Int(1)) {
		t.Fatalf("attrs were not copied: got %v", v)
	}
}

func TestAttrPresence(t *testing.T) {
	e := New("A", 1, Attrs{"x": Int(1)})
	if _, ok := e.Attr("x"); !ok {
		t.Error("x should be present")
	}
	if _, ok := e.Attr("y"); ok {
		t.Error("y should be absent")
	}
}

func TestBefore(t *testing.T) {
	tests := []struct {
		name string
		a, b Event
		want bool
	}{
		{"earlier ts", Event{TS: 1, Seq: 9}, Event{TS: 2, Seq: 1}, true},
		{"later ts", Event{TS: 3, Seq: 1}, Event{TS: 2, Seq: 9}, false},
		{"tie broken by seq", Event{TS: 2, Seq: 1}, Event{TS: 2, Seq: 2}, true},
		{"equal", Event{TS: 2, Seq: 2}, Event{TS: 2, Seq: 2}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Before(tt.b); got != tt.want {
				t.Errorf("Before() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	e := New("A", 5, Attrs{"x": Int(1)})
	c := e.Clone()
	c.Attrs[0].Value = Int(2)
	if v, _ := e.Attr("x"); !v.Equal(Int(1)) {
		t.Fatal("clone shares attrs with original")
	}
}

func TestStringDeterministic(t *testing.T) {
	e := New("A", 5, Attrs{"b": Int(2), "a": Int(1), "c": Str("x")})
	e.Seq = 7
	got := e.String()
	want := `A@5#7{a=1, b=2, c="x"}`
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !strings.HasPrefix(got, "A@") {
		t.Errorf("String() missing type prefix: %q", got)
	}
}

func TestSortByTime(t *testing.T) {
	events := []Event{
		{TS: 3, Seq: 1}, {TS: 1, Seq: 2}, {TS: 2, Seq: 3}, {TS: 1, Seq: 1},
	}
	SortByTime(events)
	if !IsSortedByTime(events) {
		t.Fatal("not sorted after SortByTime")
	}
	if events[0].Seq != 1 || events[0].TS != 1 {
		t.Errorf("tie not broken by seq: first = %+v", events[0])
	}
}

func TestSortByTimeProperty(t *testing.T) {
	f := func(ts []int16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		events := make([]Event, len(ts))
		for i, v := range ts {
			events[i] = Event{TS: Time(v), Seq: Seq(rng.Uint64())}
		}
		SortByTime(events)
		return IsSortedByTime(events) &&
			sort.SliceIsSorted(events, func(i, j int) bool {
				if events[i].TS != events[j].TS {
					return events[i].TS < events[j].TS
				}
				return events[i].Seq < events[j].Seq
			})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
