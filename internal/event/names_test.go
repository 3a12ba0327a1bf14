package event

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// freshNameTable gives the test an empty name table and puts the process's
// back when it ends, so no other test sees what this one interned.
func freshNameTable(t *testing.T) {
	old := names.Swap(&map[string]string{})
	t.Cleanup(func() { names.Store(old) })
}

func sameString(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// TestNameTableIsBounded: a stream of ever new names fills the table to its
// bound and no further, names past the bound and names too long for it
// still decode and are found by Get, and a name in the table is handed out
// as one string however it arrives.
func TestNameTableIsBounded(t *testing.T) {
	freshNameTable(t)
	for i := 0; i < 2*maxNames; i++ {
		line := fmt.Sprintf(`{"type":"T%d","attrs":{"a%d":{"int":%d}}}`, i, i, i)
		e, err := ParseJSON([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := e.Attrs.Get(fmt.Sprintf("a%d", i)); e.Type != fmt.Sprintf("T%d", i) || !ok || v != Int(int64(i)) {
			t.Fatalf("line %d past the bound decoded as %v", i, e)
		}
		if n := len(*names.Load()); n > maxNames {
			t.Fatalf("after line %d the table holds %d names, bound is %d", i, n, maxNames)
		}
	}
	if n := len(*names.Load()); n != maxNames {
		t.Fatalf("table holds %d names, want it full at %d", n, maxNames)
	}
	// Each line brought two names, so T128 was the 257th.
	if _, ok := (*names.Load())["T128"]; ok {
		t.Error("the 257th name is in the table")
	}
	if past, again := Intern("T128"), Intern("T128"); sameString(past, again) {
		t.Error("a name past the bound was handed out twice as one string")
	}
	if first, again := Intern("a0"), Intern(strings.Clone("a0")); !sameString(first, again) {
		t.Error("a name in the table was handed out as two strings")
	}

	long := strings.Repeat("n", maxNameLen+1)
	freshNameTable(t)
	e, err := ParseJSON([]byte(`{"type":"` + long + `","attrs":{"` + long + `":{"int":7}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Attrs.Get(long); e.Type != long || !ok || v != Int(7) {
		t.Fatalf("a %d-byte name decoded as %v", len(long), e)
	}
	if n := len(*names.Load()); n != 0 {
		t.Fatalf("the table took a %d-byte name: %d entries", len(long), n)
	}
}

// TestInternConcurrent: eight goroutines interning and decoding overlapping
// names get one string per name between them. Run it under -race.
func TestInternConcurrent(t *testing.T) {
	freshNameTable(t)
	const goroutines, distinct = 8, 100
	got := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]string, distinct)
			for i := range distinct {
				k := (i + g*distinct/goroutines) % distinct // each starts elsewhere
				name := fmt.Sprintf("c%d", k)
				if k%2 == 0 {
					got[g][k] = Intern(name)
					continue
				}
				e, err := ParseJSON([]byte(`{"attrs":{"` + name + `":{"int":1}}}`))
				if err != nil {
					t.Error(err)
					return
				}
				got[g][k] = e.Attrs[0].Name
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for k := range distinct {
			if got[g][k] != got[0][k] || !sameString(got[g][k], got[0][k]) {
				t.Fatalf("goroutines 0 and %d hold %q and %q as two strings", g, got[0][k], got[g][k])
			}
		}
	}
	if n := len(*names.Load()); n != distinct {
		t.Errorf("table holds %d names, want %d", n, distinct)
	}
}
