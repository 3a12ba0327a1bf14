package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// entry is one line of the ledger: one invocation of one workload.
type entry struct {
	Time    string `json:"time"`
	Host    string `json:"host"`
	NProc   int    `json:"nproc"`
	Go      string `json:"go"`
	Commit  string `json:"commit"`
	Seconds int    `json:"seconds"`
	Traced  bool   `json:"traced"`
	result
}

// commit names the checked-out commit from .git in the working directory,
// without running git; a checkout that is not a repository gives "nocommit".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "nocommit"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "nocommit"
		}
		s = strings.TrimSpace(string(b))
	}
	if len(s) < 12 {
		return "nocommit"
	}
	return s[:12]
}

// appendLedger adds the invocation to out/history/<commit>_<host>.jsonl, so
// that runs of one commit on one host accumulate into a sample.
func appendLedger(inv invocation, res *result) error {
	host, err := os.Hostname()
	if err != nil {
		host = "nohost"
	}
	e := entry{
		Time: time.Now().UTC().Format(time.RFC3339), Host: host, NProc: runtime.NumCPU(),
		Go: runtime.Version(), Commit: commit(), Seconds: inv.seconds, Traced: inv.traced,
		result: *res,
	}
	dir := filepath.Join(inv.outDir, "history")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, e.Commit+"_"+host+".jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(e); err != nil {
		f.Close()
		return fmt.Errorf("append to %s: %w", f.Name(), err)
	}
	return f.Close()
}

// readLedger returns, per workload and metric, the values a ledger file
// recorded, in file order.
func readLedger(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var e entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[e.Workload] == nil {
			out[e.Workload] = map[string][]float64{}
		}
		for _, m := range []map[string]summary{e.EndToEnd, e.PerLayer} {
			for name, s := range m {
				out[e.Workload][name] = append(out[e.Workload][name], s.Value)
			}
		}
	}
	return out, sc.Err()
}

const (
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
	// minPairs is the fewest paired runs a claim may rest on.
	minPairs = 10
)

// judge compares paired runs of a parent and a change. The change has
// improved when it wins at least nine tenths of all pairs, ties counting
// for neither side, and the medians differ by more than the distance
// between the parent's quartiles; regressed when the parent does, by the
// same rule; otherwise the difference is unresolved. Fewer than minPairs
// pairs resolve nothing.
func judge(parent, change []float64, better string) string {
	n := min(len(parent), len(change))
	if n < minPairs {
		return unresolved
	}
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		d := change[i] - parent[i]
		if better == lower {
			d = -d
		}
		switch {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	q1, pm, q3 := quartiles(parent[:n])
	gap := median(change[:n]) - pm
	if gap < 0 {
		gap = -gap
	}
	if gap <= q3-q1 {
		return unresolved
	}
	switch {
	case 10*wins >= 9*n:
		return improved
	case 10*losses >= 9*n:
		return regressed
	}
	return unresolved
}

// compareLedgers prints a verdict for every workload and metric both
// ledgers hold, pairing their runs in file order.
func compareLedgers(w io.Writer, parentPath, changePath string) error {
	parent, err := readLedger(parentPath)
	if err != nil {
		return err
	}
	change, err := readLedger(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-24s %-34s %6s %14s %14s  %s\n", "workload", "metric", "pairs", "parent median", "change median", "verdict")
	for _, wl := range workloads {
		for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			a, b := parent[wl.name][def.Name], change[wl.name][def.Name]
			n := min(len(a), len(b))
			if n == 0 {
				continue
			}
			fmt.Fprintf(w, "%-24s %-34s %6d %14.4f %14.4f  %s\n", wl.name, def.Name, n, median(a[:n]), median(b[:n]), judge(a, b, def.Better))
		}
	}
	return nil
}

// selfcheck measures the same code twice, the second time with the
// workloads in reverse order, and reports for every end-to-end figure how
// far the second run is worse than the first, as a share of the first. A
// figure fails the check when it is worse by more than its bound and the
// two runs' samples are apart, the better quartile of the second beyond the
// worse quartile of the first; worse by more than the bound with samples
// that overlap is a spread wider than the bound, and is marked unresolved.
func (inv invocation) selfcheck(w io.Writer) (bool, error) {
	inv.traced = false
	order := slices.Clone(workloads)
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, wl := range order {
			res, err := inv.runWorkload(wl)
			if err != nil {
				return false, fmt.Errorf("%s: %w", wl.name, err)
			}
			if !res.Correct {
				return false, fmt.Errorf("%s: incorrect: %s", wl.name, res.Why)
			}
			sets[i][wl.name] = res
		}
		slices.Reverse(order)
	}
	ok := true
	fmt.Fprintf(w, "| workload | metric | first | second | worse by | bound | |\n|---|---|---|---|---|---|---|\n")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			a, b := sets[0][wl.name].EndToEnd[def.Name], sets[1][wl.name].EndToEnd[def.Name]
			worse := (b.Value - a.Value) / a.Value
			apart := b.Q1 > a.Q3
			if def.Better == higher {
				worse = -worse
				apart = b.Q3 < a.Q1
			}
			mark := ""
			switch {
			case worse > def.Bound && apart:
				ok = false
				mark = "**over**"
			case worse > def.Bound:
				mark = "unresolved"
			}
			fmt.Fprintf(w, "| %s | %s | %.4f | %.4f | %+.2f %% | %.0f %% | %s |\n",
				wl.name, def.Name, a.Value, b.Value, 100*worse, 100*def.Bound, mark)
		}
	}
	return ok, nil
}
